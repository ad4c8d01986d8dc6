#ifndef CDPIPE_STORAGE_SPILL_FILE_H_
#define CDPIPE_STORAGE_SPILL_FILE_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"

namespace cdpipe {

/// Per-chunk spill files for the chunk store's disk tier: one file holds
/// one raw chunk, and reading it back reproduces the records byte for byte.
///
/// Format (varints are LEB128; the id and event time are zigzag-coded):
///
///   "CDSPILL1"            8-byte magic
///   chunk_id              zigzag varint
///   event_time_seconds    zigzag varint
///   0x01 0x04             fixed: one column, of string type
///   num_records           varint
///   0x00                  fixed: no null bitmap
///   mode                  1 byte: 0 raw, 2 tokenized (1 is retired)
///   records               the mode's payload (below)
///   checksum              8-byte little-endian Fnv1a64 over everything
///                         above (FNV-1a, non-standard offset basis)
///
/// Record modes.  The writer encodes both and keeps the smaller; on equal
/// size raw wins.
///  - raw: one varint length per record, then the concatenated bytes;
///  - tokenized: a varint entry count, the distinct space-separated tokens
///    in first-occurrence order (varint length + bytes each), then per
///    record a varint token count and that many varint codes.  Eligible
///    only when every record equals `join(' ', tokens)` — no leading,
///    trailing or double spaces.
/// Mode byte 1 once named a whole-record dictionary, which the tokenized
/// mode beat on every spill; a file carrying it now reads as corrupt.
/// `SpillFileFormatTest` pins one file per mode byte for byte.
///
/// Writes serialize fully in memory, land in `<path>.tmp`, and commit with
/// an atomic rename — a crashed writer leaves either the old file or none,
/// never a torn one.  Reads verify the checksum against the raw bytes
/// before decoding anything.
///
/// Error taxonomy: `kIoError` for open/write/rename failures (the chunk
/// store degrades to keep-in-memory), `kInvalidArgument` for anything wrong
/// with the bytes themselves — bad magic, truncation, checksum mismatch,
/// a header other than the fixed prefix, a malformed record payload,
/// trailing bytes, a chunk id other than the expected one — which the store
/// treats as corruption and answers with drop-chunk accounting.
///
/// Fault sites: `spill.write` (fails/throws a write), `spill.read`
/// (fails/throws a read), `spill.corrupt` (flips a payload bit in the read
/// buffer so the checksum path detects it — one trigger, one detection).

struct SpillFileInfo {
  int64_t bytes_written = 0;  ///< final file size, checksum included
};

/// Writes `chunk` as a spill file at `path` (atomic tmp+rename).
Result<SpillFileInfo> WriteRawChunkSpill(const std::string& path,
                                         const RawChunk& chunk);

/// Reads and fully verifies the spill file of chunk `expected_id`.
Result<RawChunk> ReadRawChunkSpill(const std::string& path,
                                   ChunkId expected_id);

}  // namespace cdpipe

#endif  // CDPIPE_STORAGE_SPILL_FILE_H_
