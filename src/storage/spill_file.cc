#include "src/storage/spill_file.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/string_util.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace {

constexpr std::string_view kMagic("CDSPILL1", 8);
constexpr size_t kTrailerSize = 8;
/// Column count 1, then the string type byte: a spill file is one string
/// column of records.
constexpr std::string_view kColumnPrefix("\x01\x04", 2);
constexpr std::string_view kNoNulls("\x00", 1);

/// Record encodings.  Byte 1 is retired (a whole-record dictionary, which
/// the tokenized mode always beat) and reads as corrupt.
enum class Mode : uint8_t {
  kRaw = 0,     ///< varint lengths + concatenated bytes
  kTokens = 2,  ///< space-separated tokens dictionary-coded per record
};

void PutVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void PutFixed64(uint64_t v, std::string* out) {
  char bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<char>(v >> (8 * i));
  out->append(bytes, 8);
}

uint64_t GetFixed64(const char* bytes) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return v;
}

/// Splits `s` on single spaces.  Returns false when the record cannot be
/// reproduced as `join(' ', tokens)` — leading/trailing/double spaces.
bool TokenizeExact(std::string_view s, std::vector<std::string_view>* out) {
  out->clear();
  if (s.empty()) return true;
  size_t start = 0;
  while (true) {
    const size_t space = s.find(' ', start);
    const std::string_view token =
        space == std::string_view::npos ? s.substr(start)
                                        : s.substr(start, space - start);
    if (token.empty()) return false;  // leading, trailing, or double space
    out->push_back(token);
    if (space == std::string_view::npos) return true;
    start = space + 1;
  }
}

/// Distinct tokens in first-occurrence order; the code of a token is its
/// slot.
class Dictionary {
 public:
  uint64_t Intern(std::string_view value) {
    auto [it, inserted] = index_.emplace(value, entries_.size());
    if (inserted) entries_.push_back(value);
    return it->second;
  }

  /// Entry count, then each entry as varint length + bytes.
  void AppendTo(std::string* out) const {
    PutVarint(entries_.size(), out);
    for (const std::string_view e : entries_) {
      PutVarint(e.size(), out);
      out->append(e);
    }
  }

 private:
  std::unordered_map<std::string_view, uint64_t> index_;
  std::vector<std::string_view> entries_;
};

/// Appends the mode byte and payload of the smaller eligible encoding
/// (raw on equal size).
void EncodeRecords(const std::vector<std::string>& records, std::string* out) {
  std::string raw;
  {
    size_t total = 0;
    for (const std::string& r : records) {
      PutVarint(r.size(), &raw);
      total += r.size();
    }
    raw.reserve(raw.size() + total);
    for (const std::string& r : records) raw.append(r);
  }

  std::string tokens;
  bool tokens_ok = true;
  {
    Dictionary dictionary;
    std::vector<std::vector<uint64_t>> record_codes(records.size());
    std::vector<std::string_view> scratch;
    for (size_t i = 0; i < records.size(); ++i) {
      if (!TokenizeExact(records[i], &scratch)) {
        tokens_ok = false;
        break;
      }
      record_codes[i].reserve(scratch.size());
      for (const std::string_view t : scratch) {
        record_codes[i].push_back(dictionary.Intern(t));
      }
    }
    if (tokens_ok) {
      dictionary.AppendTo(&tokens);
      for (const std::vector<uint64_t>& codes : record_codes) {
        PutVarint(codes.size(), &tokens);
        for (const uint64_t c : codes) PutVarint(c, &tokens);
      }
    }
  }

  const bool use_tokens = tokens_ok && tokens.size() < raw.size();
  out->push_back(static_cast<char>(use_tokens ? Mode::kTokens : Mode::kRaw));
  out->append(use_tokens ? tokens : raw);
}

/// Bounds-checked cursor over a checksum-verified payload: a read that
/// would pass the end fails instead.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - offset_; }

  bool Byte(uint8_t* out) {
    if (offset_ >= bytes_.size()) return false;
    *out = static_cast<uint8_t>(bytes_[offset_++]);
    return true;
  }

  /// Consumes exactly `expected`.
  bool Literal(std::string_view expected) {
    if (bytes_.substr(offset_, expected.size()) != expected) return false;
    offset_ += expected.size();
    return true;
  }

  /// LEB128; fails on truncation or an encoding longer than ten bytes.
  bool Varint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      uint8_t byte = 0;
      if (!Byte(&byte)) return false;
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return true;
      }
    }
    return false;
  }

  /// The next `len` bytes.  Each length is checked against what remains,
  /// so no sum of lengths can wrap past the bound.
  bool Bytes(uint64_t len, std::string_view* out) {
    if (len > remaining()) return false;
    *out = bytes_.substr(offset_, len);
    offset_ += len;
    return true;
  }

 private:
  std::string_view bytes_;
  size_t offset_ = 0;
};

/// Reads a dictionary written by `Dictionary::AppendTo`; the entries view
/// the payload.  Returns what is wrong, or nullptr.
const char* ReadDictionary(Cursor* in, std::vector<std::string_view>* out) {
  uint64_t num_entries = 0;
  if (!in->Varint(&num_entries)) return "truncated dictionary size";
  // Every entry costs at least its length byte.
  if (num_entries > in->remaining()) return "dictionary too large";
  out->reserve(num_entries);
  for (uint64_t e = 0; e < num_entries; ++e) {
    uint64_t len = 0;
    std::string_view entry;
    if (!in->Varint(&len) || !in->Bytes(len, &entry)) {
      return "truncated dictionary entry";
    }
    out->push_back(entry);
  }
  return nullptr;
}

/// Decodes the mode byte and `rows` records.  Returns what is wrong, or
/// nullptr.
const char* DecodeRecords(Cursor* in, size_t rows,
                          std::vector<std::string>* records) {
  uint8_t mode = 0;
  if (!in->Byte(&mode)) return "missing record mode";
  records->reserve(rows);
  switch (static_cast<Mode>(mode)) {
    case Mode::kRaw: {
      std::vector<uint64_t> lengths(rows);
      for (uint64_t& len : lengths) {
        if (!in->Varint(&len)) return "truncated record length";
      }
      for (const uint64_t len : lengths) {
        std::string_view record;
        if (!in->Bytes(len, &record)) return "truncated record bytes";
        records->emplace_back(record);
      }
      return nullptr;
    }
    case Mode::kTokens: {
      std::vector<std::string_view> tokens;
      if (const char* error = ReadDictionary(in, &tokens)) return error;
      // Joined in a reused buffer, so each record is allocated once at its
      // final size.
      std::string record;
      for (size_t i = 0; i < rows; ++i) {
        uint64_t num_tokens = 0;
        if (!in->Varint(&num_tokens)) return "truncated token count";
        record.clear();
        for (uint64_t t = 0; t < num_tokens; ++t) {
          uint64_t code = 0;
          if (!in->Varint(&code) || code >= tokens.size()) {
            return "bad token code";
          }
          if (t > 0) record.push_back(' ');
          record.append(tokens[code]);
        }
        records->push_back(record);
      }
      return nullptr;
    }
  }
  return "unknown record mode";
}

/// Verifies a whole file image and decodes it into `*chunk`.  Returns what
/// is wrong, or nullptr.
const char* DecodeFile(std::string_view file, ChunkId expected_id,
                       RawChunk* chunk) {
  if (file.size() < kMagic.size() + kTrailerSize) return "truncated header";
  const std::string_view payload = file.substr(0, file.size() - kTrailerSize);
  if (Fnv1a64(payload) != GetFixed64(file.data() + payload.size())) {
    return "checksum mismatch (truncated or corrupt)";
  }
  Cursor in(payload);
  if (!in.Literal(kMagic)) return "bad magic";
  uint64_t id_zz = 0, time_zz = 0, rows = 0;
  if (!in.Varint(&id_zz) || !in.Varint(&time_zz)) {
    return "truncated chunk header";
  }
  if (ZigZagDecode(id_zz) != expected_id) return "chunk id mismatch";
  if (!in.Literal(kColumnPrefix)) return "not a one-string-column spill";
  if (!in.Varint(&rows)) return "truncated record count";
  if (!in.Literal(kNoNulls)) return "bad null flag";
  // Every record costs at least one payload byte in every mode; a larger
  // count is a corrupt header, rejected before any allocation.
  if (rows > in.remaining()) return "implausible record count";
  chunk->id = expected_id;
  chunk->event_time_seconds = ZigZagDecode(time_zz);
  if (const char* error =
          DecodeRecords(&in, static_cast<size_t>(rows), &chunk->records)) {
    return error;
  }
  if (in.remaining() != 0) return "trailing bytes after records";
  return nullptr;
}

}  // namespace

Result<SpillFileInfo> WriteRawChunkSpill(const std::string& path,
                                         const RawChunk& chunk) {
  CDPIPE_FAULT_POINT("spill.write");

  // Serialize fully in memory so the trailer covers the whole payload.
  std::string payload(kMagic);
  PutVarint(ZigZagEncode(chunk.id), &payload);
  PutVarint(ZigZagEncode(chunk.event_time_seconds), &payload);
  payload.append(kColumnPrefix);
  PutVarint(chunk.records.size(), &payload);
  payload.append(kNoNulls);
  EncodeRecords(chunk.records, &payload);
  PutFixed64(Fnv1a64(payload), &payload);

  const std::string tmp = path + ".tmp";
  {
    std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
    if (!file) return Status::IoError("cannot open for writing: " + tmp);
    file.write(payload.data(),
               static_cast<std::streamsize>(payload.size()));
    file.flush();
    if (!file) {
      std::remove(tmp.c_str());
      return Status::IoError("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + path);
  }
  SpillFileInfo info;
  info.bytes_written = static_cast<int64_t>(payload.size());
  return info;
}

Result<RawChunk> ReadRawChunkSpill(const std::string& path,
                                   ChunkId expected_id) {
  CDPIPE_FAULT_POINT("spill.read");

  std::string contents;
  {
    std::ifstream file(path, std::ios::binary);
    if (!file) return Status::IoError("cannot open for reading: " + path);
    std::ostringstream slurp;
    slurp << file.rdbuf();
    if (!file && !file.eof()) {
      return Status::IoError("read failed: " + path);
    }
    contents = slurp.str();
  }
  // Corruption injection: flip one payload bit in the read buffer so the
  // checksum verification has to catch it — one trigger is exactly one
  // detection, which the CI corruption gate counts on.
  if (CDPIPE_FAULT_TRIGGERED("spill.corrupt") && !contents.empty()) {
    contents[contents.size() / 2] ^= 0x01;
  }

  RawChunk chunk;
  if (const char* error = DecodeFile(contents, expected_id, &chunk)) {
    return Status::InvalidArgument("spill file " + path + ": " + error);
  }
  return chunk;
}

}  // namespace cdpipe
