// Spill-file tests: atomic commit, checksum verification before decode,
// exact record round trips in every mode, the on-disk bytes pinned per
// mode, and two corruption corpora.  Container-level damage (truncation,
// bit flips, garbage after the trailer) must be caught by the checksum.
// Decoder-level damage is crafted beneath the checksum: each mutated
// payload gets a freshly computed FNV-1a trailer, so it reaches the record
// decoder, which must answer with a clean kInvalidArgument (or OK, for a
// flip that still decodes) — never a throw, a crash or an over-read.

#include "src/storage/spill_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "src/common/string_util.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace {

namespace fs = std::filesystem;

// --- An independent statement of the format, for crafting files. ---

std::string Varint(uint64_t v) {
  std::string out;
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
  return out;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

/// Everything before the mode byte.
std::string Header(ChunkId id, int64_t event_time_seconds, uint64_t rows) {
  return std::string("CDSPILL1") + Varint(ZigZag(id)) +
         Varint(ZigZag(event_time_seconds)) + std::string("\x01\x04", 2) +
         Varint(rows) + std::string(1, '\0');
}

constexpr char kRaw = 0, kTokens = 2;

/// The mode byte of `file`, the spill file of `chunk`.
char ModeOf(const std::string& file, const RawChunk& chunk) {
  return file.at(
      Header(chunk.id, chunk.event_time_seconds, chunk.records.size())
          .size());
}

/// Appends the FNV-1a trailer to `payload`.
std::string Seal(const std::string& payload) {
  std::string file = payload;
  const uint64_t sum = Fnv1a64(payload);
  for (int i = 0; i < 8; ++i) {
    file.push_back(static_cast<char>(sum >> (8 * i)));
  }
  return file;
}

/// Strips the trailer from a written file.
std::string Unseal(const std::string& file) {
  return file.substr(0, file.size() - 8);
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

class SpillFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("cdpipe_spill_test_" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()) +
            "_" + info->test_suite_name() + "_" + info->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static std::string Slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  static void Dump(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// The spill file `chunk` writes.
  std::string Written(const RawChunk& chunk) {
    const std::string path = Path("written.spill");
    Result<SpillFileInfo> info = WriteRawChunkSpill(path, chunk);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return Slurp(path);
  }

  /// Writes `chunk`, reads it back, and expects an exact copy.
  void ExpectRoundTrip(const RawChunk& chunk) {
    const std::string path = Path("round_trip.spill");
    Result<SpillFileInfo> info = WriteRawChunkSpill(path, chunk);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_EQ(static_cast<uint64_t>(info->bytes_written),
              fs::file_size(path));
    Result<RawChunk> loaded = ReadRawChunkSpill(path, chunk.id);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->id, chunk.id);
    EXPECT_EQ(loaded->event_time_seconds, chunk.event_time_seconds);
    EXPECT_EQ(loaded->records, chunk.records);
  }

  /// Reads `file` as the spill file of chunk `id`; a throw fails the test.
  Result<RawChunk> ReadBytes(const std::string& file, ChunkId id) {
    const std::string path = Path("crafted.spill");
    Dump(path, file);
    Result<RawChunk> loaded = Status::Internal("read threw");
    EXPECT_NO_THROW(loaded = ReadRawChunkSpill(path, id));
    return loaded;
  }

  fs::path dir_;
};

class SpillFileFormatTest : public SpillFileTest {};
class SpillFileCodecTest : public SpillFileTest {};
class SpillFileAdversarialTest : public SpillFileTest {
 protected:
  /// Expects `payload`, sealed, to be rejected as corrupt.
  void ExpectCorruptPayload(const std::string& payload, ChunkId id) {
    Result<RawChunk> loaded = ReadBytes(Seal(payload), id);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();
  }
};

RawChunk Chunk(ChunkId id, int64_t event_time_seconds,
               std::vector<std::string> records) {
  RawChunk chunk;
  chunk.id = id;
  chunk.event_time_seconds = event_time_seconds;
  chunk.records = std::move(records);
  return chunk;
}

RawChunk SampleChunk(ChunkId id) {
  return Chunk(id, id * 600, {"a,1,2", "b,3,4", "", "c with spaces,5,6"});
}

// Distinct records with a double space: raw mode.
RawChunk RawModeChunk() { return Chunk(7, -3600, {"x,1", "y,2", "z  3"}); }
// Distinct records over a shared vocabulary: tokenized mode.
RawChunk TokensModeChunk() {
  return Chunk(-2, 0,
               {"yellow cash manhattan", "yellow card manhattan",
                "green cash manhattan", "yellow cash brooklyn"});
}

// --- Container: commit protocol, checksum, fault sites. ---

TEST_F(SpillFileTest, RawChunkRoundTripIsExact) {
  ExpectRoundTrip(SampleChunk(12));
}

TEST_F(SpillFileTest, IdMismatchIsCorruption) {
  const std::string path = Path("chunk_5.spill");
  ASSERT_TRUE(WriteRawChunkSpill(path, SampleChunk(5)).ok());
  Result<RawChunk> loaded = ReadRawChunkSpill(path, 6);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SpillFileTest, CommitIsAtomicNoTmpLeftBehind) {
  const std::string path = Path("chunk_1.spill");
  ASSERT_TRUE(WriteRawChunkSpill(path, SampleChunk(1)).ok());
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(SpillFileTest, RewriteReplacesAtomically) {
  const std::string path = Path("chunk_2.spill");
  ASSERT_TRUE(WriteRawChunkSpill(path, SampleChunk(2)).ok());
  RawChunk updated = SampleChunk(2);
  updated.records.push_back("late record");
  ASSERT_TRUE(WriteRawChunkSpill(path, updated).ok());
  Result<RawChunk> loaded = ReadRawChunkSpill(path, 2);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->records.size(), 5u);
}

TEST_F(SpillFileTest, MissingFileIsIoErrorNotCorruption) {
  Result<RawChunk> loaded = ReadRawChunkSpill(Path("never_written.spill"), 1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

TEST_F(SpillFileTest, EmptyFileIsCorrupt) {
  Result<RawChunk> loaded = ReadBytes("", 1);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SpillFileTest, EveryTruncationIsDetected) {
  const std::string bytes = Written(SampleChunk(3));
  ASSERT_GT(bytes.size(), 16u);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Result<RawChunk> loaded = ReadBytes(bytes.substr(0, cut), 3);
    ASSERT_FALSE(loaded.ok()) << "cut at " << cut << " of " << bytes.size();
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "cut at " << cut;
  }
}

TEST_F(SpillFileTest, EverySingleBitFlipIsDetected) {
  // The FNV-1a trailer covers every payload byte and the trailer itself is
  // compared bit-for-bit, so *any* single-bit flip anywhere in the file
  // must be detected.  This is the property the chunk store's drop-chunk
  // accounting relies on.
  const std::string bytes = Written(SampleChunk(4));
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = bytes;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      Result<RawChunk> loaded = ReadBytes(mutated, 4);
      ASSERT_FALSE(loaded.ok())
          << "flip byte " << byte << " bit " << bit << " undetected";
      EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST_F(SpillFileTest, TrailingGarbageIsDetected) {
  Result<RawChunk> loaded = ReadBytes(Written(SampleChunk(8)) + "extra", 8);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SpillFileTest, WrongMagicIsCorrupt) {
  // Resealed, so the magic check itself (not the checksum) rejects it.
  std::string payload = Unseal(Written(SampleChunk(9)));
  payload[0] = 'X';
  Result<RawChunk> loaded = ReadBytes(Seal(payload), 9);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SpillFileTest, WriteFaultReturnsStatusAndWritesNothing) {
  testing::ScopedFaultScript script(
      {{"spill.write", testing::FaultRule::FirstN(1)}});
  const std::string path = Path("faulted.spill");
  Result<SpillFileInfo> info = WriteRawChunkSpill(path, SampleChunk(1));
  EXPECT_FALSE(info.ok());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST_F(SpillFileTest, ReadFaultReturnsStatus) {
  const std::string path = Path("chunk_6.spill");
  ASSERT_TRUE(WriteRawChunkSpill(path, SampleChunk(6)).ok());
  testing::ScopedFaultScript script(
      {{"spill.read", testing::FaultRule::FirstN(1)}});
  EXPECT_FALSE(ReadRawChunkSpill(path, 6).ok());
  // The rule has been consumed; the next read succeeds.
  EXPECT_TRUE(ReadRawChunkSpill(path, 6).ok());
}

TEST_F(SpillFileTest, CorruptFaultFlipsOneBitPerTrigger) {
  const std::string path = Path("chunk_10.spill");
  ASSERT_TRUE(WriteRawChunkSpill(path, SampleChunk(10)).ok());
  testing::ScopedFaultScript script(
      {{"spill.corrupt", testing::FaultRule::FirstN(1)}});
  Result<RawChunk> loaded = ReadRawChunkSpill(path, 10);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(testing::FaultInjector::Global().StatsFor("spill.corrupt").triggers,
            1);
  // The file on disk is untouched — only the read buffer was corrupted.
  EXPECT_TRUE(ReadRawChunkSpill(path, 10).ok());
}

// --- The on-disk bytes, one file per mode. ---

TEST_F(SpillFileFormatTest, EachModeIsPinnedByteForByte) {
  struct Case {
    RawChunk chunk;
    char mode;
    std::string hex;
  };
  const Case cases[] = {
      {RawModeChunk(), kRaw,
       "43445350494c4c31"                // "CDSPILL1"
       "0e9f38"                          // id 7, event time -3600
       "0104" "03" "00"                  // one string column, 3 rows, no nulls
       "00"                              // mode: raw
       "030304"                          // lengths
       "782c31" "792c32" "7a202033"      // "x,1" "y,2" "z  3"
       "cd6eb439b660db48"},              // FNV-1a
      {TokensModeChunk(), kTokens,
       "43445350494c4c31"
       "03" "00"                         // id -2, event time 0
       "0104" "04" "00"
       "02"                              // mode: tokenized
       "06"                              // six tokens:
       "0679656c6c6f77" "0463617368"     //   yellow cash
       "096d616e68617474616e"            //   manhattan
       "0463617264" "05677265656e"       //   card green
       "0862726f6f6b6c796e"              //   brooklyn
       "03000102" "03000302"             // per row: count, codes
       "03040102" "03000105"
       "16566bbf01886b50"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.chunk.records.front());
    const std::string bytes = Written(c.chunk);
    EXPECT_EQ(ModeOf(bytes, c.chunk), c.mode);
    EXPECT_EQ(Hex(bytes), c.hex);
    ExpectRoundTrip(c.chunk);
  }
}

// Mode byte 1 was a whole-record dictionary.  The tokenized mode beat it
// on every spill, so it was retired: this file, which the writer once
// produced for {"cash", "cash", "card", "cash"}, carries a valid checksum
// and now reads as corrupt.
TEST_F(SpillFileFormatTest, RetiredDictionaryModeIsCorrupt) {
  const std::string file = Unhex(
      "43445350494c4c31"
      "d804" "80b8a4ca0a"                // id 300, event time 1420070400
      "0104" "04" "00"
      "01"                               // mode: dictionary (retired)
      "02" "0463617368" "0463617264"     // {"cash", "card"}
      "00000100"                         // codes
      "0f7201f4cc7ebf8c");
  ASSERT_EQ(Seal(Unseal(file)), file);
  Result<RawChunk> loaded = ReadBytes(file, 300);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("unknown record mode"),
            std::string::npos)
      << loaded.status().ToString();
}

// --- Round trips through each mode. ---

TEST_F(SpillFileCodecTest, EmptyChunkRoundTrips) {
  const RawChunk empty = Chunk(1, 60, {});
  EXPECT_EQ(Written(empty), Seal(Header(1, 60, 0) + kRaw));
  ExpectRoundTrip(empty);
  ExpectRoundTrip(Chunk(2, 120, {"", "", ""}));
}

TEST_F(SpillFileCodecTest, RecordsWithEmbeddedControlBytesRoundTrip) {
  const RawChunk chunk =
      Chunk(3, 180,
            {"", std::string("nul\0inside", 10), "plain", "trailing space ",
             " leading", "double  space", "\xff\x80\x01", "tab\tnewline\n"});
  EXPECT_EQ(ModeOf(Written(chunk), chunk), kRaw);
  ExpectRoundTrip(chunk);
}

TEST_F(SpillFileCodecTest, RepetitiveRecordsDictionaryCompress) {
  std::vector<std::string> records;
  for (int i = 0; i < 200; ++i) {
    records.push_back(i % 2 == 0 ? "credit_card" : "cash");
  }
  const RawChunk chunk = Chunk(4, 240, records);
  const std::string bytes = Written(chunk);
  // 200 rows of ~8 bytes each raw; the tokenized mode's dictionary must
  // beat that by a wide margin.
  EXPECT_LT(bytes.size(), 500u);
  EXPECT_EQ(ModeOf(bytes, chunk), kTokens);
  ExpectRoundTrip(chunk);
}

TEST_F(SpillFileCodecTest, TokenizedRecordsCompressSharedVocabulary) {
  // 100 distinct records over a five-word vocabulary: the tokenized mode
  // must win and reproduce every record exactly (single-space joins only).
  const char* const kWords[] = {"ride", "yellow", "green", "manhattan",
                                "brooklyn"};
  std::vector<std::string> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(std::string(kWords[i % 5]) + " " + kWords[i / 5 % 5] +
                      " " + kWords[i / 25]);
  }
  const RawChunk chunk = Chunk(5, 300, records);
  const std::string bytes = Written(chunk);
  EXPECT_LT(bytes.size(), chunk.ByteSize());
  EXPECT_EQ(ModeOf(bytes, chunk), kTokens);
  ExpectRoundTrip(chunk);
}

TEST_F(SpillFileCodecTest, ExtremeIdsAndEventTimesRoundTrip) {
  // The header's zigzag varints must round-trip the whole int64 range.
  const int64_t values[] = {0,
                            1,
                            -1,
                            123456789,
                            -987654321,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  for (const int64_t id : values) {
    for (const int64_t time : values) {
      SCOPED_TRACE(std::to_string(id) + " @ " + std::to_string(time));
      const RawChunk chunk = Chunk(id, time, {"r"});
      const std::string bytes = Written(chunk);
      EXPECT_EQ(bytes.substr(0, Header(id, time, 1).size()),
                Header(id, time, 1));
      ExpectRoundTrip(chunk);
    }
  }
}

// --- Decoder corpus: every payload below carries a valid trailer. ---

const RawChunk& ModeSample(int i) {
  static const RawChunk samples[] = {RawModeChunk(), TokensModeChunk()};
  return samples[i];
}

TEST_F(SpillFileAdversarialTest, EveryTruncationFailsCleanly) {
  for (int m = 0; m < 2; ++m) {
    const RawChunk& chunk = ModeSample(m);
    const std::string payload = Unseal(Written(chunk));
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      SCOPED_TRACE("mode " + std::to_string(m) + " cut at " +
                   std::to_string(cut));
      ExpectCorruptPayload(payload.substr(0, cut), chunk.id);
    }
  }
}

TEST_F(SpillFileAdversarialTest, EmptyInputIsInvalid) {
  // A trailer with nothing before it, the magic alone, and a full header
  // with no mode byte.
  ExpectCorruptPayload("", 1);
  ExpectCorruptPayload("CDSPILL1", 1);
  ExpectCorruptPayload(Header(1, 0, 0), 1);
}

TEST_F(SpillFileAdversarialTest, SingleBitFlipsNeverCrash) {
  // Exhaustive single-bit corruption beneath the checksum.  Most flips are
  // rejected; a flip in a record byte legitimately decodes to different
  // bytes.  The invariant is a clean status either way — no throw, no
  // crash, no out-of-bounds read (ASan-enforced in CI).
  for (int m = 0; m < 2; ++m) {
    const RawChunk& chunk = ModeSample(m);
    const std::string payload = Unseal(Written(chunk));
    for (size_t byte = 0; byte < payload.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = payload;
        mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
        Result<RawChunk> loaded = ReadBytes(Seal(mutated), chunk.id);
        if (loaded.ok()) {
          EXPECT_EQ(loaded->records.size(), chunk.records.size());
        } else {
          EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
              << "mode " << m << " byte " << byte << " bit " << bit;
        }
      }
    }
  }
}

TEST_F(SpillFileAdversarialTest, OverlongVarintIsRejected) {
  const std::string overlong = std::string(11, '\x80') + '\x01';
  // In the chunk id, the record count, and a record length.
  ExpectCorruptPayload("CDSPILL1" + overlong + '\0', 0);
  ExpectCorruptPayload(std::string("CDSPILL1\0\0\x01\x04", 12) + overlong +
                           std::string("\0\0a", 3),
                       0);
  ExpectCorruptPayload(Header(0, 0, 1) + kRaw + overlong + "a", 0);
}

TEST_F(SpillFileAdversarialTest, ImplausibleRowCountIsRejectedBeforeAlloc) {
  // A header claiming ~2^60 records in a few dozen bytes: the decoder must
  // reject on plausibility, not attempt the allocation.
  ExpectCorruptPayload(
      Header(0, 0, uint64_t{1} << 60) + kRaw + std::string("\x01" "a"), 0);
  // One more record than the payload could hold.
  const std::string records = std::string(1, kRaw) + std::string(2, '\0');
  ExpectCorruptPayload(Header(0, 0, records.size() + 1) + records, 0);
}

TEST_F(SpillFileAdversarialTest, ImplausibleDictionarySizeIsRejected) {
  ExpectCorruptPayload(
      Header(0, 0, 1) + kTokens + Varint(uint64_t{1} << 60) + '\0', 0);
}

TEST_F(SpillFileAdversarialTest, DictionaryCodeOutOfRangeIsRejected) {
  // A one-entry token dictionary; a token code points past it.
  const std::string dictionary = std::string("\x01\x01") + "a";
  ExpectCorruptPayload(Header(0, 0, 1) + kTokens + dictionary +
                           std::string("\x02\x00\x05", 3),
                       0);
  ExpectCorruptPayload(
      Header(0, 0, 1) + kTokens + dictionary + '\x01' + Varint(~uint64_t{0}),
      0);
}

TEST_F(SpillFileAdversarialTest, UnknownModeByteIsRejected) {
  for (const char mode : {'\x03', '\x7f', '\xff'}) {
    ExpectCorruptPayload(Header(0, 0, 1) + mode + "\x01" "a", 0);
  }
}

TEST_F(SpillFileAdversarialTest, BadHeaderBytesAreRejected) {
  // Only the fixed one-string-column prefix is a spill file: any other
  // column count, type byte or null flag is corrupt.
  const RawChunk chunk = RawModeChunk();
  const std::string payload = Unseal(Written(chunk));
  const std::string header =
      Header(chunk.id, chunk.event_time_seconds, chunk.records.size());
  // ... 01 04 <one-byte record count> 00
  const size_t flag_at = header.size() - 1;
  const size_t count_at = flag_at - 3;
  ASSERT_EQ(payload.substr(count_at, 2), std::string("\x01\x04", 2));
  ASSERT_EQ(payload[flag_at], '\0');
  for (const char count : {'\x00', '\x02', '\x81'}) {
    std::string mutated = payload;
    mutated[count_at] = count;
    ExpectCorruptPayload(mutated, chunk.id);
  }
  for (const char type : {'\x00', '\x01', '\x02', '\x03', '\x05', '\x7f'}) {
    std::string mutated = payload;
    mutated[count_at + 1] = type;
    ExpectCorruptPayload(mutated, chunk.id);
  }
  for (const char flag : {'\x01', '\x02', '\xff'}) {
    std::string mutated = payload;
    mutated[flag_at] = flag;
    ExpectCorruptPayload(mutated, chunk.id);
  }
}

TEST_F(SpillFileAdversarialTest, TrailingBytesAreRejected) {
  for (int m = 0; m < 2; ++m) {
    const RawChunk& chunk = ModeSample(m);
    ExpectCorruptPayload(Unseal(Written(chunk)) + '\0', chunk.id);
  }
}

TEST_F(SpillFileAdversarialTest, OverflowingRawLengthsAreCorrupt) {
  // Two records of lengths 64 and 2^64 - 60: the lengths sum to 4 modulo
  // 2^64, which eight remaining bytes would cover.  Each length must be
  // checked against what remains, not their wrapped sum.
  ExpectCorruptPayload(
                       Header(0, 0, 2) + kRaw + Varint(64) +
                           Varint(uint64_t{0} - 60) + std::string(8, 'x'),
                       0);
}

}  // namespace
}  // namespace cdpipe
