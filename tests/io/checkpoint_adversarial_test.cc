// Adversarial checkpoint inputs: truncated files, flipped bytes, empty
// files.  Every one must produce a clean Status error — no crash — and must
// leave the deployed pipeline/model/optimizer completely untouched (loads
// are atomic: deserialize into scratch copies, commit only on full success).

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "src/data/url_stream.h"
#include "src/io/checkpoint.h"

namespace cdpipe {
namespace {

UrlPipelineConfig PipeConfig() {
  UrlPipelineConfig config;
  config.raw_dim = 1000;
  config.hash_bits = 7;
  return config;
}

std::unique_ptr<PipelineManager> MakeManager(CostModel* cost) {
  const UrlPipelineConfig config = PipeConfig();
  return std::make_unique<PipelineManager>(
      MakeUrlPipeline(config),
      std::make_unique<LinearModel>(MakeUrlModelOptions(config)),
      MakeOptimizer(
          OptimizerOptions{.kind = OptimizerKind::kAdam, .learning_rate = 0.05}),
      cost);
}

RawChunk MakeChunk(ChunkId id, uint64_t seed) {
  UrlStreamGenerator::Config config;
  config.feature_dim = 1000;
  config.initial_active_features = 100;
  config.nnz_per_record = 6;
  config.records_per_chunk = 20;
  config.seed = seed;
  UrlStreamGenerator generator(config);
  RawChunk chunk = generator.NextChunk();
  chunk.id = id;
  return chunk;
}

/// Fixture with a trained "writer" manager, its serialized checkpoint, and
/// a trained "reader" whose pre-load state is fingerprinted so corruption
/// tests can assert it never changed.
class CheckpointAdversarialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    writer_ = MakeManager(&writer_cost_);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(writer_->OnlineStep(MakeChunk(i, 20 + i), nullptr).ok());
    }
    std::ostringstream buffer;
    ASSERT_TRUE(SaveCheckpoint(*writer_, &buffer).ok());
    checkpoint_ = buffer.str();

    reader_ = MakeManager(&reader_cost_);
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(reader_->OnlineStep(MakeChunk(i, 50 + i), nullptr).ok());
    }
    reader_weights_before_ = reader_->model().weights().values();
    reader_steps_before_ = reader_->optimizer().step_count();
  }

  /// Attempts a load of `bytes` and asserts it fails cleanly with the
  /// reader's state bit-identical to before.
  void ExpectRejectedWithoutStateChange(const std::string& bytes,
                                        const std::string& label) {
    std::istringstream input(bytes);
    const Status status = LoadCheckpoint(&input, reader_.get());
    EXPECT_FALSE(status.ok()) << label << ": corrupt input accepted";
    EXPECT_EQ(reader_->model().weights().values(), reader_weights_before_)
        << label << ": model mutated by failed load";
    EXPECT_EQ(reader_->optimizer().step_count(), reader_steps_before_)
        << label << ": optimizer mutated by failed load";
  }

  CostModel writer_cost_, reader_cost_;
  std::unique_ptr<PipelineManager> writer_, reader_;
  std::string checkpoint_;
  std::vector<double> reader_weights_before_;
  int64_t reader_steps_before_ = 0;
};

TEST_F(CheckpointAdversarialTest, IntactCheckpointStillLoads) {
  std::istringstream input(checkpoint_);
  const Status status = LoadCheckpoint(&input, reader_.get());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reader_->model().weights().values(),
            writer_->model().weights().values());
}

TEST_F(CheckpointAdversarialTest, EmptyFileRejected) {
  ExpectRejectedWithoutStateChange("", "empty");
}

TEST_F(CheckpointAdversarialTest, WhitespaceOnlyRejected) {
  ExpectRejectedWithoutStateChange("\n\n\n", "whitespace");
}

TEST_F(CheckpointAdversarialTest, TruncationAtEveryQuarterRejected) {
  for (const double fraction : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const size_t keep =
        static_cast<size_t>(static_cast<double>(checkpoint_.size()) * fraction);
    ExpectRejectedWithoutStateChange(
        checkpoint_.substr(0, keep),
        "truncated to " + std::to_string(keep) + " bytes");
  }
}

TEST_F(CheckpointAdversarialTest, MissingChecksumTrailerRejected) {
  const size_t trailer = checkpoint_.rfind("checksum ");
  ASSERT_NE(trailer, std::string::npos);
  ExpectRejectedWithoutStateChange(checkpoint_.substr(0, trailer),
                                   "trailer stripped");
}

TEST_F(CheckpointAdversarialTest, FlippedByteAnywhereRejected) {
  // Flip a byte at several positions across the payload.  The checksum
  // verification makes every flip detectable, including flips inside
  // hexfloat weight values that would otherwise parse fine.
  for (const double fraction : {0.05, 0.3, 0.55, 0.8, 0.95}) {
    const size_t pos =
        static_cast<size_t>(static_cast<double>(checkpoint_.size()) * fraction);
    std::string corrupt = checkpoint_;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    ExpectRejectedWithoutStateChange(
        corrupt, "byte flipped at offset " + std::to_string(pos));
  }
}

TEST_F(CheckpointAdversarialTest, ChecksumMentionedInError) {
  std::string corrupt = checkpoint_;
  corrupt[corrupt.size() / 2] ^= 0x01;
  std::istringstream input(corrupt);
  const Status status = LoadCheckpoint(&input, reader_.get());
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("checksum"), std::string::npos);
}

TEST_F(CheckpointAdversarialTest, WrongMagicRejected) {
  std::string corrupt = checkpoint_;
  corrupt.replace(0, 5, "bogus");
  ExpectRejectedWithoutStateChange(corrupt, "wrong magic");
}

TEST_F(CheckpointAdversarialTest, GarbageBodyWithValidShapeRejected) {
  ExpectRejectedWithoutStateChange(
      "magic s 17 cdpipe-checkpoint\nversion i 2\ngarbage follows\n",
      "garbage body");
}

TEST_F(CheckpointAdversarialTest, ReaderRecoversAfterRejectedLoad) {
  // A failed load must not poison the manager: the intact checkpoint still
  // loads afterwards.
  std::string corrupt = checkpoint_;
  corrupt[corrupt.size() / 3] ^= 0x40;
  ExpectRejectedWithoutStateChange(corrupt, "pre-recovery flip");

  std::istringstream input(checkpoint_);
  const Status status = LoadCheckpoint(&input, reader_.get());
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(reader_->model().weights().values(),
            writer_->model().weights().values());
}

}  // namespace
}  // namespace cdpipe
