// Pins the bits of every optimizer kind: one case per kind runs a seeded
// sparse gradient sequence over a growing dimension, then continues a clone,
// a save/load round trip and a reset, and compares the Fnv1a64 of everything
// serialized on the way (optimizer state, weights and bias) with a constant.
// Each step touches a few random coordinates, so most coordinates sit
// untouched for several steps and momentum's lazy catch-up runs.  The
// expected values were generated with the five Optimizer subclasses that
// preceded the single rule-per-kind class.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/string_util.h"
#include "src/io/serialization.h"
#include "src/ml/optimizer.h"

namespace cdpipe {
namespace {

/// Applies `steps` seeded sparse steps.  Every fourth step on average the
/// dimension grows by one to three coordinates; each step touches one to
/// six of them.
void RunSteps(Optimizer* optimizer, Rng* rng, int steps, DenseVector* weights,
              double* bias) {
  for (int s = 0; s < steps; ++s) {
    if (rng->NextBounded(4) == 0) {
      weights->Resize(weights->dim() + 1 + rng->NextBounded(3));
    }
    const size_t nnz =
        1 + rng->NextBounded(std::min<size_t>(weights->dim(), 6));
    std::vector<GradEntry> grad;
    for (size_t i : rng->SampleWithoutReplacement(weights->dim(), nnz)) {
      grad.push_back(GradEntry{static_cast<uint32_t>(i), rng->NextGaussian()});
    }
    optimizer->Step(grad, rng->NextGaussian(), weights, bias);
  }
}

std::string SavedState(const Optimizer& optimizer) {
  std::ostringstream out;
  Serializer serializer(&out);
  EXPECT_TRUE(optimizer.SaveState(&serializer).ok());
  return out.str();
}

/// The optimizer's saved state followed by the weights and the bias.
std::string Snapshot(const Optimizer& optimizer, const DenseVector& weights,
                     double bias) {
  std::ostringstream out;
  Serializer serializer(&out);
  serializer.WriteDoubleVector(
      "weights",
      std::vector<double>(weights.data(), weights.data() + weights.dim()));
  serializer.WriteDouble("bias", bias);
  return SavedState(optimizer) + out.str();
}

/// 200 steps; 50 more on a clone (the original must not move); a save/load
/// round trip of the clone, then 20 steps on both (they must agree); a
/// reset of the loaded copy and 20 steps from cold.  Returns every
/// snapshot taken on the way, concatenated.
std::string Trajectory(OptimizerKind kind) {
  const OptimizerOptions options{
      .kind = kind, .learning_rate = 0.05, .rho = 0.9};
  Rng rng(2026);
  DenseVector weights(4);
  double bias = 0.0;
  auto original = MakeOptimizer(options);
  RunSteps(original.get(), &rng, 200, &weights, &bias);
  std::string bits = Snapshot(*original, weights, bias);
  const std::string original_state = SavedState(*original);

  auto clone = original->Clone();
  RunSteps(clone.get(), &rng, 50, &weights, &bias);
  EXPECT_EQ(clone->step_count(), 250);
  EXPECT_EQ(SavedState(*original), original_state);
  bits += Snapshot(*clone, weights, bias);

  const std::string saved = SavedState(*clone);
  auto loaded = MakeOptimizer(options);
  std::istringstream in(saved);
  Deserializer deserializer(&in);
  EXPECT_TRUE(loaded->LoadState(&deserializer).ok());
  EXPECT_EQ(SavedState(*loaded), saved);
  DenseVector loaded_weights = weights;
  double loaded_bias = bias;
  Rng loaded_rng = rng;
  RunSteps(clone.get(), &rng, 20, &weights, &bias);
  RunSteps(loaded.get(), &loaded_rng, 20, &loaded_weights, &loaded_bias);
  const std::string continued = Snapshot(*clone, weights, bias);
  EXPECT_EQ(Snapshot(*loaded, loaded_weights, loaded_bias), continued);
  bits += continued;

  loaded->Reset();
  EXPECT_EQ(loaded->step_count(), 0);
  RunSteps(loaded.get(), &rng, 20, &loaded_weights, &loaded_bias);
  bits += Snapshot(*loaded, loaded_weights, loaded_bias);
  return bits;
}

TEST(OptimizerStateGoldenTest, Sgd) {
  EXPECT_EQ(Fnv1a64(Trajectory(OptimizerKind::kSgd)), 268490197942105107u);
}

TEST(OptimizerStateGoldenTest, Momentum) {
  EXPECT_EQ(Fnv1a64(Trajectory(OptimizerKind::kMomentum)),
            2528158547729718770u);
}

TEST(OptimizerStateGoldenTest, Adam) {
  EXPECT_EQ(Fnv1a64(Trajectory(OptimizerKind::kAdam)), 2443749701188373530u);
}

TEST(OptimizerStateGoldenTest, Rmsprop) {
  EXPECT_EQ(Fnv1a64(Trajectory(OptimizerKind::kRmsprop)), 9954331093169925031u);
}

TEST(OptimizerStateGoldenTest, Adadelta) {
  EXPECT_EQ(Fnv1a64(Trajectory(OptimizerKind::kAdadelta)),
            18285813012325698598u);
}

}  // namespace
}  // namespace cdpipe
