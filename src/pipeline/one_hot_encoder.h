#ifndef CDPIPE_PIPELINE_ONE_HOT_ENCODER_H_
#define CDPIPE_PIPELINE_ONE_HOT_ENCODER_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/pipeline/component.h"

namespace cdpipe {

/// Vectorizing encoder: converts a table batch into sparse feature vectors
/// made of the configured numeric columns followed by one-hot blocks for the
/// configured categorical columns.
///
/// The per-column dictionary (value → index) is the incrementally
/// maintainable hash-table statistic the paper names in §3.1.  Each block
/// has a fixed capacity so feature indices are stable over the lifetime of
/// the deployment; once a dictionary is full, unseen values fall back to a
/// hashed slot within the block (so late-arriving categories still carry
/// signal instead of being dropped).
///
/// Output is sparse: each row has |numeric| + |categorical| non-zeros, which
/// is what keeps one-hot encoding O(p) instead of O(p²) (§3.2.1).
///
/// Feature extraction (Table 1).
class OneHotEncoder : public PipelineComponent {
 public:
  struct CategoricalColumn {
    std::string name;
    /// Capacity of this column's one-hot block.
    uint32_t max_cardinality = 1024;
  };

  struct Options {
    std::vector<std::string> numeric_columns;
    std::vector<CategoricalColumn> categorical_columns;
    std::string label_column;
  };

  explicit OneHotEncoder(Options options);

  std::string name() const override { return "one_hot_encoder"; }
  bool is_stateful() const override { return true; }

  Status Fuse(fusion::PlanBuilder* plan) override;
  void Reset() override;
  std::unique_ptr<PipelineComponent> Clone() const override;
  Status SaveState(Serializer* out) const override;
  Status LoadState(Deserializer* in) override;

  /// Total output dimension: numeric columns + sum of block capacities.
  uint32_t output_dim() const { return output_dim_; }
  /// Number of distinct values currently in column c's dictionary.
  size_t CardinalityOf(size_t c) const { return dictionaries_[c].size(); }

  /// Index of `value` within column c's block: dictionary slot when known,
  /// hashed slot when the value is unknown or the dictionary is full.
  uint32_t SlotOf(size_t c, std::string_view value) const;

  const Options& options() const { return options_; }

 private:
  /// Transparent hash so arena-backed `string_view` cells can probe the
  /// dictionaries without materializing a std::string per lookup.
  /// std::hash<string_view> and std::hash<string> agree on equal bytes, so
  /// the hashed-slot fallback is unchanged from the std::string days.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view v) const {
      return std::hash<std::string_view>{}(v);
    }
  };
  using Dictionary =
      std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>;

  Options options_;
  uint32_t output_dim_ = 0;
  std::vector<uint32_t> block_offsets_;
  std::vector<Dictionary> dictionaries_;
};

}  // namespace cdpipe

#endif  // CDPIPE_PIPELINE_ONE_HOT_ENCODER_H_
