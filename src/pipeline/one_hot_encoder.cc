#include "src/pipeline/one_hot_encoder.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {

namespace {

/// Vectorizing transform kernel.  Column slots are compile-resolved;
/// dictionary lookups happen per cell through the encoder.  Per row the
/// emit order is numeric columns in configured order then one categorical
/// entry per block, which is strictly ascending, so rows need no sort.
class OneHotVecStage final : public fusion::FusedStage {
 public:
  struct CatSlot {
    size_t slot;
    size_t cat_index;  ///< position within the encoder's categorical columns
    uint32_t block_offset;
    const std::string* name;
  };

  OneHotVecStage(const OneHotEncoder* encoder, std::vector<size_t> numeric,
                 std::vector<CatSlot> cats, size_t label_slot,
                 std::string label_column, uint32_t dim)
      : encoder_(encoder),
        numeric_(std::move(numeric)),
        cats_(std::move(cats)),
        label_slot_(label_slot),
        label_column_(std::move(label_column)),
        dim_(dim) {}

  const char* label() const override { return "one_hot_encoder"; }

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::TableBlock& table = ctx.scratch->table;
    fusion::VecBlock& vec = ctx.scratch->vec;
    ctx.rows_scanned += table.live_rows;
    vec.dim = dim_;
    vec.entries.clear();
    vec.row_end.clear();
    vec.labels.clear();
    vec.saw_nan = false;
    vec.nan_rows.clear();
    const fusion::BlockColumn& label_col = table.cols[label_slot_];
    for (size_t r = 0; r < table.num_rows; ++r) {
      if (table.keep[r] == 0) continue;
      if (label_col.IsNull(r)) {
        return Status::FailedPrecondition("cannot widen null to double: " +
                                          label_column_);
      }
      bool row_has_nan = false;
      for (size_t i = 0; i < numeric_.size(); ++i) {
        const fusion::BlockColumn& col = table.cols[numeric_[i]];
        if (col.IsNull(r)) continue;  // treated as 0 (impute upstream)
        const double d = col.NumericAt(r);
        if (d != 0.0) {
          vec.entries.emplace_back(static_cast<uint32_t>(i), d);
          if (std::isnan(d)) row_has_nan = true;
        }
      }
      for (const CatSlot& cat : cats_) {
        const fusion::BlockColumn& col = table.cols[cat.slot];
        if (col.IsNull(r)) continue;
        if (col.type != ValueType::kString) {
          return Status::FailedPrecondition("categorical column " + *cat.name +
                                            " must be a string column");
        }
        vec.entries.emplace_back(
            cat.block_offset + encoder_->SlotOf(cat.cat_index, col.s[r]), 1.0);
      }
      if (row_has_nan) {
        vec.saw_nan = true;
        vec.nan_rows.push_back(static_cast<uint32_t>(vec.row_end.size()));
      }
      vec.row_end.push_back(static_cast<uint32_t>(vec.entries.size()));
      vec.labels.push_back(label_col.NumericAt(r));
    }
    return Status::OK();
  }

 private:
  const OneHotEncoder* encoder_;
  std::vector<size_t> numeric_;
  std::vector<CatSlot> cats_;
  size_t label_slot_;
  std::string label_column_;
  uint32_t dim_;
};

}  // namespace

OneHotEncoder::OneHotEncoder(Options options) : options_(std::move(options)) {
  CDPIPE_CHECK(!options_.label_column.empty());
  uint32_t offset = static_cast<uint32_t>(options_.numeric_columns.size());
  for (const CategoricalColumn& col : options_.categorical_columns) {
    CDPIPE_CHECK_GT(col.max_cardinality, 0u);
    block_offsets_.push_back(offset);
    offset += col.max_cardinality;
  }
  output_dim_ = offset;
  dictionaries_.resize(options_.categorical_columns.size());
}

uint32_t OneHotEncoder::SlotOf(size_t c, std::string_view value) const {
  const auto& dict = dictionaries_[c];
  auto it = dict.find(value);
  if (it != dict.end()) return it->second;
  // Unknown value (dictionary full or value never folded in): hash into the
  // block so the category still contributes a stable feature.
  const uint32_t capacity = options_.categorical_columns[c].max_cardinality;
  return static_cast<uint32_t>(std::hash<std::string_view>{}(value) % capacity);
}

Status OneHotEncoder::Fuse(fusion::PlanBuilder* plan) {
  if (plan->repr() != fusion::PlanBuilder::Repr::kTable) {
    return Status::FailedPrecondition("one_hot_encoder expects a table batch");
  }
  std::vector<size_t> numeric;
  numeric.reserve(options_.numeric_columns.size());
  for (const std::string& column : options_.numeric_columns) {
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(column));
    if (plan->SlotDeclaredType(slot) == ValueType::kString) {
      return Status::FailedPrecondition("cannot encode non-numeric column " +
                                        column);
    }
    numeric.push_back(slot);
  }
  std::vector<OneHotVecStage::CatSlot> cats;
  cats.reserve(options_.categorical_columns.size());
  for (size_t c = 0; c < options_.categorical_columns.size(); ++c) {
    const CategoricalColumn& col = options_.categorical_columns[c];
    CDPIPE_ASSIGN_OR_RETURN(size_t slot, plan->SlotOf(col.name));
    cats.push_back(
        OneHotVecStage::CatSlot{slot, c, block_offsets_[c], &col.name});
  }
  CDPIPE_ASSIGN_OR_RETURN(size_t label_slot,
                          plan->SlotOf(options_.label_column));
  if (plan->SlotDeclaredType(label_slot) == ValueType::kString) {
    return Status::FailedPrecondition("cannot encode non-numeric column " +
                                      options_.label_column);
  }
  std::vector<size_t> cat_slots;
  for (const OneHotVecStage::CatSlot& cat : cats) cat_slots.push_back(cat.slot);
  plan->AddUpdateStage(fusion::MakeStage(
      "one_hot_encoder.update", [this, cat_slots](fusion::ExecContext& ctx) {
        const fusion::TableBlock& table = ctx.scratch->table;
        ctx.rows_scanned += table.live_rows;
        for (size_t c = 0; c < cat_slots.size(); ++c) {
          const CategoricalColumn& spec = options_.categorical_columns[c];
          const fusion::BlockColumn& col = table.cols[cat_slots[c]];
          Dictionary& dict = dictionaries_[c];
          for (size_t r = 0; r < table.num_rows; ++r) {
            if (table.keep[r] == 0 || col.IsNull(r)) continue;
            if (col.type != ValueType::kString) {
              return Status::FailedPrecondition(
                  "categorical column " + spec.name +
                  " must be a string column");
            }
            if (dict.size() < spec.max_cardinality &&
                dict.find(col.s[r]) == dict.end()) {
              dict.emplace(std::string(col.s[r]),
                           static_cast<uint32_t>(dict.size()));
            }
          }
        }
        return Status::OK();
      }));
  plan->AddStage(std::make_unique<OneHotVecStage>(
      this, std::move(numeric), std::move(cats), label_slot,
      options_.label_column, output_dim_));
  plan->BeginVec(output_dim_);
  return Status::OK();
}

void OneHotEncoder::Reset() {
  for (auto& dict : dictionaries_) dict.clear();
}

std::unique_ptr<PipelineComponent> OneHotEncoder::Clone() const {
  auto out = std::make_unique<OneHotEncoder>(options_);
  out->dictionaries_ = dictionaries_;
  return out;
}

Status OneHotEncoder::SaveState(Serializer* out) const {
  out->WriteInt("onehot.num_columns",
                static_cast<int64_t>(dictionaries_.size()));
  for (size_t c = 0; c < dictionaries_.size(); ++c) {
    // Deterministic order: by assigned slot.
    std::vector<std::pair<std::string, uint32_t>> sorted(
        dictionaries_[c].begin(), dictionaries_[c].end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second < b.second;
    });
    out->WriteInt("onehot.dict_size", static_cast<int64_t>(sorted.size()));
    for (const auto& [value, slot] : sorted) {
      out->WriteString("onehot.value", value);
      out->WriteInt("onehot.slot", slot);
    }
  }
  return Status::OK();
}

Status OneHotEncoder::LoadState(Deserializer* in) {
  CDPIPE_ASSIGN_OR_RETURN(int64_t num_columns,
                          in->ReadInt("onehot.num_columns"));
  if (num_columns != static_cast<int64_t>(dictionaries_.size())) {
    return Status::InvalidArgument(
        "one-hot checkpoint has a different number of categorical columns");
  }
  // Slots index into the fixed-size one-hot block, so a restored dictionary
  // must be a permutation of [0, size) with size within capacity; anything
  // else would emit feature indices outside the column's block.
  std::vector<Dictionary> dictionaries(dictionaries_.size());
  for (size_t c = 0; c < dictionaries.size(); ++c) {
    const CategoricalColumn& spec = options_.categorical_columns[c];
    CDPIPE_ASSIGN_OR_RETURN(int64_t size, in->ReadInt("onehot.dict_size"));
    if (size < 0 || size > static_cast<int64_t>(spec.max_cardinality)) {
      return Status::InvalidArgument(StrFormat(
          "one-hot dictionary for %s has %lld entries, capacity is %u",
          spec.name.c_str(), static_cast<long long>(size),
          spec.max_cardinality));
    }
    std::vector<uint8_t> used(static_cast<size_t>(size), 0);
    for (int64_t i = 0; i < size; ++i) {
      CDPIPE_ASSIGN_OR_RETURN(std::string value,
                              in->ReadString("onehot.value"));
      CDPIPE_ASSIGN_OR_RETURN(int64_t slot, in->ReadInt("onehot.slot"));
      if (slot < 0 || slot >= size) {
        return Status::InvalidArgument(StrFormat(
            "one-hot slot %lld for %s is outside [0, %lld)",
            static_cast<long long>(slot), spec.name.c_str(),
            static_cast<long long>(size)));
      }
      if (used[static_cast<size_t>(slot)] != 0 ||
          !dictionaries[c]
               .emplace(std::move(value), static_cast<uint32_t>(slot))
               .second) {
        return Status::InvalidArgument(
            "one-hot dictionary for " + spec.name +
            " repeats a slot or a value");
      }
      used[static_cast<size_t>(slot)] = 1;
    }
  }
  dictionaries_ = std::move(dictionaries);
  return Status::OK();
}

std::string OneHotEncoder::DescribeState() const {
  std::string out = "dictionaries:";
  for (size_t c = 0; c < dictionaries_.size(); ++c) {
    out += StrFormat(" %s=%zu/%u", options_.categorical_columns[c].name.c_str(),
                     dictionaries_[c].size(),
                     options_.categorical_columns[c].max_cardinality);
  }
  return out;
}

}  // namespace cdpipe
