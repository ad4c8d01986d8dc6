#include "src/pipeline/input_parser.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <utility>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/pipeline/fusion/fusion.h"

namespace cdpipe {
namespace {

/// Single-pass scan of one well-formed libsvm record ("label idx:val ...").
/// Returns false on anything unusual (tabs, signed indices, malformed
/// tokens) *without* a verdict — the caller re-parses the row with the
/// token path, which owns the accept/reject decision.  For rows both paths
/// accept, the results are bit-identical: the same from_chars conversions
/// see the same character ranges.
bool ScanLibSvmRow(std::string_view line, uint32_t feature_dim,
                   std::vector<std::pair<uint32_t, double>>* entries,
                   double* label) {
  const char* p = line.data();
  const char* const end = p + line.size();
  if (p == end) return false;
  if (*p == '+') ++p;  // "+1" is the canonical positive label
  const auto label_result = std::from_chars(p, end, *label);
  if (label_result.ec != std::errc()) return false;
  p = label_result.ptr;
  while (p != end) {
    if (*p != ' ') return false;
    ++p;
    if (p == end || *p == ' ') continue;  // empty tokens are skipped
    uint32_t index = 0;
    const auto index_result = std::from_chars(p, end, index);
    if (index_result.ec != std::errc() || index_result.ptr == end ||
        *index_result.ptr != ':' || index >= feature_dim) {
      return false;
    }
    p = index_result.ptr + 1;
    double value = 0.0;
    // "nan" markers map to the imputer's quiet NaN exactly like the token
    // path; anything merely starting with those letters falls through to
    // from_chars and, if a suffix remains, to the fallback.
    if (end - p >= 3 && p[0] == 'n' && p[1] == 'a' && p[2] == 'n' &&
        (end - p == 3 || p[3] == ' ')) {
      value = std::numeric_limits<double>::quiet_NaN();
      p += 3;
    } else {
      if (p != end && *p == '+') ++p;  // mirrors ParseDouble
      const auto value_result = std::from_chars(p, end, value);
      if (value_result.ec != std::errc()) return false;
      p = value_result.ptr;
    }
    entries->emplace_back(index, value);
  }
  return true;
}

/// Libsvm parse: raw records straight into the vector block, each row's
/// entries collapsed (sorted, duplicates summed) as SparseVector would.
class LibSvmParseStage final : public fusion::FusedStage {
 public:
  explicit LibSvmParseStage(const InputParser* parser) : parser_(parser) {}

  const char* label() const override { return "parse_libsvm"; }

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::ExecScratch& s = *ctx.scratch;
    fusion::VecBlock& vec = s.vec;
    const uint32_t dim = parser_->options().feature_dim;
    vec.dim = dim;
    vec.entries.clear();
    vec.row_end.clear();
    vec.labels.clear();
    vec.saw_nan = false;
    vec.nan_rows.clear();
    const size_t rows = ctx.raw_rows();
    vec.row_end.reserve(rows);
    vec.labels.reserve(rows);
    ctx.rows_scanned += rows;
    for (size_t r = ctx.begin; r < ctx.end; ++r) {
      const std::string_view line = (*ctx.records)[r];
      double label = 0.0;
      CDPIPE_ASSIGN_OR_RETURN(
          InputParser::RowVerdict verdict,
          parser_->ParseLibSvmRecord(line, &s.row_entries, &label, &s.tokens));
      if (verdict == InputParser::RowVerdict::kMalformed) continue;
      SparseVector::SortAndCombineInto(&s.row_entries);
      // Indices are < dim by the parser contract (both scan and token paths
      // reject out-of-range indices), so the collapsed row appends as one
      // bulk copy; only the NaN sentinel needs a per-entry look.
      for (const auto& [index, value] : s.row_entries) {
        if (std::isnan(value)) {
          vec.saw_nan = true;
          vec.nan_rows.push_back(static_cast<uint32_t>(vec.row_end.size()));
          break;
        }
      }
      vec.entries.insert(vec.entries.end(), s.row_entries.begin(),
                         s.row_entries.end());
      vec.row_end.push_back(static_cast<uint32_t>(vec.entries.size()));
      vec.labels.push_back(label);
    }
    return Status::OK();
  }

 private:
  const InputParser* parser_;
};

/// CSV parse: raw records into block columns (flat typed vectors with byte
/// null masks; string cells borrow the raw records).
class CsvParseStage final : public fusion::FusedStage {
 public:
  explicit CsvParseStage(const InputParser* parser) : parser_(parser) {}

  const char* label() const override { return "parse_csv"; }

  Status Run(fusion::ExecContext& ctx) const override {
    fusion::ExecScratch& s = *ctx.scratch;
    fusion::TableBlock& table = s.table;
    const Schema& schema = *parser_->options().csv_schema;
    const size_t num_fields = schema.num_fields();
    if (table.cols.size() < num_fields) table.cols.resize(num_fields);
    for (size_t i = 0; i < num_fields; ++i) {
      table.cols[i].Reset(schema.field(i).type);
    }
    // Cell scratch is per Run, not per stage: one plan is shared by
    // concurrent shards.
    std::vector<InputParser::CsvCell> cells(num_fields);
    const size_t rows = ctx.raw_rows();
    ctx.rows_scanned += rows;
    size_t appended = 0;
    for (size_t r = ctx.begin; r < ctx.end; ++r) {
      const std::string_view line = (*ctx.records)[r];
      CDPIPE_ASSIGN_OR_RETURN(
          InputParser::RowVerdict verdict,
          parser_->ParseCsvRecord(line, &s.tokens, &cells));
      if (verdict == InputParser::RowVerdict::kMalformed) continue;
      for (size_t i = 0; i < num_fields; ++i) {
        fusion::BlockColumn& col = table.cols[i];
        const InputParser::CsvCell& cell = cells[i];
        col.null.push_back(cell.null ? 1 : 0);
        if (cell.null) col.any_null = true;
        switch (schema.field(i).type) {
          case ValueType::kDouble:
            col.d.push_back(cell.null ? 0.0 : cell.d);
            break;
          case ValueType::kInt64:
          case ValueType::kTimestamp:
            col.i.push_back(cell.null ? 0 : cell.i);
            break;
          case ValueType::kString:
            col.s.push_back(cell.s);
            break;
          case ValueType::kNull:
            break;
        }
      }
      ++appended;
    }
    table.num_rows = appended;
    table.live_rows = appended;
    table.keep.assign(appended, 1);
    return Status::OK();
  }

 private:
  const InputParser* parser_;
};

}  // namespace

InputParser::InputParser(Options options) : options_(std::move(options)) {
  if (options_.format == Format::kLibSvm) {
    CDPIPE_CHECK_GT(options_.feature_dim, 0u);
  } else {
    CDPIPE_CHECK(options_.csv_schema != nullptr);
  }
}

Result<InputParser::RowVerdict> InputParser::ParseLibSvmRecord(
    std::string_view line, std::vector<std::pair<uint32_t, double>>* entries,
    double* label, std::vector<std::string_view>* tokens) const {
  entries->clear();
  if (ScanLibSvmRow(line, options_.feature_dim, entries, label)) {
    if (options_.binarize_labels) *label = *label > 0.0 ? 1.0 : -1.0;
    return RowVerdict::kOk;
  }
  // Fallback for rows the scanner declined: the token path decides whether
  // the record is well-formed or counted as malformed.
  SplitStringInto(line, ' ', tokens);
  entries->clear();
  bool bad = tokens->empty();
  if (!bad) {
    Result<double> parsed_label = ParseDouble((*tokens)[0]);
    if (parsed_label.ok()) {
      *label = *parsed_label;
      if (options_.binarize_labels) *label = *label > 0.0 ? 1.0 : -1.0;
    } else {
      bad = true;
    }
  }
  for (size_t t = 1; !bad && t < tokens->size(); ++t) {
    std::string_view token = StripWhitespace((*tokens)[t]);
    if (token.empty()) continue;
    const size_t colon = token.find(':');
    if (colon == std::string_view::npos) {
      bad = true;
      break;
    }
    Result<int64_t> index = ParseInt64(token.substr(0, colon));
    std::string_view value_text = token.substr(colon + 1);
    double value = 0.0;
    if (value_text == "nan") {
      value = std::numeric_limits<double>::quiet_NaN();
    } else {
      Result<double> parsed = ParseDouble(value_text);
      if (!parsed.ok()) {
        bad = true;
        break;
      }
      value = *parsed;
    }
    if (!index.ok() || *index < 0 ||
        *index >= static_cast<int64_t>(options_.feature_dim)) {
      bad = true;
      break;
    }
    entries->emplace_back(static_cast<uint32_t>(*index), value);
  }
  if (bad) {
    if (options_.strict) {
      return Status::InvalidArgument("malformed libsvm record: '" +
                                     std::string(line) + "'");
    }
    malformed_.fetch_add(1, std::memory_order_relaxed);
    return RowVerdict::kMalformed;
  }
  return RowVerdict::kOk;
}

Result<InputParser::RowVerdict> InputParser::ParseCsvRecord(
    std::string_view line, std::vector<std::string_view>* fields,
    std::vector<CsvCell>* cells) const {
  const Schema& schema = *options_.csv_schema;
  const size_t num_fields = schema.num_fields();
  SplitStringInto(line, options_.delimiter, fields);
  if (fields->size() != num_fields) {
    if (options_.strict) {
      return Status::InvalidArgument(
          "csv record has " + std::to_string(fields->size()) +
          " fields, schema expects " + std::to_string(num_fields));
    }
    malformed_.fetch_add(1, std::memory_order_relaxed);
    return RowVerdict::kMalformed;
  }
  bool bad = false;
  for (size_t i = 0; i < num_fields && !bad; ++i) {
    CsvCell& cell = (*cells)[i];
    cell.null = false;
    const std::string_view text = StripWhitespace((*fields)[i]);
    if (text.empty()) {
      cell.null = true;
      continue;
    }
    switch (schema.field(i).type) {
      case ValueType::kDouble:
        if (!ParseDoubleFast(text, &cell.d)) bad = true;
        break;
      case ValueType::kInt64:
        if (!ParseInt64Fast(text, &cell.i)) bad = true;
        break;
      case ValueType::kTimestamp:
        if (!ParseDateTimeFast(text, &cell.i)) bad = true;
        break;
      case ValueType::kString:
        cell.s = text;
        break;
      case ValueType::kNull:
        cell.null = true;
        break;
    }
  }
  if (bad) {
    if (options_.strict) {
      return Status::InvalidArgument("malformed csv record: '" +
                                     std::string(line) + "'");
    }
    malformed_.fetch_add(1, std::memory_order_relaxed);
    return RowVerdict::kMalformed;
  }
  return RowVerdict::kOk;
}

Status InputParser::Fuse(fusion::PlanBuilder* plan) {
  // The parser reads the raw records themselves, so it must sit at the
  // raw entry and the entry schema must be the single "raw" string column.
  const Schema& entry = plan->entry_schema();
  if (plan->repr() != fusion::PlanBuilder::Repr::kRaw ||
      entry.num_fields() != 1 || entry.field(0).type != ValueType::kString) {
    return Status::FailedPrecondition(
        "input_parser expects raw records (is it the first component?)");
  }
  if (options_.format == Format::kLibSvm) {
    plan->BeginVec(options_.feature_dim);
    plan->AddStage(std::make_unique<LibSvmParseStage>(this));
    return Status::OK();
  }
  CDPIPE_RETURN_NOT_OK(plan->BeginTable(options_.csv_schema));
  plan->AddStage(std::make_unique<CsvParseStage>(this));
  return Status::OK();
}

std::unique_ptr<PipelineComponent> InputParser::Clone() const {
  auto out = std::make_unique<InputParser>(options_);
  out->malformed_.store(malformed_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
  return out;
}

}  // namespace cdpipe
