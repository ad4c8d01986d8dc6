#ifndef CDPIPE_TESTS_TESTING_KERNEL_TEST_UTIL_H_
#define CDPIPE_TESTS_TESTING_KERNEL_TEST_UTIL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/dataframe/chunk.h"
#include "src/pipeline/fusion/fusion.h"
#include "src/pipeline/input_parser.h"
#include "src/pipeline/vector_assembler.h"

namespace cdpipe {
namespace testing {

/// Drives one borrowed component's block kernels in isolation: a parser in
/// front turns test records into the component's input block, and (for
/// table components that do not vectorize) an assembler behind it exposes
/// the columns of interest as features.  The chain is compiled with
/// fusion::FusedPlan exactly as a Pipeline would compile it, so tests see
/// the production kernels, update and transform.
class KernelHarness {
 public:
  /// An InputParser with `parser` options, then `component` (may be null),
  /// then — when `sink_columns` is non-empty — an assembler over them with
  /// label `label_column`, so a null cell shows up as an absent feature.
  KernelHarness(InputParser::Options parser, PipelineComponent* component,
                std::vector<std::string> sink_columns = {},
                std::string label_column = "label")
      : parser_(std::make_unique<InputParser>(std::move(parser))),
        component_(component) {
    if (!sink_columns.empty()) {
      VectorAssembler::Options assembler;
      assembler.feature_columns = std::move(sink_columns);
      assembler.label_column = std::move(label_column);
      sink_ = std::make_unique<VectorAssembler>(assembler);
    }
  }

  /// Feature-mode front: libsvm records "label idx:val ...", labels kept
  /// raw, indices < `dim`.
  static KernelHarness LibSvm(PipelineComponent* component, uint32_t dim) {
    InputParser::Options parser;
    parser.format = InputParser::Format::kLibSvm;
    parser.feature_dim = dim;
    parser.binarize_labels = false;
    return KernelHarness(parser, component);
  }

  /// Table-mode front: CSV records over `schema`.
  static KernelHarness Csv(std::shared_ptr<const Schema> schema,
                           PipelineComponent* component,
                           std::vector<std::string> sink_columns = {},
                           std::string label_column = "label") {
    InputParser::Options parser;
    parser.format = InputParser::Format::kCsv;
    parser.csv_schema = std::move(schema);
    return KernelHarness(parser, component, std::move(sink_columns),
                         std::move(label_column));
  }

  /// Online path: the component's update kernel, then its transform kernel.
  Result<FeatureData> Update(const std::vector<std::string>& records,
                             size_t* rows_scanned = nullptr) {
    return Run(records, /*update=*/true, rows_scanned);
  }

  /// Pure path: transform kernels only.
  Result<FeatureData> Transform(const std::vector<std::string>& records,
                                size_t* rows_scanned = nullptr) {
    return Run(records, /*update=*/false, rows_scanned);
  }

  InputParser& parser() { return *parser_; }

 private:
  Result<FeatureData> Run(const std::vector<std::string>& records,
                          bool update, size_t* rows_scanned) {
    std::vector<PipelineComponent*> chain = {parser_.get()};
    if (component_ != nullptr) chain.push_back(component_);
    if (sink_ != nullptr) chain.push_back(sink_.get());
    CDPIPE_ASSIGN_OR_RETURN(std::shared_ptr<const fusion::FusedPlan> plan,
                            fusion::FusedPlan::Compile(chain));
    FeatureData out;
    CDPIPE_RETURN_NOT_OK(
        plan->Execute(records, &scratch_, &out, rows_scanned, update));
    return out;
  }

  std::unique_ptr<InputParser> parser_;
  PipelineComponent* component_;
  std::unique_ptr<VectorAssembler> sink_;
  fusion::ExecScratch scratch_;
};

}  // namespace testing
}  // namespace cdpipe

#endif  // CDPIPE_TESTS_TESTING_KERNEL_TEST_UTIL_H_
