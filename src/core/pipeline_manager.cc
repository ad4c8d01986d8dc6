#include "src/core/pipeline_manager.h"

#include <utility>

#include "src/common/logging.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {

PipelineManager::PipelineManager(std::unique_ptr<Pipeline> pipeline,
                                 std::unique_ptr<LinearModel> model,
                                 std::unique_ptr<Optimizer> optimizer,
                                 CostModel* cost, Options options)
    : pipeline_(std::move(pipeline)),
      model_(std::move(model)),
      optimizer_(std::move(optimizer)),
      cost_(cost),
      options_(options) {
  CDPIPE_CHECK(pipeline_ != nullptr);
  CDPIPE_CHECK(model_ != nullptr);
  CDPIPE_CHECK(optimizer_ != nullptr);
  CDPIPE_CHECK(cost_ != nullptr);
}

Result<FeatureChunk> PipelineManager::OnlineStep(
    const RawChunk& chunk, PrequentialEvaluator* evaluator) {
  CDPIPE_ASSIGN_OR_RETURN(FeatureChunk out, PreprocessChunk(chunk));
  if (evaluator != nullptr) {
    EvaluateFeatures(out.data, evaluator);
  }
  CDPIPE_RETURN_NOT_OK(OnlineUpdate(out.data));
  return out;
}

Result<FeatureChunk> PipelineManager::PreprocessChunk(const RawChunk& chunk) {
  // Online statistics computation + transform.
  FeatureData features;
  {
    CostModel::ScopedTimer timer(cost_, CostPhase::kPreprocessing,
                                 "pipeline.preprocess");
    size_t rows_scanned = 0;
    // The online path always folds statistics in — the NoOptimization
    // baseline (§5.4) differs on the *reuse* side: Rematerialize below
    // rescans sampled chunks to rebuild statistics instead of reading the
    // ones maintained here.
    CDPIPE_ASSIGN_OR_RETURN(
        features, pipeline_->UpdateAndTransform(chunk, &rows_scanned));
    cost_->AddWork(CostPhase::kPreprocessing,
                   static_cast<int64_t>(rows_scanned));
  }
  FeatureChunk out;
  out.origin_id = chunk.id;
  out.event_time_seconds = chunk.event_time_seconds;
  out.data = std::move(features);
  return out;
}

void PipelineManager::EvaluateFeatures(const FeatureData& features,
                                       PrequentialEvaluator* evaluator) {
  if (evaluator == nullptr) return;
  // Prequential evaluation with the pre-update model.
  CostModel::ScopedTimer timer(cost_, CostPhase::kPrediction, "ml.evaluate");
  for (size_t r = 0; r < features.num_rows(); ++r) {
    evaluator->Observe(model_->Predict(features.features[r]),
                       features.labels[r]);
  }
  cost_->AddWork(CostPhase::kPrediction,
                 static_cast<int64_t>(features.num_rows()));
}

Status PipelineManager::OnlineUpdate(const FeatureData& features) {
  // Online learning: one SGD update over the chunk.
  if (features.num_rows() == 0) return Status::OK();
  CostModel::ScopedTimer timer(cost_, CostPhase::kOnlineTraining,
                               "ml.online_update");
  model_->EnsureDim(features.dim);
  CDPIPE_RETURN_NOT_OK(model_->Update(features, optimizer_.get()));
  cost_->AddWork(CostPhase::kOnlineTraining,
                 static_cast<int64_t>(features.num_rows()));
  return Status::OK();
}

uint64_t PipelineManager::PublishSnapshot() {
  if (publisher_ == nullptr) return 0;
  return publisher_->PublishFrom(*pipeline_, *model_);
}

Result<FeatureChunk> PipelineManager::Rematerialize(
    const RawChunk& chunk) const {
  CostModel::ScopedTimer timer(cost_, CostPhase::kMaterialization,
                               "pipeline.rematerialize_chunk");
  CDPIPE_FAULT_POINT("pipeline.rematerialize");
  size_t rows_scanned = 0;
  Result<FeatureData> features =
      options_.online_statistics
          ? pipeline_->Transform(chunk, &rows_scanned)
          : pipeline_->TransformRecomputingStatistics(chunk, &rows_scanned);
  cost_->AddWork(CostPhase::kMaterialization,
                 static_cast<int64_t>(rows_scanned));
  if (!features.ok()) return features.status();
  FeatureChunk out;
  out.origin_id = chunk.id;
  out.event_time_seconds = chunk.event_time_seconds;
  out.data = std::move(features).value();
  return out;
}

Result<FeatureData> PipelineManager::TransformForInference(
    const RawChunk& queries) const {
  CostModel::ScopedTimer timer(cost_, CostPhase::kPrediction);
  size_t rows_scanned = 0;
  CDPIPE_ASSIGN_OR_RETURN(FeatureData features,
                          pipeline_->Transform(queries, &rows_scanned));
  cost_->AddWork(CostPhase::kPrediction, static_cast<int64_t>(rows_scanned));
  return features;
}

Status PipelineManager::TrainStep(const BatchView& batch, CostPhase phase,
                                  ExecutionEngine* engine) {
  CostModel::ScopedTimer timer(cost_, phase, "ml.train_step");
  model_->EnsureDim(batch.dim());
  CDPIPE_RETURN_NOT_OK(model_->Update(batch, optimizer_.get(), engine));
  cost_->AddWork(phase, static_cast<int64_t>(batch.num_rows()));
  return Status::OK();
}

void PipelineManager::Redeploy(std::unique_ptr<LinearModel> model,
                               std::unique_ptr<Optimizer> optimizer) {
  CDPIPE_CHECK(model != nullptr);
  CDPIPE_CHECK(optimizer != nullptr);
  model_ = std::move(model);
  optimizer_ = std::move(optimizer);
  PublishSnapshot();
}

void PipelineManager::Restore(std::unique_ptr<Pipeline> pipeline,
                              std::unique_ptr<LinearModel> model,
                              std::unique_ptr<Optimizer> optimizer) {
  CDPIPE_CHECK(pipeline != nullptr);
  CDPIPE_CHECK(model != nullptr);
  CDPIPE_CHECK(optimizer != nullptr);
  pipeline_ = std::move(pipeline);
  model_ = std::move(model);
  optimizer_ = std::move(optimizer);
  PublishSnapshot();
}

}  // namespace cdpipe
