#include "src/io/checkpoint.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "src/common/string_util.h"
#include "src/io/serialization.h"
#include "src/obs/decision.h"
#include "src/testing/fault_injector.h"

namespace cdpipe {
namespace {
constexpr char kMagic[] = "cdpipe-checkpoint";
constexpr int64_t kVersion = 2;

}  // namespace

Status SaveCheckpoint(const PipelineManager& manager, std::ostream* os) {
  if (os == nullptr) return Status::InvalidArgument("null output stream");
  CDPIPE_FAULT_POINT("checkpoint.save");
  // Serialize into a buffer first so the checksum covers the whole payload.
  std::ostringstream buffer;
  Serializer out(&buffer);
  out.WriteString("magic", kMagic);
  out.WriteInt("version", kVersion);
  out.WriteString("optimizer.kind", manager.optimizer().name());
  CDPIPE_RETURN_NOT_OK(manager.pipeline().SaveState(&out));
  CDPIPE_RETURN_NOT_OK(manager.model().SaveState(&out));
  CDPIPE_RETURN_NOT_OK(manager.optimizer().SaveState(&out));
  if (!out.ok()) return Status::IoError("checkpoint write failed");

  const std::string payload = buffer.str();
  *os << payload;
  // Fnv1a64 of the payload as the final `checksum` line, so any truncation
  // or bit flip in the body is detected before a single byte of deployed
  // state is mutated.
  Serializer trailer(os);
  trailer.WriteInt("checksum", static_cast<int64_t>(Fnv1a64(payload)));
  if (!trailer.ok()) return Status::IoError("checkpoint write failed");
  obs::Record(obs::Decision::kCheckpointSave);
  return Status::OK();
}

Status SaveCheckpointToFile(const PipelineManager& manager,
                            const std::string& path) {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot open for writing: " + path);
  CDPIPE_RETURN_NOT_OK(SaveCheckpoint(manager, &file));
  file.flush();
  if (!file) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Status LoadCheckpoint(std::istream* is, PipelineManager* manager) {
  if (is == nullptr) return Status::InvalidArgument("null input stream");
  if (manager == nullptr) return Status::InvalidArgument("null manager");
  CDPIPE_FAULT_POINT("checkpoint.load");

  // Slurp the stream: the checksum trailer must be verified against the
  // raw payload bytes before anything is parsed.
  std::ostringstream slurp;
  slurp << is->rdbuf();
  std::string contents = slurp.str();
  if (contents.empty()) return Status::InvalidArgument("empty checkpoint");

  // Split off the final non-empty line — the `checksum i <hash>` trailer.
  size_t end = contents.size();
  while (end > 0 && contents[end - 1] == '\n') --end;
  const size_t line_start = contents.rfind('\n', end - 1);
  const size_t payload_size = line_start == std::string::npos ? 0
                                                              : line_start + 1;
  const std::string payload = contents.substr(0, payload_size);
  std::istringstream trailer_stream(
      contents.substr(payload_size, end - payload_size));
  Deserializer trailer(&trailer_stream);
  CDPIPE_ASSIGN_OR_RETURN(int64_t expected, trailer.ReadInt("checksum"));
  if (expected != static_cast<int64_t>(Fnv1a64(payload))) {
    return Status::InvalidArgument(
        "checkpoint checksum mismatch (truncated or corrupt)");
  }

  std::istringstream body(payload);
  Deserializer in(&body);
  CDPIPE_ASSIGN_OR_RETURN(std::string magic, in.ReadString("magic"));
  if (magic != kMagic) {
    return Status::InvalidArgument("not a cdpipe checkpoint");
  }
  CDPIPE_ASSIGN_OR_RETURN(int64_t version, in.ReadInt("version"));
  if (version != kVersion) {
    return Status::Unimplemented("unsupported checkpoint version " +
                                 std::to_string(version));
  }
  CDPIPE_ASSIGN_OR_RETURN(std::string optimizer_kind,
                          in.ReadString("optimizer.kind"));
  if (optimizer_kind != manager->optimizer().name()) {
    return Status::InvalidArgument(
        "checkpoint optimizer '" + optimizer_kind +
        "' does not match deployed optimizer '" +
        manager->optimizer().name() + "'");
  }

  // Deserialize into scratch copies and commit only after every read
  // succeeded — a checkpoint that fails mid-parse leaves the deployed
  // pipeline, model, and optimizer untouched.
  std::unique_ptr<Pipeline> pipeline = manager->pipeline().Clone();
  auto model = std::make_unique<LinearModel>(manager->model());
  std::unique_ptr<Optimizer> optimizer = manager->optimizer().Clone();
  CDPIPE_RETURN_NOT_OK(pipeline->LoadState(&in));
  CDPIPE_RETURN_NOT_OK(model->LoadState(&in));
  CDPIPE_RETURN_NOT_OK(optimizer->LoadState(&in));
  manager->Restore(std::move(pipeline), std::move(model),
                   std::move(optimizer));
  obs::Record(obs::Decision::kCheckpointLoad);
  return Status::OK();
}

Status LoadCheckpointFromFile(const std::string& path,
                              PipelineManager* manager) {
  std::ifstream file(path);
  if (!file) return Status::IoError("cannot open for reading: " + path);
  return LoadCheckpoint(&file, manager);
}

}  // namespace cdpipe
