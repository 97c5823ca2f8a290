#include "core/engine_registry.h"

#include "core/dense_engine.h"
#include "core/linearized_engine.h"
#include "core/sparse_engine.h"
#include "util/string_util.h"

namespace simrankpp {

Result<std::unique_ptr<SimRankEngine>> CreateSimRankEngine(
    std::string_view name, const SimRankOptions& options) {
  SRPP_RETURN_NOT_OK(options.Validate());
  std::unique_ptr<SimRankEngine> engine;
  if (name == "dense") {
    engine = std::make_unique<DenseSimRankEngine>(options);
  } else if (name == "linearized") {
    engine = std::make_unique<LinearizedSimRankEngine>(options);
  } else if (name == "sparse") {
    engine = std::make_unique<SparseSimRankEngine>(options);
  } else {
    return Status::NotFound(StringPrintf(
        "unknown engine \"%.*s\" (registered: dense, linearized, sparse)",
        static_cast<int>(name.size()), name.data()));
  }
  return engine;
}

}  // namespace simrankpp
