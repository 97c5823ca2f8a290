/// @file engine_registry.h
/// @brief Name-based construction of the built-in SimRank engines.
///
/// Every API boundary that picks an engine (the CLI's --engine, the
/// manifest's engine key, the experiment runner, RewriteServiceBuilder)
/// selects by name through CreateSimRankEngine: "dense" (the exact
/// reference), "sparse" (threshold-pruned, the default) or "linearized"
/// (single-source rows for on-demand serving).
#ifndef SIMRANKPP_CORE_ENGINE_REGISTRY_H_
#define SIMRANKPP_CORE_ENGINE_REGISTRY_H_

#include <memory>
#include <string_view>

#include "core/simrank_engine.h"

namespace simrankpp {

/// \brief Instantiates the engine named `name` after validating
/// `options`. NotFound (listing every engine name) for an unknown
/// engine; InvalidArgument for invalid options. Thread-safe.
Result<std::unique_ptr<SimRankEngine>> CreateSimRankEngine(
    std::string_view name, const SimRankOptions& options);

}  // namespace simrankpp

#endif  // SIMRANKPP_CORE_ENGINE_REGISTRY_H_
