// simrankpp command-line tool.
//
//   simrankpp generate --queries N --ads M --seed S --out graph.tsv
//       Generate a synthetic click graph and write it as TSV.
//   simrankpp stats <graph.tsv>
//       Print structural statistics (Table-5 style).
//   simrankpp similar <graph.tsv> --query TEXT [--method M] [--top K]
//       Print the K most similar queries under a method
//       (simrank | evidence | weighted | pearson).
//   simrankpp rewrite <graph.tsv> --query TEXT [--method M]
//       Run the full rewrite pipeline (no bid filter from the CLI).
//   simrankpp compute <graph.tsv> --snapshot-out F [--method M] [--engine E]
//       Offline half of the serving split: compute similarities and write
//       a binary snapshot (docs/SNAPSHOT_FORMAT.md). --side ad exports
//       the ad-ad scores instead of query-query.
//   simrankpp snapshot-info <snapshot>
//       Validate a snapshot (magic, version, checksum) and print its
//       header, side tag, and matrix dimensions.
//   simrankpp serve-eval <graph.tsv> --snapshot-in F [--query TEXT] [--top K]
//       Serving half: load a snapshot into a RewriteService and either
//       answer one query or batch-serve every graph query and report
//       coverage.
//   simrankpp manifest-info <manifest>
//       Validate a serving manifest (docs/MANIFEST_FORMAT.md) and every
//       snapshot it references; print one line per tenant.
//   simrankpp serve-multi --manifest M --queries Q.tsv [--top K] [--out F]
//       Multi-tenant serving: load every tenant in the manifest, answer a
//       batch of "tenant<TAB>query" lines as TSV rows, print per-tenant
//       ServeStats to stderr. --reload TENANT forces a hot reload before
//       serving; --poll runs one PollForChanges watcher pass first.
//   simrankpp serve-daemon --manifest M [--host H] [--port P] ...
//       Persistent network front door: serve every manifest tenant over
//       the length-prefixed binary protocol (docs/DAEMON_PROTOCOL.md)
//       with per-tenant admission control, TopK micro-batching, and a
//       hot-reload watcher. SIGTERM/SIGINT drain gracefully (exit 0).
//   simrankpp extract <graph.tsv> [--subgraphs N] [--out-prefix P]
//       Carve disjoint subgraphs via local partitioning; write P1.tsv...
#include "cli.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine_registry.h"
#include "core/pearson.h"
#include "core/snapshot.h"
#include "graph/graph_io.h"
#include "graph/graph_stats.h"
#include "partition/subgraph_extractor.h"
#include "rewrite/rewrite_service.h"
#include "serve/daemon.h"
#include "serve/manifest.h"
#include "serve/snapshot_store.h"
#include "serve/tenant_registry.h"
#include "synth/click_graph_generator.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace simrankpp {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  simrankpp generate [--queries N] [--ads M] [--seed S] --out F\n"
      "  simrankpp stats <graph.tsv>\n"
      "  simrankpp similar <graph.tsv> --query TEXT [--method M] [--top K]\n"
      "  simrankpp rewrite <graph.tsv> --query TEXT [--method M]\n"
      "  simrankpp compute <graph.tsv> --snapshot-out F [--method M]\n"
      "            [--engine E] [--threads N] [--min-score X]\n"
      "            [--side query|ad]\n"
      "  simrankpp snapshot-info <snapshot>\n"
      "  simrankpp serve-eval <graph.tsv> --snapshot-in F [--query TEXT]\n"
      "            [--top K] [--batch N]\n"
      "  simrankpp manifest-info <manifest>\n"
      "  simrankpp serve-multi --manifest M --queries Q.tsv [--top K]\n"
      "            [--out F] [--reload TENANT] [--poll]\n"
      "  simrankpp serve-daemon --manifest M [--host H] [--port P]\n"
      "            [--port-file F] [--max-queue N] [--qps X] [--burst B]\n"
      "            [--cold-row-cost C] [--poll-interval S] [--no-inotify]\n"
      "            [--no-watch] [--metrics-port P] [--metrics-port-file F]\n"
      "            [--slow-request-ms X]\n"
      "  simrankpp extract <graph.tsv> [--subgraphs N] [--out-prefix P]\n"
      "methods: simrank | evidence | weighted (default) | pearson\n"
      "engines: dense | sparse (default) | linearized\n");
  return 2;
}

// Minimal flag scanner: --name value pairs after the positional args.
const char* FlagValue(int argc, char** argv, const char* name,
                      const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

// Value-less flag ("--poll").
bool HasFlag(int argc, char** argv, const char* name) {
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

// Maps a --method name onto engine options; false for unknown methods
// ("pearson" is handled by the callers, it has no SimRank options).
bool MethodToOptions(const std::string& method, SimRankOptions* options) {
  if (method == "simrank") {
    options->variant = SimRankVariant::kSimRank;
  } else if (method == "evidence") {
    options->variant = SimRankVariant::kEvidence;
  } else if (method == "weighted") {
    options->variant = SimRankVariant::kWeighted;
    options->prune_threshold = 1e-5;
  } else {
    return false;
  }
  return true;
}

Result<SimilarityMatrix> ComputeScores(const BipartiteGraph& graph,
                                       const std::string& method,
                                       const std::string& engine_name) {
  if (method == "pearson") return ComputePearsonSimilarities(graph);
  SimRankOptions options;
  if (!MethodToOptions(method, &options)) {
    return Status::InvalidArgument("unknown method: " + method);
  }
  options.num_threads = 0;
  SRPP_ASSIGN_OR_RETURN(std::unique_ptr<SimRankEngine> engine,
                        CreateSimRankEngine(engine_name, options));
  SRPP_RETURN_NOT_OK(engine->Run(graph));
  std::fprintf(stderr, "engine: %s\n", engine->stats().ToString().c_str());
  return engine->ExportQueryScores(1e-6);
}

int CmdGenerate(int argc, char** argv) {
  const char* out = FlagValue(argc, argv, "--out", nullptr);
  if (out == nullptr) return Usage();
  GeneratorOptions options;
  options.num_queries =
      std::strtoull(FlagValue(argc, argv, "--queries", "22000"), nullptr, 10);
  options.num_ads =
      std::strtoull(FlagValue(argc, argv, "--ads", "7000"), nullptr, 10);
  options.seed =
      std::strtoull(FlagValue(argc, argv, "--seed", "2024"), nullptr, 10);
  Result<SyntheticClickGraph> world = GenerateClickGraph(options);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.status().ToString().c_str());
    return 1;
  }
  if (Status status = SaveGraph(world->graph, out); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu queries, %zu ads, %zu edges (seed %llu)\n", out,
              world->graph.num_queries(), world->graph.num_ads(),
              world->graph.num_edges(),
              static_cast<unsigned long long>(options.seed));
  return 0;
}

int CmdStats(const std::string& path) {
  Result<BipartiteGraph> graph = LoadGraph(path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", ComputeGraphStats(*graph).ToString().c_str());
  return 0;
}

int CmdSimilar(const std::string& path, int argc, char** argv) {
  const char* query_text = FlagValue(argc, argv, "--query", nullptr);
  if (query_text == nullptr) return Usage();
  std::string method = FlagValue(argc, argv, "--method", "weighted");
  std::string engine = FlagValue(argc, argv, "--engine", "sparse");
  size_t top = std::strtoull(FlagValue(argc, argv, "--top", "10"), nullptr, 10);

  Result<BipartiteGraph> graph = LoadGraph(path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::optional<QueryId> q = graph->FindQuery(query_text);
  if (!q.has_value()) {
    std::fprintf(stderr, "query not in graph: %s\n", query_text);
    return 1;
  }
  Result<SimilarityMatrix> scores = ComputeScores(*graph, method, engine);
  if (!scores.ok()) {
    std::fprintf(stderr, "%s\n", scores.status().ToString().c_str());
    return 1;
  }
  scores->Finalize();
  TablePrinter table(StringPrintf("most similar to \"%s\" (%s)", query_text,
                                  method.c_str()));
  table.SetHeader({"rank", "query", "score"});
  size_t rank = 0;
  for (const ScoredNode& node : scores->TopK(*q, top)) {
    table.AddRow({std::to_string(++rank), graph->query_label(node.node),
                  FormatDouble(node.score, 5)});
  }
  table.Print();
  return 0;
}

int CmdRewrite(const std::string& path, int argc, char** argv) {
  const char* query_text = FlagValue(argc, argv, "--query", nullptr);
  if (query_text == nullptr) return Usage();
  std::string method = FlagValue(argc, argv, "--method", "weighted");
  std::string engine = FlagValue(argc, argv, "--engine", "sparse");

  Result<BipartiteGraph> graph = LoadGraph(path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  RewritePipelineOptions pipeline;
  pipeline.apply_bid_filter = false;  // no bid DB from the CLI
  RewriteServiceBuilder builder;
  builder.WithGraph(&*graph).WithPipelineOptions(pipeline);
  if (method == "pearson") {
    builder.WithSimilarities(ComputePearsonSimilarities(*graph), "Pearson");
  } else {
    SimRankOptions options;
    if (!MethodToOptions(method, &options)) {
      std::fprintf(stderr, "unknown method: %s\n", method.c_str());
      return 1;
    }
    options.num_threads = 0;
    builder.WithEngine(engine, options);
  }
  Result<std::unique_ptr<RewriteService>> service = builder.Build();
  if (!service.ok()) {
    std::fprintf(stderr, "%s\n", service.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<RewriteCandidate>> rewrites =
      (*service)->TopK(query_text, pipeline.max_rewrites);
  if (!rewrites.ok()) {
    std::fprintf(stderr, "%s\n", rewrites.status().ToString().c_str());
    return 1;
  }
  for (const RewriteCandidate& rewrite : *rewrites) {
    std::printf("%-32s %.5f\n", rewrite.text.c_str(), rewrite.score);
  }
  if (rewrites->empty()) std::printf("(no rewrites)\n");
  return 0;
}

int CmdCompute(const std::string& path, int argc, char** argv) {
  const char* out = FlagValue(argc, argv, "--snapshot-out", nullptr);
  if (out == nullptr) return Usage();
  std::string method = FlagValue(argc, argv, "--method", "weighted");
  std::string engine = FlagValue(argc, argv, "--engine", "sparse");
  std::string side_name = FlagValue(argc, argv, "--side", "query");
  double min_score =
      std::strtod(FlagValue(argc, argv, "--min-score", "1e-6"), nullptr);
  if (side_name != "query" && side_name != "ad") {
    std::fprintf(stderr, "--side must be \"query\" or \"ad\", got %s\n",
                 side_name.c_str());
    return 2;
  }
  SnapshotSide side = side_name == "ad" ? SnapshotSide::kAdAd
                                        : SnapshotSide::kQueryQuery;

  Result<BipartiteGraph> graph = LoadGraph(path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::string method_label;
  Result<SimilarityMatrix> scores = [&]() -> Result<SimilarityMatrix> {
    if (method == "pearson") {
      if (side == SnapshotSide::kAdAd) {
        return Status::InvalidArgument(
            "--side ad is not available for pearson (the baseline scores "
            "queries only)");
      }
      method_label = "Pearson";
      return ComputePearsonSimilarities(*graph);
    }
    SimRankOptions options;
    if (!MethodToOptions(method, &options)) {
      return Status::InvalidArgument("unknown method: " + method);
    }
    method_label = SimRankVariantName(options.variant);
    options.num_threads = static_cast<size_t>(std::strtoull(
        FlagValue(argc, argv, "--threads", "0"), nullptr, 10));
    SRPP_ASSIGN_OR_RETURN(std::unique_ptr<SimRankEngine> eng,
                          CreateSimRankEngine(engine, options));
    SRPP_RETURN_NOT_OK(eng->Run(*graph));
    std::fprintf(stderr, "engine: %s\n", eng->stats().ToString().c_str());
    return side == SnapshotSide::kAdAd ? eng->ExportAdScores(min_score)
                                       : eng->ExportQueryScores(min_score);
  }();
  if (!scores.ok()) {
    std::fprintf(stderr, "%s\n", scores.status().ToString().c_str());
    return 1;
  }
  if (Status status = SaveSnapshot(*scores, method_label, out, side);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: method \"%s\", side %s, %zu nodes, %zu pairs\n",
              out, method_label.c_str(), SnapshotSideName(side),
              scores->num_nodes(), scores->num_pairs());
  return 0;
}

int CmdSnapshotInfo(const std::string& path) {
  Result<SnapshotInfo> info = ReadSnapshotInfo(path);
  if (!info.ok()) {
    // A checksum failure means the bytes on disk are wrong (bit rot or a
    // partial write) — say so explicitly instead of a generic failure, so
    // an operator knows to restore/recompute rather than debug config.
    if (info.status().message().find("checksum mismatch") !=
        std::string::npos) {
      std::fprintf(stderr,
                   "error: snapshot failed checksum validation — the file "
                   "is corrupt or was partially written; restore it from a "
                   "good copy or recompute it\n%s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  std::printf("snapshot:  %s\n", path.c_str());
  std::printf("version:   %u\n", info->version);
  std::printf("side:      %s\n", SnapshotSideName(info->side));
  std::printf("method:    %s\n", info->method_name.c_str());
  std::printf("matrix:    %llu x %llu\n",
              static_cast<unsigned long long>(info->num_nodes),
              static_cast<unsigned long long>(info->num_nodes));
  std::printf("pairs:     %llu\n",
              static_cast<unsigned long long>(info->num_pairs));
  std::printf("bytes:     %llu\n",
              static_cast<unsigned long long>(info->file_bytes));
  std::printf("checksum:  %016llx (verified)\n",
              static_cast<unsigned long long>(info->checksum));
  return 0;
}

int CmdServeEval(const std::string& path, int argc, char** argv) {
  const char* snapshot_in = FlagValue(argc, argv, "--snapshot-in", nullptr);
  if (snapshot_in == nullptr) return Usage();
  const char* query_text = FlagValue(argc, argv, "--query", nullptr);
  size_t top = std::strtoull(FlagValue(argc, argv, "--top", "5"), nullptr, 10);

  Result<BipartiteGraph> graph = LoadGraph(path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  RewritePipelineOptions pipeline;
  pipeline.apply_bid_filter = false;  // no bid DB from the CLI
  Result<std::unique_ptr<RewriteService>> service_result =
      RewriteServiceBuilder()
          .WithGraph(&*graph)
          .WithSnapshot(snapshot_in)
          .WithPipelineOptions(pipeline)
          .Build();
  if (!service_result.ok()) {
    std::fprintf(stderr, "%s\n",
                 service_result.status().ToString().c_str());
    return 1;
  }
  RewriteService& service = **service_result;
  RewriteServiceStats stats = service.Stats();
  std::fprintf(stderr, "service: %s\n", stats.ToString().c_str());

  if (query_text != nullptr) {
    Result<std::vector<RewriteCandidate>> rewrites =
        service.TopK(query_text, top);
    if (!rewrites.ok()) {
      std::fprintf(stderr, "%s\n", rewrites.status().ToString().c_str());
      return 1;
    }
    for (const RewriteCandidate& rewrite : *rewrites) {
      std::printf("%-32s %.5f\n", rewrite.text.c_str(), rewrite.score);
    }
    if (rewrites->empty()) std::printf("(no rewrites)\n");
    return 0;
  }

  // No query given: batch-serve every graph query (capped by --batch) and
  // report coverage, the serving-side counterpart of Figure 8.
  size_t batch = std::strtoull(
      FlagValue(argc, argv, "--batch",
                std::to_string(graph->num_queries()).c_str()),
      nullptr, 10);
  batch = std::min(batch, graph->num_queries());
  std::vector<QueryId> queries(batch);
  std::iota(queries.begin(), queries.end(), 0u);
  Stopwatch timer;
  std::vector<std::vector<RewriteCandidate>> results =
      service.TopKBatch(queries, top);
  double elapsed = timer.ElapsedSeconds();
  size_t covered = 0;
  size_t total_rewrites = 0;
  for (const auto& rewrites : results) {
    if (!rewrites.empty()) ++covered;
    total_rewrites += rewrites.size();
  }
  std::printf(
      "served %zu queries in %.3fs: %zu covered (%.1f%%), %zu rewrites, "
      "method \"%s\"\n",
      batch, elapsed, covered,
      batch == 0 ? 0.0 : 100.0 * static_cast<double>(covered) /
                             static_cast<double>(batch),
      total_rewrites, stats.method_name.c_str());
  return 0;
}

int CmdManifestInfo(const std::string& path) {
  Result<ServingManifest> manifest = LoadManifest(path);
  if (!manifest.ok()) {
    std::fprintf(stderr, "%s\n", manifest.status().ToString().c_str());
    return 1;
  }
  TablePrinter table(StringPrintf("manifest %s (version %d, %zu tenants)",
                                  path.c_str(), manifest->version,
                                  manifest->entries.size()));
  table.SetHeader({"tenant", "side", "method", "nodes", "pairs", "status"});
  bool all_valid = true;
  for (const ManifestEntry& entry : manifest->entries) {
    if (entry.on_demand && entry.snapshot_path.empty()) {
      // Pure on-demand tenant: nothing on disk to validate — rows are
      // computed at serve time by the named engine.
      std::string side = entry.expected_side.has_value()
                             ? SnapshotSideName(*entry.expected_side)
                             : "query-query";
      table.AddRow({entry.tenant, side,
                    StringPrintf("on-demand (%s)", entry.engine.c_str()),
                    "-", "-", "ok"});
      continue;
    }
    Result<SnapshotInfo> info = ReadSnapshotInfo(entry.snapshot_path);
    if (!info.ok()) {
      all_valid = false;
      table.AddRow({entry.tenant, "-", "-", "-", "-",
                    info.status().ToString()});
      continue;
    }
    std::string status = "ok";
    if (entry.expected_side.has_value() &&
        info->side != *entry.expected_side) {
      all_valid = false;
      status = StringPrintf("side mismatch: manifest says %s, file is %s",
                            SnapshotSideName(*entry.expected_side),
                            SnapshotSideName(info->side));
    } else if (entry.expected_checksum.has_value() &&
               info->checksum != *entry.expected_checksum) {
      all_valid = false;
      status = StringPrintf(
          "checksum mismatch: manifest pins %016llx, file has %016llx",
          static_cast<unsigned long long>(*entry.expected_checksum),
          static_cast<unsigned long long>(info->checksum));
    }
    table.AddRow({entry.tenant, SnapshotSideName(info->side),
                  info->method_name, std::to_string(info->num_nodes),
                  std::to_string(info->num_pairs), status});
  }
  table.Print();
  if (!all_valid) {
    std::fprintf(stderr, "manifest %s has invalid tenants (see above)\n",
                 path.c_str());
    return 1;
  }
  return 0;
}

int CmdServeMulti(int argc, char** argv) {
  const char* manifest_path = FlagValue(argc, argv, "--manifest", nullptr);
  const char* queries_path = FlagValue(argc, argv, "--queries", nullptr);
  if (manifest_path == nullptr || queries_path == nullptr) return Usage();
  size_t top = std::strtoull(FlagValue(argc, argv, "--top", "5"), nullptr, 10);
  const char* out_path = FlagValue(argc, argv, "--out", nullptr);
  const char* reload_tenant = FlagValue(argc, argv, "--reload", nullptr);

  TenantRegistry registry;
  SnapshotStore store(manifest_path, &registry);
  if (Status status = store.LoadAll(); !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  if (reload_tenant != nullptr) {
    // Explicit hot-reload trigger: rebuild this tenant now (generation
    // bumps; concurrent serving would keep reading the old one until the
    // swap).
    if (Status status = store.Reload(reload_tenant); !status.ok()) {
      std::fprintf(stderr, "reload %s: %s\n", reload_tenant,
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "reloaded tenant %s\n", reload_tenant);
  }
  if (HasFlag(argc, argv, "--poll")) {
    Result<std::vector<std::string>> reloaded = store.PollForChanges();
    if (!reloaded.ok()) {
      std::fprintf(stderr, "%s\n", reloaded.status().ToString().c_str());
      return 1;
    }
    for (const std::string& name : *reloaded) {
      std::fprintf(stderr, "poll reloaded tenant %s\n", name.c_str());
    }
  }

  // One input line per request: "tenant<TAB>query text".
  std::ifstream queries_file(queries_path);
  if (!queries_file) {
    std::fprintf(stderr, "cannot open queries file: %s\n", queries_path);
    return 1;
  }
  struct Request {
    std::string tenant;
    std::string text;
  };
  std::vector<Request> requests;
  std::string line;
  size_t line_number = 0;
  while (std::getline(queries_file, line)) {
    ++line_number;
    std::string_view view(line);
    while (!view.empty() && (view.back() == '\n' || view.back() == '\r')) {
      view.remove_suffix(1);
    }
    if (view.empty() || view.front() == '#') continue;
    size_t tab = view.find('\t');
    if (tab == std::string_view::npos) {
      std::fprintf(stderr,
                   "%s:%zu: expected \"tenant<TAB>query\", got \"%s\"\n",
                   queries_path, line_number, std::string(view).c_str());
      return 1;
    }
    requests.push_back(Request{std::string(view.substr(0, tab)),
                               std::string(view.substr(tab + 1))});
  }

  // Group requests per tenant (preserving each request's output slot),
  // pin that tenant's generation once, and batch the lookups on the
  // shared pool.
  std::vector<std::vector<RewriteCandidate>> results(requests.size());
  std::vector<size_t> order(requests.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return requests[a].tenant < requests[b].tenant;
  });
  for (size_t start = 0; start < order.size();) {
    size_t end = start;
    const std::string& name = requests[order[start]].tenant;
    while (end < order.size() && requests[order[end]].tenant == name) ++end;
    std::shared_ptr<const Tenant> tenant = registry.Lookup(name);
    if (tenant == nullptr) {
      std::fprintf(stderr, "unknown tenant in queries file: %s\n",
                   name.c_str());
      return 1;
    }
    const RewriteService& service = *tenant->service;
    std::vector<uint32_t> ids;
    std::vector<size_t> slots;
    for (size_t i = start; i < end; ++i) {
      const Request& request = requests[order[i]];
      Result<uint32_t> id = service.rewriter().ResolveNode(request.text);
      // Texts outside the graph serve empty (reported as rank-0 rows).
      if (id.ok()) {
        ids.push_back(*id);
        slots.push_back(order[i]);
      }
    }
    std::vector<std::vector<RewriteCandidate>> batch =
        service.TopKBatch(ids, top);
    for (size_t i = 0; i < slots.size(); ++i) {
      results[slots[i]] = std::move(batch[i]);
    }
    start = end;
  }

  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot create output file: %s\n", out_path);
      return 1;
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    if (results[i].empty()) {
      // Keep one row per request so coverage is visible downstream.
      std::fprintf(out, "%s\t%s\t0\t-\t0\n", requests[i].tenant.c_str(),
                   requests[i].text.c_str());
      continue;
    }
    size_t rank = 0;
    for (const RewriteCandidate& candidate : results[i]) {
      std::fprintf(out, "%s\t%s\t%zu\t%s\t%.6f\n",
                   requests[i].tenant.c_str(), requests[i].text.c_str(),
                   ++rank, candidate.text.c_str(), candidate.score);
    }
  }
  bool write_failed = std::ferror(out) != 0;
  if (out != stdout && std::fclose(out) != 0) write_failed = true;
  if (write_failed) {
    std::fprintf(stderr, "write failure on output\n");
    return 1;
  }

  for (const TenantServeStats& stats : registry.Stats()) {
    std::fprintf(stderr, "%s\n", stats.ToString().c_str());
  }
  return 0;
}

// The running daemon, published for the signal handlers. RequestShutdown
// is async-signal-safe (a single eventfd write), so the handler may call
// it directly.
std::atomic<ServeDaemon*> g_serve_daemon{nullptr};

void HandleShutdownSignal(int) {
  ServeDaemon* daemon = g_serve_daemon.load();
  if (daemon != nullptr) daemon->RequestShutdown();
}

int CmdServeDaemon(int argc, char** argv) {
  const char* manifest_path = FlagValue(argc, argv, "--manifest", nullptr);
  if (manifest_path == nullptr) return Usage();
  DaemonOptions options;
  options.manifest_path = manifest_path;
  options.host = FlagValue(argc, argv, "--host", "127.0.0.1");
  options.port = static_cast<uint16_t>(
      std::strtoul(FlagValue(argc, argv, "--port", "0"), nullptr, 10));
  options.max_queue_per_tenant = std::strtoull(
      FlagValue(argc, argv, "--max-queue", "512"), nullptr, 10);
  options.tenant_qps =
      std::strtod(FlagValue(argc, argv, "--qps", "0"), nullptr);
  options.tenant_burst =
      std::strtod(FlagValue(argc, argv, "--burst", "64"), nullptr);
  options.cold_row_cost = std::strtoull(
      FlagValue(argc, argv, "--cold-row-cost", "8"), nullptr, 10);
  options.watch_poll_seconds = std::strtod(
      FlagValue(argc, argv, "--poll-interval", "0.5"), nullptr);
  options.use_inotify = !HasFlag(argc, argv, "--no-inotify");
  options.enable_watcher = !HasFlag(argc, argv, "--no-watch");
  // -1 (the default) keeps the HTTP listener off; 0 picks an ephemeral
  // port, published via --metrics-port-file like --port-file.
  options.metrics_port = static_cast<int>(std::strtol(
      FlagValue(argc, argv, "--metrics-port", "-1"), nullptr, 10));
  options.slow_request_seconds =
      std::strtod(FlagValue(argc, argv, "--slow-request-ms", "0"), nullptr) /
      1e3;
  const char* port_file = FlagValue(argc, argv, "--port-file", nullptr);
  const char* metrics_port_file =
      FlagValue(argc, argv, "--metrics-port-file", nullptr);

  Result<std::unique_ptr<ServeDaemon>> daemon =
      ServeDaemon::Start(std::move(options));
  if (!daemon.ok()) {
    std::fprintf(stderr, "%s\n", daemon.status().ToString().c_str());
    return 1;
  }
  g_serve_daemon.store(daemon->get());
  std::signal(SIGTERM, HandleShutdownSignal);
  std::signal(SIGINT, HandleShutdownSignal);

  std::printf("serve-daemon listening on %s:%u (%zu tenants)\n",
              FlagValue(argc, argv, "--host", "127.0.0.1"),
              (*daemon)->port(), (*daemon)->registry().size());
  std::fflush(stdout);
  if (port_file != nullptr) {
    // Written after the socket is live: pollers of this file may connect
    // the moment it appears (the CI smoke does).
    std::ofstream out(port_file, std::ios::trunc);
    out << (*daemon)->port() << "\n";
  }
  if ((*daemon)->metrics_port() != 0) {
    std::printf("serve-daemon metrics on http://%s:%u/metrics\n",
                FlagValue(argc, argv, "--host", "127.0.0.1"),
                (*daemon)->metrics_port());
    std::fflush(stdout);
    if (metrics_port_file != nullptr) {
      std::ofstream out(metrics_port_file, std::ios::trunc);
      out << (*daemon)->metrics_port() << "\n";
    }
  }
  for (const TenantServeStats& stats : (*daemon)->registry().Stats()) {
    std::fprintf(stderr, "%s\n", stats.ToString().c_str());
  }

  int exit_code = (*daemon)->Wait();
  g_serve_daemon.store(nullptr);
  MetricsSnapshot metrics = (*daemon)->metrics_registry().Snapshot();
  std::fprintf(stderr,
               "serve-daemon drained: admitted=%.0f responses=%.0f "
               "batches=%.0f reloads=%.0f exit=%d\n",
               metrics.Total("srpp_requests_total", {{"code", "ok"}}),
               metrics.Total("srpp_responses_total"),
               metrics.Total("srpp_batches_total"),
               metrics.Total("srpp_reloads_total", {{"outcome", "applied"}}),
               exit_code);
  return exit_code;
}

int CmdExtract(const std::string& path, int argc, char** argv) {
  Result<BipartiteGraph> graph = LoadGraph(path);
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  ExtractorOptions options;
  options.num_subgraphs = std::strtoull(
      FlagValue(argc, argv, "--subgraphs", "5"), nullptr, 10);
  options.min_nodes_per_subgraph = 200;
  options.max_nodes_per_subgraph = 8000;
  options.ppr.epsilon = 5e-7;
  std::string prefix = FlagValue(argc, argv, "--out-prefix", "subgraph");
  Result<std::vector<ExtractedSubgraph>> subgraphs =
      ExtractSubgraphs(*graph, options);
  if (!subgraphs.ok()) {
    std::fprintf(stderr, "%s\n", subgraphs.status().ToString().c_str());
    return 1;
  }
  size_t index = 0;
  for (const ExtractedSubgraph& extracted : *subgraphs) {
    std::string out = StringPrintf("%s%zu.tsv", prefix.c_str(), ++index);
    if (Status status = SaveGraph(extracted.graph, out); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("%s: %zu queries, %zu ads, %zu edges (conductance %.4f)\n",
                out.c_str(), extracted.graph.num_queries(),
                extracted.graph.num_ads(), extracted.graph.num_edges(),
                extracted.conductance);
  }
  return 0;
}

}  // namespace

int RunCli(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  if (argc < 2) return Usage();
  std::string command = argv[1];
  if (command == "generate") return CmdGenerate(argc - 2, argv + 2);
  if (command == "serve-multi") return CmdServeMulti(argc - 2, argv + 2);
  if (command == "serve-daemon") return CmdServeDaemon(argc - 2, argv + 2);
  if (argc < 3) return Usage();
  std::string path = argv[2];
  if (command == "stats") return CmdStats(path);
  if (command == "similar") return CmdSimilar(path, argc - 3, argv + 3);
  if (command == "rewrite") return CmdRewrite(path, argc - 3, argv + 3);
  if (command == "compute") return CmdCompute(path, argc - 3, argv + 3);
  if (command == "snapshot-info") return CmdSnapshotInfo(path);
  if (command == "serve-eval") return CmdServeEval(path, argc - 3, argv + 3);
  if (command == "manifest-info") return CmdManifestInfo(path);
  if (command == "extract") return CmdExtract(path, argc - 3, argv + 3);
  return Usage();
}

}  // namespace simrankpp
