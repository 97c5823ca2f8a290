// The offline half of the benchmark: the refresh workload's compute
// child, the in-process reference services the answer check compares
// TCP replies against, and the traced run's in-process layer timings.
// Every timing here wraps one public library call from outside.
#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/engine_registry.h"
#include "core/simrank_engine.h"
#include "core/simrank_options.h"
#include "core/snapshot.h"
#include "graph/graph_io.h"
#include "rewrite/rewrite_service.h"
#include "serve/manifest.h"
#include "serve/protocol.h"
#include "tool.h"
#include "util/status.h"

namespace perfbench {

using simrankpp::BipartiteGraph;
using simrankpp::ManifestEntry;
using simrankpp::Result;
using simrankpp::RewriteCandidate;
using simrankpp::RewriteService;
using simrankpp::RewriteServiceBuilder;
using simrankpp::SimilarityMatrix;
using simrankpp::SimRankEngine;
using simrankpp::SimRankOptions;
using simrankpp::Status;

namespace {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
};

std::string SpansJson(const std::vector<Span>& spans) {
  std::string out = "[";
  for (size_t i = 0; i < spans.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f}",
                  i == 0 ? "" : ",", spans[i].name.c_str(), spans[i].start,
                  spans[i].end);
    out += buf;
  }
  return out + "]";
}

// `simrankpp compute --method weighted`: the engine options the CLI uses
// for that method, except for the threads: one per CPU this process may
// run on. The CLI's threads = 0 counts every CPU of the machine, which
// would put two threads on each of the CPUs the benchmark gives the
// compute child, and each parallel phase would wait for the one a time
// slice left behind.
SimRankOptions WeightedOptions() {
  SimRankOptions options;
  options.variant = simrankpp::SimRankVariant::kWeighted;
  options.prune_threshold = 1e-5;
  options.num_threads = 0;
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    options.num_threads = static_cast<size_t>(CPU_COUNT(&allowed));
  }
  return options;
}

constexpr double kExportMinScore = 1e-6;

long long FileBytes(const std::string& path) {
  struct stat st {};
  return stat(path.c_str(), &st) == 0 ? static_cast<long long>(st.st_size)
                                      : -1;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "perfbench_tool: %s\n", status.ToString().c_str());
  return 1;
}

// The manifest entry of `tenant`, with the pipeline options the serving
// layer derives from it.
Result<ManifestEntry> FindEntry(const std::string& manifest_path,
                                const std::string& tenant) {
  SRPP_ASSIGN_OR_RETURN(simrankpp::ServingManifest manifest,
                        simrankpp::LoadManifest(manifest_path));
  const ManifestEntry* entry = manifest.Find(tenant);
  if (entry == nullptr) {
    return Status::NotFound("tenant " + tenant + " not in " + manifest_path);
  }
  return *entry;
}

// A RewriteService over `entry`'s files, built with the same public
// builder calls and options the serving layer makes for a manifest entry.
Result<std::unique_ptr<RewriteService>> BuildService(
    const ManifestEntry& entry, const BipartiteGraph* graph) {
  RewriteServiceBuilder builder;
  builder.WithGraph(graph).WithPipelineOptions(entry.pipeline);
  if (!entry.snapshot_path.empty()) builder.WithSnapshot(entry.snapshot_path);
  if (entry.on_demand) builder.WithOnDemandEngine(entry.engine, SimRankOptions{});
  return builder.Build();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Median wall time of `repeats` calls of `fn` (fn returns false on error).
template <typename Fn>
double MedianSeconds(int repeats, Fn fn, bool* ok) {
  std::vector<double> times;
  for (int i = 0; i < repeats; ++i) {
    double start = Now();
    if (!fn()) {
      *ok = false;
      return 0.0;
    }
    times.push_back(Now() - start);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace

int RunCompute(int argc, char** argv) {
  const char* graph_path = Flag(argc, argv, "--graph", nullptr);
  const char* out = Flag(argc, argv, "--snapshot-out", nullptr);
  if (graph_path == nullptr || out == nullptr) return 2;
  std::vector<Span> spans;
  double t0 = Now();
  Result<BipartiteGraph> graph = simrankpp::LoadGraph(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  double t1 = Now();
  spans.push_back({"load_graph", t0, t1});

  SimRankOptions options = WeightedOptions();
  Result<std::unique_ptr<SimRankEngine>> engine =
      simrankpp::CreateSimRankEngine("sparse", options);
  if (!engine.ok()) return Fail(engine.status());
  double t2 = Now();
  if (Status status = (*engine)->Run(*graph); !status.ok()) return Fail(status);
  double t3 = Now();
  spans.push_back({"engine_run", t2, t3});
  SimilarityMatrix scores = (*engine)->ExportQueryScores(kExportMinScore);
  double t4 = Now();
  spans.push_back({"export", t3, t4});
  if (Status status = simrankpp::SaveSnapshot(
          scores, simrankpp::SimRankVariantName(options.variant), out);
      !status.ok()) {
    return Fail(status);
  }
  double t5 = Now();
  spans.push_back({"snapshot_save", t4, t5});

  const simrankpp::SimRankStats& stats = (*engine)->stats();
  std::printf(
      "{\"spans\":%s,\"iterations\":%zu,\"rescored_pairs\":%zu,"
      "\"reused_pairs\":%zu,\"threads_used\":%zu,\"pairs\":%zu,"
      "\"snapshot_bytes\":%lld}\n",
      SpansJson(spans).c_str(), stats.iterations_run, stats.rescored_pairs,
      stats.reused_pairs, stats.threads_used, scores.num_pairs(),
      FileBytes(out));
  std::fflush(stdout);
  // The parent times the edition up to this line; skip tearing down the
  // engine and matrix so process exit costs nothing it would measure.
  std::_Exit(0);
}

// Jobs file: one line per service, "manifest<TAB>tenant<TAB>k<TAB>keys
// file<TAB>output file". Each output line is the hex digest of the TopK
// response payload the daemon must send for the same key line (an
// unknown query answers an empty list, as the daemon does).
int RunReference(int argc, char** argv) {
  const char* jobs_path = Flag(argc, argv, "--jobs", nullptr);
  if (jobs_path == nullptr) return 2;
  for (const std::string& job : ReadLines(jobs_path)) {
    std::vector<std::string> fields;
    size_t start = 0;
    for (size_t tab; (tab = job.find('\t', start)) != std::string::npos;
         start = tab + 1) {
      fields.push_back(job.substr(start, tab - start));
    }
    fields.push_back(job.substr(start));
    if (fields.size() != 5) {
      std::fprintf(stderr, "bad job line: %s\n", job.c_str());
      return 2;
    }
    Result<ManifestEntry> entry = FindEntry(fields[0], fields[1]);
    if (!entry.ok()) return Fail(entry.status());
    const size_t k = std::strtoull(fields[2].c_str(), nullptr, 10);
    Result<BipartiteGraph> graph = simrankpp::LoadGraph(entry->graph_path);
    if (!graph.ok()) return Fail(graph.status());
    Result<std::unique_ptr<RewriteService>> service =
        BuildService(*entry, &*graph);
    if (!service.ok()) return Fail(service.status());

    std::vector<std::string> keys = ReadLines(fields[3]);
    std::vector<simrankpp::QueryId> ids;
    std::vector<size_t> slots;
    for (size_t i = 0; i < keys.size(); ++i) {
      Result<uint32_t> id = (*service)->rewriter().ResolveNode(keys[i]);
      if (id.ok()) {
        ids.push_back(*id);
        slots.push_back(i);
      }
    }
    std::vector<std::vector<RewriteCandidate>> results =
        (*service)->TopKBatch(ids, k);
    std::vector<std::vector<simrankpp::TopKItem>> items(keys.size());
    for (size_t i = 0; i < slots.size(); ++i) {
      for (const RewriteCandidate& candidate : results[i]) {
        items[slots[i]].push_back({candidate.text, candidate.score});
      }
    }
    std::FILE* out = std::fopen(fields[4].c_str(), "w");
    if (out == nullptr) return Fail(Status::IOError("cannot write " + fields[4]));
    for (const auto& row : items) {
      std::string frame;
      simrankpp::AppendTopKResponseFrame(0, row, &frame);
      std::fprintf(out, "%016llx\n",
                   static_cast<unsigned long long>(Digest(
                       std::string_view(frame).substr(
                           simrankpp::kFrameHeaderBytes))));
    }
    if (std::fclose(out) != 0) {
      return Fail(Status::IOError("cannot write " + fields[4]));
    }
  }
  return 0;
}

// In-process timings of the public calls the daemon and the compute child
// make, on one tenant's files. Prints one JSON object of per-layer values.
int RunLayers(int argc, char** argv) {
  const char* manifest = Flag(argc, argv, "--manifest", nullptr);
  const char* tenant = Flag(argc, argv, "--tenant", nullptr);
  const char* queries_path = Flag(argc, argv, "--queries", nullptr);
  const char* scratch = Flag(argc, argv, "--scratch-snapshot", nullptr);
  if (manifest == nullptr || tenant == nullptr || queries_path == nullptr ||
      scratch == nullptr) {
    return 2;
  }
  Result<ManifestEntry> entry = FindEntry(manifest, tenant);
  if (!entry.ok()) return Fail(entry.status());
  bool ok = true;
  std::string json = "{";
  auto put = [&json](const char* name, double value) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.9g", json.size() > 1 ? "," : "",
                  name, value);
    json += buf;
  };

  // Reload path: parse the graph and snapshot, build the service.
  put("graph.load_s", MedianSeconds(3, [&] {
        return simrankpp::LoadGraph(entry->graph_path).ok();
      }, &ok));
  Result<BipartiteGraph> graph = simrankpp::LoadGraph(entry->graph_path);
  if (!graph.ok()) return Fail(graph.status());
  put("rewrite.build_s",
      MedianSeconds(entry->on_demand ? 1 : 3, [&] {
        return BuildService(*entry, &*graph).ok();
      }, &ok));

  // Linearized single-source scoring: Prepare once, then one ScoredRow
  // per sampled query at the serving layer's cache depth.
  Result<std::unique_ptr<SimRankEngine>> linearized =
      simrankpp::CreateSimRankEngine("linearized", SimRankOptions{});
  if (!linearized.ok()) return Fail(linearized.status());
  auto* scorer = dynamic_cast<simrankpp::OnDemandScorer*>(linearized->get());
  if (scorer == nullptr) return Fail(Status::Internal("no OnDemandScorer"));
  double start = Now();
  if (Status status = scorer->Prepare(*graph); !status.ok()) return Fail(status);
  put("core.prepare_s", Now() - start);
  std::vector<uint32_t> rows;
  for (const std::string& text : ReadLines(queries_path)) {
    std::optional<simrankpp::QueryId> id = graph->FindQuery(text);
    if (id.has_value()) rows.push_back(*id);
  }
  if (rows.empty()) return Fail(Status::InvalidArgument("no sample queries"));
  const size_t depth = entry->pipeline.max_candidates;
  start = Now();
  for (uint32_t row : rows) {
    if (!scorer->ScoredRow(false, row, kExportMinScore, depth).ok()) ok = false;
  }
  put("core.scored_row_us", (Now() - start) * 1e6 / rows.size());
  put("core.scored_rows", static_cast<double>(rows.size()));

  // Offline path: the calls `simrankpp compute --method weighted` makes.
  Result<std::unique_ptr<SimRankEngine>> engine =
      simrankpp::CreateSimRankEngine("sparse", WeightedOptions());
  if (!engine.ok()) return Fail(engine.status());
  start = Now();
  if (Status status = (*engine)->Run(*graph); !status.ok()) return Fail(status);
  put("core.engine_run_s", Now() - start);
  const simrankpp::SimRankStats& stats = (*engine)->stats();
  put("core.engine_iterations", static_cast<double>(stats.iterations_run));
  put("core.rescored_pairs", static_cast<double>(stats.rescored_pairs));
  put("core.threads_used", static_cast<double>(stats.threads_used));
  start = Now();
  SimilarityMatrix scores = (*engine)->ExportQueryScores(kExportMinScore);
  put("core.export_s", Now() - start);
  start = Now();
  if (Status status = simrankpp::SaveSnapshot(
          scores, simrankpp::SimRankVariantName(WeightedOptions().variant),
          scratch);
      !status.ok()) {
    return Fail(status);
  }
  put("core.snapshot_save_s", Now() - start);
  put("core.snapshot_bytes", static_cast<double>(FileBytes(scratch)));
  // The reload path parses the snapshot this export just wrote.
  put("core.snapshot_load_s", MedianSeconds(3, [&] {
        return simrankpp::LoadSnapshot(scratch).ok();
      }, &ok));
  std::remove(scratch);
  if (!ok) return Fail(Status::Internal("a timed call failed"));
  std::printf("%s}\n", json.c_str());
  return 0;
}

}  // namespace perfbench
