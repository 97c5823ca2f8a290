// perfbench_tool: the benchmark's C++ helper.
//
//   perfbench_tool load --port P --pid PID --plan F --out DIR [--trace 1]
//       closed-loop TopK clients, driven step by step over stdin
//   perfbench_tool compute --graph G --snapshot-out S
//       the refresh workload's offline child (the calls `simrankpp
//       compute` makes), printing its spans as one JSON line
//   perfbench_tool reference --jobs F
//       expected TopK reply digests from in-process RewriteServices
//   perfbench_tool layers --manifest M --tenant T --queries F
//                         --scratch-snapshot S
//       in-process timings of the public calls the daemon and the compute
//       child make
#include <cstdio>
#include <string>

#include "tool.h"
#include "util/logging.h"

int main(int argc, char** argv) {
  simrankpp::SetLogLevel(simrankpp::LogLevel::kWarning);
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool load|compute|reference|layers ...\n");
    return 2;
  }
  const std::string command = argv[1];
  if (command == "load") return perfbench::RunLoad(argc - 2, argv + 2);
  if (command == "compute") return perfbench::RunCompute(argc - 2, argv + 2);
  if (command == "reference") {
    return perfbench::RunReference(argc - 2, argv + 2);
  }
  if (command == "layers") return perfbench::RunLayers(argc - 2, argv + 2);
  std::fprintf(stderr, "unknown subcommand %s\n", command.c_str());
  return 2;
}
