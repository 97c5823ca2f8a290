// Shared helpers of perfbench_tool, the benchmark's C++ helper. Each
// subcommand is one entry point; run.py drives them as child processes.
#ifndef SIMRANKPP_PERFBENCH_TOOL_H_
#define SIMRANKPP_PERFBENCH_TOOL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace perfbench {

// Seconds on CLOCK_MONOTONIC: the same clock as Python's
// time.monotonic(), so spans from every process of a run line up.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// FNV-1a 64 over a TopK response payload: two replies are bit-identical
// exactly when their digests agree (up to hash collisions).
inline uint64_t Digest(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// "--name value" lookup over argv; `fallback` when absent.
inline const char* Flag(int argc, char** argv, const char* name,
                        const char* fallback) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

int RunLoad(int argc, char** argv);
int RunCompute(int argc, char** argv);
int RunReference(int argc, char** argv);
int RunLayers(int argc, char** argv);

}  // namespace perfbench

#endif  // SIMRANKPP_PERFBENCH_TOOL_H_
