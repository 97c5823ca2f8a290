// SIMD kernel micro-benchmark: every kernel in src/util/simd/ timed at
// the scalar reference level and at the runtime-dispatched level, across
// lengths that exercise both the full 8-lane blocks and the positional
// tails. The per-kernel speedup lines
// at the end are what the PR-9 acceptance gate reads (dense-gather and
// intersection must clear 1.5x at AVX2+); the JSON cases feed the
// committed BENCH_*.json baseline like every other perf bench.
//
//   bench_perf_kernels [--smoke] [--repeats N] [--json <path>]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perf_harness.h"
#include "util/simd/simd.h"
#include "util/string_util.h"

namespace simrankpp {
namespace {

// Deterministic xorshift-based fill, same idea as the other perf
// benches: identical inputs every run, no <random> heft.
uint64_t NextState(uint64_t* state) {
  *state = *state * 6364136223846793005ull + 1442695040888963407ull;
  return *state;
}

std::vector<double> RandomDoubles(size_t n, uint64_t seed) {
  std::vector<double> out(n);
  uint64_t state = seed;
  for (double& v : out) {
    v = static_cast<double>(NextState(&state) >> 11) * 0x1p-53;
  }
  return out;
}

// Ascending index vector into a table of `universe` slots — the shape
// the engines feed the gather kernels (sorted neighbor ids).
std::vector<uint32_t> AscendingIndices(size_t n, size_t universe,
                                       uint64_t seed) {
  std::vector<uint32_t> out(n);
  uint64_t state = seed;
  uint32_t at = 0;
  const uint32_t max_step =
      n > 0 ? static_cast<uint32_t>(universe / n) : 1;
  for (uint32_t& idx : out) {
    at += 1 + static_cast<uint32_t>(NextState(&state) % (max_step > 1
                                                             ? max_step - 1
                                                             : 1));
    idx = at;
  }
  return out;
}

// Strictly ascending u32 list with stride in [1, 3]: two such lists
// overlap on roughly a third of their entries, a realistic common-
// neighbor density for the intersection kernel.
std::vector<uint32_t> AscendingList(size_t n, uint64_t seed) {
  std::vector<uint32_t> out(n);
  uint64_t state = seed;
  uint32_t at = 0;
  for (uint32_t& v : out) {
    at += 1 + static_cast<uint32_t>(NextState(&state) % 3);
    v = at;
  }
  return out;
}

// Keeps the optimizer from hoisting the kernel call out of the rep loop.
volatile double g_sink_d = 0.0;
volatile uint64_t g_sink_u = 0;

struct LevelUnderTest {
  const char* label;          // row label ("scalar", "avx512", ...)
  const simd::KernelTable* table;
};

int Main(int argc, char** argv) {
  bool smoke = bench::HasFlag(argc, argv, "--smoke");
  size_t repeats = std::strtoull(
      bench::FlagValue(argc, argv, "--repeats", smoke ? "3" : "7"), nullptr,
      10);
  const char* json_path = bench::FlagValue(argc, argv, "--json", "");
  if (repeats == 0) {
    std::fprintf(stderr,
                 "usage: bench_perf_kernels [--smoke] [--repeats N] "
                 "[--json <path>]\n");
    return 2;
  }

  const simd::KernelTable* scalar =
      simd::KernelsFor(simd::SimdLevel::kScalar);
  const simd::KernelTable& dispatched = simd::ActiveKernels();
  std::vector<LevelUnderTest> levels;
  levels.push_back({"scalar", scalar});
  if (&dispatched != scalar) levels.push_back({dispatched.name, &dispatched});

  // Lengths cover sub-block tails (7), one exact block (8), a block+tail
  // mix (130), and engine-realistic rows. Total gathered elements per
  // timed sample is held constant so every case runs a comparable time.
  const std::vector<size_t> lengths = {7, 8, 130, 1024, 8192};
  const size_t elements_per_sample = smoke ? (1u << 21) : (1u << 24);

  const size_t max_len = lengths.back();
  const size_t universe = 4 * max_len;
  std::vector<double> dense = RandomDoubles(universe + 1, 0x1234);
  std::vector<double> weights = RandomDoubles(max_len, 0x5678);
  std::vector<double> weights2 = RandomDoubles(max_len, 0x9abc);
  std::vector<uint32_t> indices = AscendingIndices(max_len, universe, 0xdef0);
  // The intersection inputs are sliding windows into one large pool,
  // advanced every iteration: intersecting the SAME two lists over and
  // over lets the branch predictor memorize the scalar zipper's
  // data-dependent branches, which no engine workload (a different
  // neighbor-list pair per call) ever resembles.
  const size_t pool_windows = 64;
  std::vector<uint32_t> list_a =
      AscendingList(max_len + pool_windows * 8, 0x1111);
  std::vector<uint32_t> list_b =
      AscendingList(max_len + pool_windows * 8, 0x2222);
  std::vector<double> axpy_out(max_len, 0.0);

  bench::PerfTable table(
      StringPrintf("SIMD kernels, per-level (dispatched: %s)",
                   dispatched.name),
      repeats);

  // best_ns per (kernel, level, length) for the speedup summary.
  auto case_name = [](const char* kernel, const char* level, size_t len) {
    return StringPrintf("%s/%s/%zu", kernel, level, len);
  };

  for (size_t len : lengths) {
    const size_t iters = elements_per_sample / len;
    std::string note = StringPrintf("%zu iters x len %zu", iters, len);
    for (const LevelUnderTest& level : levels) {
      const simd::KernelTable& kern = *level.table;
      table.Run(case_name("gather_sum", level.label, len), [&] {
        double acc = 0.0;
        for (size_t i = 0; i < iters; ++i) {
          acc += kern.gather_sum(dense.data(), indices.data(), len);
        }
        g_sink_d = acc;
        return note;
      });
      table.Run(case_name("gather_sum_weighted", level.label, len), [&] {
        double acc = 0.0;
        for (size_t i = 0; i < iters; ++i) {
          acc += kern.gather_sum_weighted(dense.data(), indices.data(),
                                          weights.data(), 0.8125, len);
        }
        g_sink_d = acc;
        return note;
      });
      table.Run(case_name("axpy", level.label, len), [&] {
        for (size_t i = 0; i < iters; ++i) {
          kern.axpy(0x1p-20, dense.data(), axpy_out.data(), len);
        }
        g_sink_d = axpy_out[0];
        return note;
      });
      table.Run(case_name("pearson", level.label, len), [&] {
        double num = 0.0;
        double den1 = 0.0;
        double den2 = 0.0;
        double acc = 0.0;
        for (size_t i = 0; i < iters; ++i) {
          kern.pearson_accumulate(weights.data(), weights2.data(), len, 0.5,
                                  0.5, &num, &den1, &den2);
          acc += num + den1 + den2;
        }
        g_sink_d = acc;
        return note;
      });
      table.Run(case_name("count_common_sorted", level.label, len), [&] {
        uint64_t acc = 0;
        for (size_t i = 0; i < iters; ++i) {
          const size_t off_a = (i * 5) % pool_windows * 8;
          const size_t off_b = (i * 3) % pool_windows * 8;
          acc += kern.count_common_sorted(list_a.data() + off_a, len,
                                          list_b.data() + off_b, len);
        }
        g_sink_u = acc;
        return note;
      });
    }
  }
  table.Print();

  // Speedup summary: dispatched vs scalar, per kernel at the largest
  // engine-realistic length. This is the line the acceptance criterion
  // reads; it is informational when the dispatched level IS scalar.
  if (levels.size() > 1) {
    const size_t summary_len = 1024;
    for (const char* kernel :
         {"gather_sum", "gather_sum_weighted", "axpy", "pearson",
          "count_common_sorted"}) {
      uint64_t scalar_ns = 0;
      uint64_t simd_ns = 0;
      std::string scalar_case = case_name(kernel, "scalar", summary_len);
      std::string simd_case =
          case_name(kernel, levels[1].label, summary_len);
      for (const bench::PerfCase& c : table.cases()) {
        if (c.name == scalar_case) scalar_ns = c.best_ns;
        if (c.name == simd_case) simd_ns = c.best_ns;
      }
      if (scalar_ns != 0 && simd_ns != 0) {
        std::printf("speedup %s @%zu: %.2fx (%s vs scalar)\n", kernel,
                    summary_len,
                    static_cast<double>(scalar_ns) /
                        static_cast<double>(simd_ns),
                    levels[1].label);
      }
    }
  }

  if (json_path[0] != '\0') {
    bench::JsonReport report;
    report.Add(table);
    if (!report.WriteFile(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}

}  // namespace
}  // namespace simrankpp

int main(int argc, char** argv) { return simrankpp::Main(argc, argv); }
