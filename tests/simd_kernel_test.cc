// Kernel-level tests for src/util/simd/: every kernel, every compiled
// dispatch level, swept over lengths 0..130 (covering empty, tail-only,
// whole-block, and block+tail shapes) and unaligned base offsets.
//
// Every table must match the scalar table BIT FOR BIT — that is the
// determinism contract (docs/SIMD_KERNELS.md). The scalar table is
// itself pinned against an independent re-implementation of the
// documented 8-lane order, so the contract can't drift silently.
//
// Registered with ctest once per level via SRPP_SIMD=...; main() exits
// 77 (ctest SKIP) when the requested level is unavailable on this
// CPU/build.

#include "util/simd/simd.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

#include "gtest/gtest.h"

namespace simrankpp {
namespace simd {
namespace {

constexpr std::size_t kMaxLen = 130;  // > 16 whole 8-lane blocks
constexpr std::size_t kMaxOffset = 3;

std::vector<SimdLevel> CompiledLevels() {
  std::vector<SimdLevel> levels;
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    if (SimdLevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

// Deterministic fixtures, over-allocated so base+offset sweeps stay in
// bounds.
struct Fixture {
  std::vector<double> dense;   // gather target, size kDense
  std::vector<std::uint32_t> idx;
  std::vector<double> w1;
  std::vector<double> w2;

  static constexpr std::size_t kDense = 4096;

  Fixture() {
    std::mt19937_64 rng(20260808);
    std::uniform_real_distribution<double> value(0.0, 1.0);
    std::uniform_int_distribution<std::uint32_t> index(0, kDense - 1);
    dense.resize(kDense);
    for (double& v : dense) v = value(rng);
    const std::size_t n = kMaxLen + kMaxOffset;
    idx.resize(n);
    w1.resize(n);
    w2.resize(n);
    for (std::uint32_t& i : idx) i = index(rng);
    for (double& v : w1) v = value(rng);
    for (double& v : w2) v = value(rng);
  }
};

const Fixture& Data() {
  static const Fixture fixture;
  return fixture;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Independent implementation of the documented 8-lane order, used to
// pin the scalar table to the contract (not just levels to each other).
double Reference8LaneSum(const double* terms, std::size_t n) {
  double lanes[kLanes] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (std::size_t p = 0; p < n; ++p) lanes[p % kLanes] += terms[p];
  return ReduceLanes(lanes);
}

TEST(ScalarContractTest, GatherSumFollowsDocumentedLaneOrder) {
  const Fixture& f = Data();
  const KernelTable* scalar = KernelsFor(SimdLevel::kScalar);
  ASSERT_NE(scalar, nullptr);
  for (std::size_t n = 0; n <= kMaxLen; ++n) {
    std::vector<double> terms(n);
    for (std::size_t p = 0; p < n; ++p) terms[p] = f.dense[f.idx[p]];
    const double expected = Reference8LaneSum(terms.data(), n);
    const double actual = scalar->gather_sum(f.dense.data(), f.idx.data(), n);
    EXPECT_TRUE(BitEqual(expected, actual)) << "n=" << n;
  }
}

TEST(ScalarContractTest, GatherSumWeightedFollowsDocumentedLaneOrder) {
  const Fixture& f = Data();
  const KernelTable* scalar = KernelsFor(SimdLevel::kScalar);
  ASSERT_NE(scalar, nullptr);
  const double scale = 0.8125;
  for (std::size_t n = 0; n <= kMaxLen; ++n) {
    std::vector<double> terms(n);
    for (std::size_t p = 0; p < n; ++p) {
      terms[p] = (scale * f.w1[p]) * f.dense[f.idx[p]];
    }
    const double expected = Reference8LaneSum(terms.data(), n);
    const double actual = scalar->gather_sum_weighted(
        f.dense.data(), f.idx.data(), f.w1.data(), scale, n);
    EXPECT_TRUE(BitEqual(expected, actual)) << "n=" << n;
  }
}

class PerLevelTest : public ::testing::TestWithParam<SimdLevel> {
 protected:
  const KernelTable& Level() const {
    const KernelTable* table = KernelsFor(GetParam());
    EXPECT_NE(table, nullptr);
    return *table;
  }
  const KernelTable& Scalar() const { return *KernelsFor(SimdLevel::kScalar); }
};

TEST_P(PerLevelTest, GatherSumBitIdenticalToScalar) {
  const Fixture& f = Data();
  for (std::size_t off = 0; off <= kMaxOffset; ++off) {
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      const double expected =
          Scalar().gather_sum(f.dense.data(), f.idx.data() + off, n);
      const double actual =
          Level().gather_sum(f.dense.data(), f.idx.data() + off, n);
      EXPECT_TRUE(BitEqual(expected, actual))
          << Level().name << " n=" << n << " off=" << off;
    }
  }
}

TEST_P(PerLevelTest, GatherSumWeightedBitIdenticalToScalar) {
  const Fixture& f = Data();
  const double scale = 0.4375;
  for (std::size_t off = 0; off <= kMaxOffset; ++off) {
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      const double expected = Scalar().gather_sum_weighted(
          f.dense.data(), f.idx.data() + off, f.w1.data() + off, scale, n);
      const double actual = Level().gather_sum_weighted(
          f.dense.data(), f.idx.data() + off, f.w1.data() + off, scale, n);
      EXPECT_TRUE(BitEqual(expected, actual))
          << Level().name << " n=" << n << " off=" << off;
    }
  }
}

TEST_P(PerLevelTest, AxpyBitIdenticalToScalar) {
  const Fixture& f = Data();
  const double a = 0.59375;
  for (std::size_t off = 0; off <= kMaxOffset; ++off) {
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      std::vector<double> y_expected(f.w2.begin(), f.w2.end());
      std::vector<double> y_actual(f.w2.begin(), f.w2.end());
      Scalar().axpy(a, f.w1.data() + off, y_expected.data() + off, n);
      Level().axpy(a, f.w1.data() + off, y_actual.data() + off, n);
      EXPECT_EQ(0, std::memcmp(y_expected.data(), y_actual.data(),
                               y_expected.size() * sizeof(double)))
          << Level().name << " n=" << n << " off=" << off;
    }
  }
}

TEST_P(PerLevelTest, PearsonAccumulateBitIdenticalToScalar) {
  const Fixture& f = Data();
  const double mean1 = 0.5;
  const double mean2 = 0.25;
  for (std::size_t off = 0; off <= kMaxOffset; ++off) {
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      double num_e = 0, d1_e = 0, d2_e = 0, num_a = 0, d1_a = 0, d2_a = 0;
      Scalar().pearson_accumulate(f.w1.data() + off, f.w2.data() + off, n,
                                  mean1, mean2, &num_e, &d1_e, &d2_e);
      Level().pearson_accumulate(f.w1.data() + off, f.w2.data() + off, n,
                                 mean1, mean2, &num_a, &d1_a, &d2_a);
      EXPECT_TRUE(BitEqual(num_e, num_a) && BitEqual(d1_e, d1_a) &&
                  BitEqual(d2_e, d2_a))
          << Level().name << " n=" << n << " off=" << off;
    }
  }
}

TEST_P(PerLevelTest, CountCommonSortedMatchesScalar) {
  std::mt19937_64 rng(424242);
  // Random strictly ascending u32 arrays across densities and skews,
  // including empty and tail-only sizes.
  auto make_sorted = [&rng](std::size_t n, std::uint32_t stride_max) {
    std::vector<std::uint32_t> v(n);
    std::uint32_t cur = 0;
    std::uniform_int_distribution<std::uint32_t> step(1, stride_max);
    for (std::size_t i = 0; i < n; ++i) {
      cur += step(rng);
      v[i] = cur;
    }
    return v;
  };
  for (std::size_t na : {0u, 1u, 2u, 7u, 8u, 9u, 16u, 31u, 64u, 130u}) {
    for (std::size_t nb : {0u, 1u, 3u, 8u, 15u, 16u, 17u, 129u, 130u, 500u}) {
      for (std::uint32_t stride : {1u, 2u, 5u}) {
        const auto a = make_sorted(na, stride);
        const auto b = make_sorted(nb, stride);
        EXPECT_EQ(Scalar().count_common_sorted(a.data(), na, b.data(), nb),
                  Level().count_common_sorted(a.data(), na, b.data(), nb))
            << Level().name << " na=" << na << " nb=" << nb
            << " stride=" << stride;
        // Both argument orders (the kernel is not assumed symmetric).
        EXPECT_EQ(Scalar().count_common_sorted(b.data(), nb, a.data(), na),
                  Level().count_common_sorted(b.data(), nb, a.data(), na))
            << Level().name << " na=" << na << " nb=" << nb;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCompiledLevels, PerLevelTest, ::testing::ValuesIn(CompiledLevels()),
    [](const ::testing::TestParamInfo<SimdLevel>& info) {
      return SimdLevelName(info.param);
    });

TEST(DispatchTest, ParseRoundTrips) {
  for (SimdLevel level :
       {SimdLevel::kScalar, SimdLevel::kAvx2, SimdLevel::kAvx512}) {
    SimdLevel parsed = SimdLevel::kScalar;
    EXPECT_TRUE(ParseSimdLevel(SimdLevelName(level), &parsed));
    EXPECT_EQ(level, parsed);
  }
  SimdLevel parsed = SimdLevel::kScalar;
  EXPECT_FALSE(ParseSimdLevel("", &parsed));
  EXPECT_FALSE(ParseSimdLevel("AVX2", &parsed));
  EXPECT_FALSE(ParseSimdLevel("sse", &parsed));
}

TEST(DispatchTest, EnvOverrideIsHonored) {
  // main() already skipped (77) if the env requests an unsupported
  // level, so a parseable SRPP_SIMD here must be the active level.
  const char* env = std::getenv("SRPP_SIMD");
  SimdLevel requested = SimdLevel::kScalar;
  if (env == nullptr || !ParseSimdLevel(env, &requested)) {
    GTEST_SKIP() << "SRPP_SIMD not set to a valid level";
  }
  EXPECT_EQ(requested, ActiveSimdLevel());
  EXPECT_STREQ(SimdLevelName(requested), ActiveKernels().name);
}

TEST(DispatchTest, SetSimdLevelRoundTrips) {
  const SimdLevel before = ActiveSimdLevel();
  for (SimdLevel level : CompiledLevels()) {
    EXPECT_TRUE(SetSimdLevel(level));
    EXPECT_EQ(level, ActiveSimdLevel());
  }
  if (!SimdLevelSupported(SimdLevel::kAvx512)) {
    EXPECT_FALSE(SetSimdLevel(SimdLevel::kAvx512));
  }
  EXPECT_TRUE(SetSimdLevel(before));
}

TEST(DispatchTest, ActiveLevelNeverExceedsCpu) {
  EXPECT_LE(static_cast<int>(ActiveSimdLevel()),
            static_cast<int>(DetectCpuSimdLevel()));
}

}  // namespace
}  // namespace simd
}  // namespace simrankpp

int main(int argc, char** argv) {
  const char* env = std::getenv("SRPP_SIMD");
  if (env != nullptr && *env != '\0') {
    simrankpp::simd::SimdLevel requested;
    if (simrankpp::simd::ParseSimdLevel(env, &requested) &&
        !simrankpp::simd::SimdLevelSupported(requested)) {
      std::fprintf(stderr,
                   "SRPP_SIMD=%s is not available on this CPU/build; "
                   "skipping simd_kernel_test\n",
                   env);
      return 77;  // ctest SKIP_RETURN_CODE
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
