// Runtime dispatch: one-time CPUID detection, SRPP_SIMD environment
// override, and a programmatic override for tests. The chosen level is
// an index into immutable per-level kernel tables, so changing it is a
// single atomic store and reading it is wait-free.
#include "util/simd/simd.h"

#include <atomic>
#include <cstdlib>

#include "util/logging.h"

namespace simrankpp {
namespace simd {
namespace {

bool CpuSupports(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return true;
    case SimdLevel::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case SimdLevel::kAvx512:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

/// Highest level that is CPU-supported AND compiled in.
SimdLevel HighestUsableLevel() {
  for (SimdLevel level : {SimdLevel::kAvx512, SimdLevel::kAvx2}) {
    if (SimdLevelSupported(level)) return level;
  }
  return SimdLevel::kScalar;
}

SimdLevel InitialLevel() {
  const SimdLevel detected = HighestUsableLevel();
  const char* env = std::getenv("SRPP_SIMD");
  if (env == nullptr || *env == '\0') return detected;
  SimdLevel requested = SimdLevel::kScalar;
  if (!ParseSimdLevel(env, &requested)) {
    SRPP_LOG_WARN << "SRPP_SIMD=" << env
                  << " is not scalar|avx2|avx512; using "
                  << SimdLevelName(detected);
    return detected;
  }
  if (!SimdLevelSupported(requested)) {
    SRPP_LOG_WARN << "SRPP_SIMD=" << env
                  << " not available on this CPU/build; using "
                  << SimdLevelName(detected);
    return detected;
  }
  return requested;
}

std::atomic<int>& LevelSlot() {
  // Function-local static: the (possibly env-overridden) detection runs
  // exactly once, on first use, thread-safely.
  static std::atomic<int> slot(static_cast<int>(InitialLevel()));
  return slot;
}

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

bool ParseSimdLevel(std::string_view text, SimdLevel* out) {
  if (text == "scalar") {
    *out = SimdLevel::kScalar;
    return true;
  }
  if (text == "avx2") {
    *out = SimdLevel::kAvx2;
    return true;
  }
  if (text == "avx512") {
    *out = SimdLevel::kAvx512;
    return true;
  }
  return false;
}

SimdLevel DetectCpuSimdLevel() {
  if (CpuSupports(SimdLevel::kAvx512)) return SimdLevel::kAvx512;
  if (CpuSupports(SimdLevel::kAvx2)) return SimdLevel::kAvx2;
  return SimdLevel::kScalar;
}

bool SimdLevelSupported(SimdLevel level) {
  return CpuSupports(level) && KernelsFor(level) != nullptr;
}

SimdLevel ActiveSimdLevel() {
  return static_cast<SimdLevel>(LevelSlot().load());
}

bool SetSimdLevel(SimdLevel level) {
  if (!SimdLevelSupported(level)) return false;
  LevelSlot().store(static_cast<int>(level));
  return true;
}

const KernelTable* KernelsFor(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return internal::ScalarKernels();
    case SimdLevel::kAvx2:
      return internal::Avx2Kernels();
    case SimdLevel::kAvx512:
      return internal::Avx512Kernels();
  }
  return nullptr;
}

const KernelTable& ActiveKernels() {
  const KernelTable* table = KernelsFor(ActiveSimdLevel());
  // ActiveSimdLevel() only ever holds usable levels, so table is
  // non-null; the check documents (and enforces) that invariant.
  SRPP_CHECK(table != nullptr) << "no kernels for active level";
  return *table;
}

}  // namespace simd
}  // namespace simrankpp
