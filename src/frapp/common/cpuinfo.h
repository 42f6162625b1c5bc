// Processor feature, cache-topology and core-topology detection.
//
// The counting kernels (frapp/mining/kernels.h) pick their widest usable
// SIMD implementation from the ISA feature bits; the sharded counting grids
// size their candidate/pattern tiles so a task's bitmap working set fits the
// detected L2; and the thread pool's optional affinity pinning targets one
// worker per PHYSICAL core, because the counting loops are memory-bandwidth
// bound and gain nothing from SMT siblings contending for the same load
// ports. Detection is best-effort and layered the way mxnet's cpuinfo module
// does it — sysfs first (exact on Linux), then cpuid (exact on x86), then
// conservative defaults — so every field is always usable; `*_detected`
// flags say whether a value was measured or assumed.
//
// Detection runs once, on first use, and is immutable afterwards: every
// consumer (kernel dispatch, tiling, pinning, the `frapp cpuinfo`
// subcommand, bench context) sees the same snapshot.

#ifndef FRAPP_COMMON_CPUINFO_H_
#define FRAPP_COMMON_CPUINFO_H_

#include <cstddef>
#include <string>
#include <vector>

namespace frapp {
namespace common {

/// ISA feature bits relevant to the counting kernels. All false on non-x86.
struct CpuFeatures {
  bool sse42 = false;
  bool avx2 = false;
  bool avx512f = false;
  bool avx512bw = false;
  bool avx512dq = false;
  bool avx512vl = false;
  bool avx512vpopcntdq = false;
};

/// Data-cache geometry. Values fall back to conservative x86 defaults
/// (32 KiB L1d, 1 MiB L2, 64 B lines) when neither sysfs nor cpuid could
/// measure them; `detected` distinguishes measured from assumed.
struct CacheGeometry {
  size_t l1d_bytes = 32 * 1024;
  size_t l2_bytes = 1024 * 1024;
  size_t l3_bytes = 0;  // 0 = unknown/absent
  size_t line_bytes = 64;
  bool detected = false;
};

/// One immutable snapshot of the host processor.
struct CpuInfo {
  CpuFeatures features;
  CacheGeometry cache;

  /// Logical CPUs visible to this process (never 0).
  size_t logical_cpus = 1;

  /// Distinct physical cores (SMT siblings collapsed; never 0). Falls back
  /// to logical_cpus when the sysfs topology is unreadable.
  size_t physical_cores = 1;
  bool topology_detected = false;

  /// One representative logical-CPU id per physical core (the lowest-
  /// numbered SMT sibling), ascending — the pin targets of
  /// ThreadPool::SetPinPhysicalCores. Size == physical_cores.
  std::vector<int> physical_core_cpus;
};

/// The process-wide snapshot, detected on first call (thread-safe).
const CpuInfo& GetCpuInfo();

/// Human-readable multi-line dump (the `frapp cpuinfo` body).
std::string CpuInfoSummary(const CpuInfo& info);

namespace internal {
/// Runs detection from scratch (no caching) — exposed so tests can check
/// detection is deterministic without touching the shared snapshot.
CpuInfo DetectCpuInfo();
}  // namespace internal

}  // namespace common
}  // namespace frapp

#endif  // FRAPP_COMMON_CPUINFO_H_
