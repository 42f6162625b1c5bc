// The four perfbench workloads. Each one sets itself up kSetupRepeats
// times from the workload seed, builds its reference outputs outside the
// timed region, runs its closed loop, checks every op, and returns the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// README.md in this directory says why each workload exists.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

StatusOr<RunResult> RunBatchDetGd(const RunConfig& config);
StatusOr<RunResult> RunDistMask(const RunConfig& config);
StatusOr<RunResult> RunServeDrilldown(const RunConfig& config);
StatusOr<RunResult> RunAppendWindow(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
