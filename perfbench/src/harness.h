// Shared measurement plumbing of the perfbench workloads: run
// configuration, latency samples, the closed-loop runner, output checks and
// the metric tables every workload reports.
//
// Every workload reports the same end-to-end metrics (untraced run) and the
// same per-layer metrics (traced run); a layer a workload never enters
// reports 0, which is itself the prediction the per-layer table makes for it.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/data/table.h"
#include "frapp/dist/mechanism_spec.h"
#include "frapp/mining/apriori.h"

namespace perfbench {

using frapp::Status;
using frapp::StatusOr;

/// Rows of the 2M-row workloads (40x the paper's CENSUS size).
inline constexpr size_t kTableRows = 2000000;

/// Worker threads of every single-process mine. One fewer than the 4-CPU
/// reference box has: with all 4 busy, a parallel phase waits for whichever
/// thread the host preempts, and runs during host contention took twice as
/// long while 3-thread workloads in the same minutes did not move.
inline constexpr size_t kThreads = 3;

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetupRepeats = 9;

struct RunConfig {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout for FRAPPBIN/FRAPPCNT files;
  /// created and removed by main.
  std::string tmp_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra diagnostic lines printed before the result line.
  std::vector<std::string> notes;
};

/// Independent 64-bit stream `stream` of the workload seed (SplitMix64).
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Milliseconds since a common::NowNanos() sample.
double MillisSince(uint64_t start_nanos);

/// Latency samples in milliseconds.
class Samples {
 public:
  void Add(double ms) { values_.push_back(ms); }
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, q in (0, 1]; 0 when empty.
  double Percentile(double q) const;

 private:
  std::vector<double> values_;
};

/// Failed-or-wrong and total operation counts. An op that returns a non-OK
/// Status or a wrong output is attempted and failed, never skipped.
struct OpTally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One op of a single-caller closed loop: its timed milliseconds and whether
/// it succeeded with the right output. Input preparation and checking run
/// outside `ms`.
struct OpOutcome {
  double ms = 0.0;
  bool ok = false;
};

/// What a closed loop measured after its warm-up.
struct LoopResult {
  Samples latencies;
  double busy_seconds = 0.0;
};

/// The measured loops of one run, each a closed loop with one caller:
/// warm-up ops first (at least 3 and at least a tenth of the loop's seconds
/// of op time), then ops until the loop's seconds of op time are measured.
/// Untraced runs fill `untraced` over the whole `seconds`; traced runs split
/// them into an untraced half and a traced half, so bench.trace_overhead_pct
/// compares the two in one process. Every op, warm-up included, lands in
/// `tally`.
struct MeasuredLoops {
  LoopResult untraced;
  LoopResult traced;
};

MeasuredLoops RunMeasuredLoops(
    const RunConfig& config,
    const std::function<OpOutcome(bool warmup, bool traced)>& op,
    OpTally* tally);

/// Runs `make` kSetupRepeats times, each after the previous fixture is
/// destroyed, and keeps the last fixture. `seconds` receives each set-up's
/// wall time.
template <class Fixture>
StatusOr<std::unique_ptr<Fixture>> SetUpRepeatedly(
    const std::function<StatusOr<std::unique_ptr<Fixture>>()>& make,
    std::vector<double>* seconds);

/// Bitwise equality of two mined results: itemsets, support doubles and
/// candidates per pass.
bool SameMined(const frapp::mining::AprioriResult& a,
               const frapp::mining::AprioriResult& b);

/// The seeded census stand-in table.
StatusOr<frapp::data::CategoricalTable> GenerateCensus(size_t rows,
                                                       uint64_t seed);

/// Paper Section 7 accuracy (overall rho, sigma-, sigma+ in percent).
struct Accuracy {
  double support_error = 0.0;
  double sigma_minus = 0.0;
  double sigma_plus = 0.0;
};

/// Accuracy of the pipeline mine with `spec` (supmin 0.02) against
/// mining::MineExact, both over the canonical census table of `rows` rows
/// (data::census::kDefaultSeed, perturbation seed 7). The canonical input
/// does not depend on the workload seed, so the three numbers repeat
/// exactly from run to run and act as a checksum of the mined output.
StatusOr<Accuracy> CanonicalAccuracy(const frapp::dist::MechanismSpec& spec,
                                     size_t rows);

/// Inputs of the end-to-end metric table.
struct EndToEnd {
  std::vector<double> setup_seconds;
  Samples latencies;
  /// Wall seconds the measured ops kept the system busy (closed loops with
  /// one caller: summed op time; several callers: the window's wall time).
  double busy_seconds = 0.0;
  OpTally tally;
  Accuracy accuracy;
};

/// Sums of per-op layer values over the traced ops of a run.
class LayerSums {
 public:
  void Add(const std::string& name, double value) { sums_[name] += value; }
  /// mining.candidates, mining.frequent and mining.useful_candidate_ratio
  /// of one mined result.
  void AddMined(const frapp::mining::AprioriResult& mined);
  void CountOp() { ++ops_; }
  /// Every sum divided by the op count.
  std::map<std::string, double> PerOp() const;

 private:
  std::map<std::string, double> sums_;
  uint64_t ops_ = 0;
};

/// The run's result. Untraced: the end-to-end metrics of `loops.untraced`.
/// Traced: `layers` plus bench.trace_overhead_pct (traced over untraced
/// latency_p50_ms). Either way the run is correct only when no op failed and
/// every traced op's output was bit-identical to the untraced ops'.
RunResult FinishRun(const RunConfig& config, EndToEnd e2e,
                    const MeasuredLoops& loops,
                    std::map<std::string, double> layers,
                    bool traced_matches_untraced);

// ---------------------------------------------------------------- template --

template <class Fixture>
StatusOr<std::unique_ptr<Fixture>> SetUpRepeatedly(
    const std::function<StatusOr<std::unique_ptr<Fixture>>()>& make,
    std::vector<double>* seconds) {
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture.reset();
    const auto start = std::chrono::steady_clock::now();
    FRAPP_ASSIGN_OR_RETURN(fixture, make());
    seconds->push_back(std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count());
  }
  return fixture;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
