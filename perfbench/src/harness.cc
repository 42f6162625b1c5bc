#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>

#include "frapp/common/clock.h"
#include "frapp/data/census.h"
#include "frapp/eval/metrics.h"
#include "frapp/pipeline/privacy_pipeline.h"

namespace perfbench {

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must list exactly the names and units of BENCHMARK.json (run.py checks).
constexpr MetricSpec kPerLayer[] = {
    {"pipeline.source_wait_ms", "ms"},
    {"pipeline.shard_stage_ms", "ms"},
    {"core.perturb_busy_ms", "ms"},
    {"core.perturb_calls", "count"},
    {"mining.count_ms", "ms"},
    {"mining.count_calls", "count"},
    {"core.reconstruct_ms", "ms"},
    {"mining.apriori_self_ms", "ms"},
    {"mining.candidates", "count"},
    {"mining.frequent", "count"},
    {"mining.useful_candidate_ratio", "ratio"},
    {"dist.connect_ms", "ms"},
    {"dist.mine_ms", "ms"},
    {"dist.recv_wait_ms", "ms"},
    {"dist.send_ms", "ms"},
    {"dist.merge_ms", "ms"},
    {"dist.bytes_out", "bytes"},
    {"dist.bytes_in", "bytes"},
    {"dist.requests", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.coalesced", "count"},
    {"serve.mine_runs", "count"},
    {"serve.evictions", "count"},
    {"serve.hit_latency_p50_ms", "ms"},
    {"serve.miss_latency_p50_ms", "ms"},
    {"serve.rules_latency_p50_ms", "ms"},
    {"serve.topk_latency_p50_ms", "ms"},
    {"serve.wire_overhead_p50_ms", "ms"},
    {"serve.mine_queries", "count"},
    {"serve.topk_queries", "count"},
    {"serve.rules_queries", "count"},
    {"serve.hit_queries", "count"},
    {"serve.miss_queries", "count"},
    {"store.load_ms", "ms"},
    {"store.save_ms", "ms"},
    {"store.bytes_written", "bytes"},
    {"store.append_mine_ms", "ms"},
    {"data.append_file_ms", "ms"},
    {"store.hits", "count"},
    {"store.misses", "count"},
    {"store.fallbacks", "count"},
    {"store.delta_chunks", "count"},
    {"store.expired_chunks", "count"},
    {"store.entries", "count"},
    {"bench.traced_ops", "count"},
    {"bench.trace_overhead_pct", "%"},
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

LoopResult RunClosedLoop(double seconds,
                         const std::function<OpOutcome(bool warmup)>& op,
                         OpTally* tally) {
  LoopResult result;
  // Bounds the whole loop, checks included, well inside the per-run limit
  // even when ops turn out far slower than expected.
  const uint64_t wall_start = frapp::common::NowNanos();
  const double wall_cap_ms = (2.0 * seconds + 20.0) * 1000.0;
  double warm_ms = 0.0;
  for (int ops = 0; ops < 3 || warm_ms < 100.0 * seconds;) {
    const OpOutcome outcome = op(/*warmup=*/true);
    tally->Record(outcome.ok);
    warm_ms += outcome.ms;
    ++ops;
    if (MillisSince(wall_start) > wall_cap_ms / 4) break;
  }
  while (result.busy_seconds < seconds &&
         (result.latencies.size() == 0 || MillisSince(wall_start) < wall_cap_ms)) {
    const OpOutcome outcome = op(/*warmup=*/false);
    tally->Record(outcome.ok);
    result.latencies.Add(outcome.ms);
    result.busy_seconds += outcome.ms / 1000.0;
  }
  return result;
}

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Every end_to_end metric of BENCHMARK.json, in its order.
std::vector<Metric> EndToEndMetrics(const EndToEnd& in) {
  const double ops = static_cast<double>(in.latencies.size());
  const double ok_ratio =
      in.tally.attempted == 0
          ? 0.0
          : static_cast<double>(in.tally.attempted - in.tally.failed) /
                static_cast<double>(in.tally.attempted);
  return {
      {"setup_s", Median(in.setup_seconds), "s"},
      {"latency_p50_ms", in.latencies.Percentile(0.5), "ms"},
      {"latency_p90_ms", in.latencies.Percentile(0.9), "ms"},
      {"throughput_ops_s", in.busy_seconds > 0 ? ops / in.busy_seconds : 0.0,
       "1/s"},
      {"ops_ok_ratio", ok_ratio, "ratio"},
      {"peak_rss_mib", PeakRssMib(), "MiB"},
      {"support_error_pct", in.accuracy.support_error, "%"},
      {"identity_minus_pct", in.accuracy.sigma_minus, "%"},
      {"identity_plus_pct", in.accuracy.sigma_plus, "%"},
  };
}

// Every per_layer metric of BENCHMARK.json, in its order; names missing
// from `values` (layers the workload never enters) report 0.
std::vector<Metric> PerLayerMetrics(
    const std::map<std::string, double>& values) {
  std::vector<Metric> out;
  for (const MetricSpec& spec : kPerLayer) {
    const auto it = values.find(spec.name);
    out.push_back({spec.name, it == values.end() ? 0.0 : it->second, spec.unit});
  }
  return out;
}

}  // namespace

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double MillisSince(uint64_t start_nanos) {
  return static_cast<double>(frapp::common::NowNanos() - start_nanos) / 1e6;
}

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::clamp<size_t>(rank, 1, sorted.size()) - 1];
}

MeasuredLoops RunMeasuredLoops(
    const RunConfig& config,
    const std::function<OpOutcome(bool warmup, bool traced)>& op,
    OpTally* tally) {
  MeasuredLoops loops;
  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  loops.untraced = RunClosedLoop(
      untraced_seconds, [&](bool warmup) { return op(warmup, false); }, tally);
  if (config.trace) {
    loops.traced = RunClosedLoop(
        config.seconds / 2, [&](bool warmup) { return op(warmup, true); },
        tally);
  }
  return loops;
}

bool SameMined(const frapp::mining::AprioriResult& a,
               const frapp::mining::AprioriResult& b) {
  if (a.candidates_per_pass != b.candidates_per_pass) return false;
  if (a.by_length.size() != b.by_length.size()) return false;
  for (size_t k = 0; k < a.by_length.size(); ++k) {
    const auto& x = a.by_length[k];
    const auto& y = b.by_length[k];
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (!(x[i].itemset == y[i].itemset)) return false;
      if (std::bit_cast<uint64_t>(x[i].support) !=
          std::bit_cast<uint64_t>(y[i].support)) {
        return false;
      }
    }
  }
  return true;
}

StatusOr<frapp::data::CategoricalTable> GenerateCensus(size_t rows,
                                                       uint64_t seed) {
  FRAPP_ASSIGN_OR_RETURN(const frapp::data::ChainGenerator generator,
                         frapp::data::census::Generator());
  return generator.Generate(rows, seed);
}

StatusOr<Accuracy> CanonicalAccuracy(const frapp::dist::MechanismSpec& spec,
                                     size_t rows) {
  FRAPP_ASSIGN_OR_RETURN(
      const frapp::data::CategoricalTable table,
      GenerateCensus(rows, frapp::data::census::kDefaultSeed));
  frapp::mining::AprioriOptions mining;
  mining.min_support = 0.02;
  mining.num_threads = kThreads;
  FRAPP_ASSIGN_OR_RETURN(const frapp::mining::AprioriResult exact,
                         frapp::mining::MineExact(table, mining));
  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<frapp::core::Mechanism> mechanism,
                         frapp::dist::MakeMechanism(spec, table.schema()));
  frapp::pipeline::PipelineOptions options;
  options.num_shards = 0;
  options.num_threads = kThreads;
  options.mining.min_support = 0.02;
  FRAPP_ASSIGN_OR_RETURN(
      const frapp::pipeline::PipelineResult mined,
      frapp::pipeline::PrivacyPipeline(options).Run(*mechanism, table));
  const frapp::eval::LengthAccuracy overall = frapp::eval::OverallAccuracy(
      frapp::eval::CompareMiningResults(exact, mined.mined));
  return Accuracy{overall.support_error, overall.sigma_minus,
                  overall.sigma_plus};
}

void LayerSums::AddMined(const frapp::mining::AprioriResult& mined) {
  double candidates = 0;
  for (size_t c : mined.candidates_per_pass) candidates += c;
  const double frequent = static_cast<double>(mined.TotalFrequent());
  Add("mining.candidates", candidates);
  Add("mining.frequent", frequent);
  Add("mining.useful_candidate_ratio",
      candidates > 0 ? frequent / candidates : 0.0);
}

std::map<std::string, double> LayerSums::PerOp() const {
  std::map<std::string, double> out;
  for (const auto& [name, sum] : sums_) {
    out[name] = ops_ == 0 ? 0.0 : sum / static_cast<double>(ops_);
  }
  out["bench.traced_ops"] = static_cast<double>(ops_);
  return out;
}

RunResult FinishRun(const RunConfig& config, EndToEnd e2e,
                    const MeasuredLoops& loops,
                    std::map<std::string, double> layers,
                    bool traced_matches_untraced) {
  RunResult result;
  result.attempted = e2e.tally.attempted;
  result.failed = e2e.tally.failed;
  result.correct = e2e.tally.failed == 0 && traced_matches_untraced;
  result.notes.push_back(
      "latency samples: untraced " +
      std::to_string(loops.untraced.latencies.size()) + ", traced " +
      std::to_string(loops.traced.latencies.size()));
  if (config.trace) {
    const double base = loops.untraced.latencies.Percentile(0.5);
    layers["bench.trace_overhead_pct"] =
        base > 0 ? 100.0 * (loops.traced.latencies.Percentile(0.5) / base - 1.0)
                 : 0.0;
    result.metrics = PerLayerMetrics(layers);
    result.notes.push_back(std::string("trace self-test: traced outputs ") +
                           (traced_matches_untraced ? "bit-identical to"
                                                    : "DIFFER from") +
                           " untraced outputs");
  } else {
    e2e.latencies = loops.untraced.latencies;
    e2e.busy_seconds = loops.untraced.busy_seconds;
    result.metrics = EndToEndMetrics(e2e);
  }
  return result;
}

}  // namespace perfbench
