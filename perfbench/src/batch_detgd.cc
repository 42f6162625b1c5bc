// batch-detgd: one caller, each op one PrivacyPipeline::Run with DET-GD
// (gamma 19, supmin 0.02, 3 threads) over a 2M-row FRAPPBIN file. Every op
// must equal, bit for bit, a 1-thread run over an InMemoryTableSource.

#include <memory>
#include <string>

#include "frapp/common/clock.h"
#include "frapp/data/shard_io.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace pipeline = frapp::pipeline;
using frapp::common::NowNanos;

struct Fixture {
  std::string path;
  frapp::data::CategoricalTable table;
  std::unique_ptr<frapp::core::Mechanism> mechanism;
};

/// Adds one traced op's layer values.
void AddLayers(const LayerClock& clock, uint64_t end_ns,
               const frapp::mining::AprioriResult& mined, LayerSums* sums) {
  const double count_ms = clock.count_ns.load() / 1e6;
  const double estimate_ms = clock.estimate_ns.load() / 1e6;
  const uint64_t ready = clock.estimator_requested_at_ns.load();
  sums->Add("pipeline.source_wait_ms", clock.source_wait_ns.load() / 1e6);
  sums->Add("pipeline.shard_stage_ms",
            (ready - clock.first_pull_at_ns.load()) / 1e6);
  sums->Add("core.perturb_busy_ms", clock.perturb_ns.load() / 1e6);
  sums->Add("core.perturb_calls", clock.perturb_calls.load());
  sums->Add("mining.count_ms", count_ms);
  sums->Add("mining.count_calls", clock.count_calls.load());
  sums->Add("core.reconstruct_ms", estimate_ms - count_ms);
  sums->Add("mining.apriori_self_ms", (end_ns - ready) / 1e6 - estimate_ms);
  sums->AddMined(mined);
  sums->CountOp();
}

}  // namespace

StatusOr<RunResult> RunBatchDetGd(const RunConfig& config) {
  frapp::dist::MechanismSpec spec;  // DET-GD, gamma 19
  pipeline::PipelineOptions options;
  options.num_threads = kThreads;
  options.perturb_seed = DeriveSeed(config.seed, 1);
  options.mining.min_support = 0.02;

  EndToEnd e2e;
  FRAPP_ASSIGN_OR_RETURN(
      std::unique_ptr<Fixture> fixture,
      SetUpRepeatedly<Fixture>(
          [&]() -> StatusOr<std::unique_ptr<Fixture>> {
            FRAPP_ASSIGN_OR_RETURN(
                frapp::data::CategoricalTable table,
                GenerateCensus(kTableRows, DeriveSeed(config.seed, 0)));
            const std::string path = config.tmp_dir + "/census.frappbin";
            FRAPP_RETURN_IF_ERROR(frapp::data::WriteBinaryTable(table, path));
            FRAPP_ASSIGN_OR_RETURN(
                std::unique_ptr<frapp::core::Mechanism> mechanism,
                frapp::dist::MakeMechanism(spec, table.schema()));
            return std::make_unique<Fixture>(
                Fixture{path, std::move(table), std::move(mechanism)});
          },
          &e2e.setup_seconds));

  // Reference: the monolithic 1-thread pass over the in-memory table.
  pipeline::PipelineOptions reference_options = options;
  reference_options.num_threads = 1;
  pipeline::InMemoryTableSource reference_source(fixture->table, 1);
  FRAPP_ASSIGN_OR_RETURN(const pipeline::PipelineResult reference,
                         pipeline::PrivacyPipeline(reference_options)
                             .Run(*fixture->mechanism, reference_source));
  FRAPP_ASSIGN_OR_RETURN(e2e.accuracy, CanonicalAccuracy(spec, kTableRows));

  const frapp::data::CategoricalSchema& schema = fixture->table.schema();
  const pipeline::PrivacyPipeline pipe(options);
  LayerSums sums;
  bool traced_matches_untraced = true;
  std::optional<frapp::mining::AprioriResult> last_untraced;
  const auto op = [&](bool warmup, bool traced) -> OpOutcome {
    LayerClock clock;
    const uint64_t start = NowNanos();
    StatusOr<pipeline::PipelineResult> run =
        [&]() -> StatusOr<pipeline::PipelineResult> {
      FRAPP_ASSIGN_OR_RETURN(
          pipeline::BinaryTableSource source,
          pipeline::BinaryTableSource::Open(fixture->path, schema));
      if (!traced) return pipe.Run(*fixture->mechanism, source);
      TracedSource traced_source(
          std::make_unique<pipeline::BinaryTableSource>(std::move(source)),
          &clock);
      TracedMechanism traced_mechanism(*fixture->mechanism, &clock);
      return pipe.Run(traced_mechanism, traced_source);
    }();
    const uint64_t end = NowNanos();
    const bool ok = run.ok() && SameMined(run->mined, reference.mined);
    if (ok && !traced) last_untraced = run->mined;
    if (ok && traced) {
      traced_matches_untraced &=
          last_untraced.has_value() && SameMined(run->mined, *last_untraced);
      if (!warmup) AddLayers(clock, end, run->mined, &sums);
    }
    return {(end - start) / 1e6, ok};
  };
  const MeasuredLoops loops = RunMeasuredLoops(config, op, &e2e.tally);

  return FinishRun(config, std::move(e2e), loops, sums.PerOp(),
                   traced_matches_untraced);
}

}  // namespace perfbench
