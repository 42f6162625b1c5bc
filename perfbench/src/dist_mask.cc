// dist-mask: one caller, each op one dist::Coordinator::Connect + Mine with
// MASK (gamma 19, supmin 0.02) over a 2M-row FRAPPBIN file split across 3
// in-process workers. Each worker serves TCP loopback sessions from its own
// thread with 1 thread, its own BinaryTableSource and no index cache, so
// every op re-ingests, re-perturbs and re-indexes. Every op must equal, bit
// for bit, a PrivacyPipeline MASK run over the in-memory table.

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "frapp/common/clock.h"
#include "frapp/data/shard_io.h"
#include "frapp/dist/coordinator.h"
#include "frapp/dist/worker.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace dist = frapp::dist;
namespace pipeline = frapp::pipeline;
using frapp::common::NowNanos;

constexpr size_t kWorkers = 3;

/// kWorkers loopback listeners, each with an accept loop serving one
/// coordinator session at a time. Closing the listeners ends the loops.
class WorkerFleet {
 public:
  WorkerFleet(const WorkerFleet&) = delete;
  WorkerFleet& operator=(const WorkerFleet&) = delete;

  static StatusOr<std::unique_ptr<WorkerFleet>> Start(
      const std::string& path, const frapp::data::CategoricalSchema& schema) {
    std::unique_ptr<WorkerFleet> fleet(new WorkerFleet());
    for (size_t w = 0; w < kWorkers; ++w) {
      FRAPP_ASSIGN_OR_RETURN(dist::TcpListener listener,
                             dist::TcpListener::Bind("127.0.0.1", 0));
      fleet->listeners_.push_back(
          std::make_unique<dist::TcpListener>(std::move(listener)));
    }
    dist::WorkerOptions options(schema);
    options.num_threads = 1;
    WorkerFleet* self = fleet.get();
    options.source_factory =
        [path, schema,
         self]() -> StatusOr<std::unique_ptr<pipeline::TableSource>> {
      FRAPP_ASSIGN_OR_RETURN(pipeline::BinaryTableSource source,
                             pipeline::BinaryTableSource::Open(path, schema));
      auto binary =
          std::make_unique<pipeline::BinaryTableSource>(std::move(source));
      if (!self->tracing.load()) {
        return std::unique_ptr<pipeline::TableSource>(std::move(binary));
      }
      return std::unique_ptr<pipeline::TableSource>(
          std::make_unique<TracedSource>(std::move(binary), &self->clock));
    };
    for (auto& listener : fleet->listeners_) {
      fleet->threads_.emplace_back([self, options, l = listener.get()] {
        while (true) {
          StatusOr<std::unique_ptr<dist::Transport>> transport = l->Accept();
          if (!transport.ok()) return;  // listener closed
          if (!dist::ServeWorker(**transport, options).ok()) {
            self->failed_sessions.fetch_add(1);
          }
        }
      });
    }
    return fleet;
  }

  ~WorkerFleet() {
    for (auto& listener : listeners_) listener->Close();
    for (std::thread& thread : threads_) thread.join();
  }

  std::vector<uint16_t> ports() const {
    std::vector<uint16_t> out;
    for (const auto& listener : listeners_) out.push_back(listener->port());
    return out;
  }

  /// Worker-side source waits land here while `tracing` is set.
  LayerClock clock;
  std::atomic<bool> tracing{false};
  std::atomic<uint64_t> failed_sessions{0};

 private:
  WorkerFleet() = default;

  std::vector<std::unique_ptr<dist::TcpListener>> listeners_;
  std::vector<std::thread> threads_;  // after the listeners they use
};

struct Fixture {
  frapp::data::CategoricalTable table;
  std::unique_ptr<WorkerFleet> fleet;
};

}  // namespace

StatusOr<RunResult> RunDistMask(const RunConfig& config) {
  dist::MechanismSpec spec;
  spec.kind = dist::MechanismSpec::Kind::kMask;
  dist::CoordinatorOptions coordinator_options;
  coordinator_options.perturb_seed = DeriveSeed(config.seed, 1);
  frapp::mining::AprioriOptions mining;
  mining.min_support = 0.02;

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
            FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<WorkerFleet> fleet,
                                   WorkerFleet::Start(path, table.schema()));
            return std::make_unique<Fixture>(
                Fixture{std::move(table), std::move(fleet)});
          },
          &e2e.setup_seconds));
  const frapp::data::CategoricalSchema& schema = fixture->table.schema();
  WorkerFleet& fleet = *fixture->fleet;

  FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<frapp::core::Mechanism> mechanism,
                         dist::MakeMechanism(spec, schema));
  pipeline::PipelineOptions reference_options;
  reference_options.num_shards = 0;
  reference_options.num_threads = kThreads;
  reference_options.perturb_seed = coordinator_options.perturb_seed;
  reference_options.mining = mining;
  FRAPP_ASSIGN_OR_RETURN(const pipeline::PipelineResult reference,
                         pipeline::PrivacyPipeline(reference_options)
                             .Run(*mechanism, fixture->table));
  FRAPP_ASSIGN_OR_RETURN(e2e.accuracy, CanonicalAccuracy(spec, kTableRows));

  LayerSums sums;
  bool traced_matches_untraced = true;
  std::optional<frapp::mining::AprioriResult> last_untraced;
  const auto op = [&](bool warmup, bool traced) -> OpOutcome {
    LayerClock clock;  // coordinator side
    fleet.tracing.store(traced);
    const uint64_t worker_wait_before = fleet.clock.source_wait_ns.load();
    const uint64_t start = NowNanos();
    uint64_t connected = start, mined_at = start;
    dist::DistStats stats;
    StatusOr<frapp::mining::AprioriResult> run =
        [&]() -> StatusOr<frapp::mining::AprioriResult> {
      std::vector<std::unique_ptr<dist::Transport>> transports;
      for (uint16_t port : fleet.ports()) {
        FRAPP_ASSIGN_OR_RETURN(std::unique_ptr<dist::Transport> transport,
                               dist::TcpConnect("127.0.0.1", port));
        if (traced) {
          transport =
              std::make_unique<TracedTransport>(std::move(transport), &clock);
        }
        transports.push_back(std::move(transport));
      }
      FRAPP_ASSIGN_OR_RETURN(
          std::unique_ptr<dist::Coordinator> coordinator,
          dist::Coordinator::Connect(std::move(transports), schema, spec,
                                     kTableRows, coordinator_options));
      connected = NowNanos();
      StatusOr<frapp::mining::AprioriResult> mined = coordinator->Mine(mining);
      mined_at = NowNanos();
      stats = coordinator->stats();
      coordinator->Shutdown();
      return mined;
    }();
    const uint64_t end = NowNanos();
    const bool ok = run.ok() && SameMined(*run, reference.mined);
    if (ok && !traced) last_untraced = *run;
    if (ok && traced) {
      traced_matches_untraced &=
          last_untraced.has_value() && SameMined(*run, *last_untraced);
      if (!warmup) {
        sums.Add("dist.connect_ms", (connected - start) / 1e6);
        sums.Add("dist.mine_ms", (mined_at - connected) / 1e6);
        sums.Add("dist.recv_wait_ms", clock.recv_ns.load() / 1e6);
        sums.Add("dist.send_ms", clock.send_ns.load() / 1e6);
        sums.Add("dist.merge_ms", stats.merge_nanos / 1e6);
        sums.Add("dist.bytes_out", stats.bytes_sent);
        sums.Add("dist.bytes_in", stats.bytes_received);
        sums.Add("dist.requests", stats.requests_sent);
        sums.Add("pipeline.source_wait_ms",
                 (fleet.clock.source_wait_ns.load() - worker_wait_before) / 1e6);
        sums.AddMined(*run);
        sums.CountOp();
      }
    }
    return {(end - start) / 1e6, ok};
  };
  const MeasuredLoops loops = RunMeasuredLoops(config, op, &e2e.tally);
  // A worker session that failed while its coordinator op still looked
  // fine is a failure too.
  e2e.tally.failed = std::min(e2e.tally.attempted,
                              e2e.tally.failed + fleet.failed_sessions.load());
  return FinishRun(config, std::move(e2e), loops, sums.PerOp(),
                   traced_matches_untraced);
}

}  // namespace perfbench
