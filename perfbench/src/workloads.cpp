#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <utility>

#include "analysis/blame.hpp"
#include "analysis/evaluate.hpp"
#include "analysis/peaks.hpp"
#include "analysis/replay.hpp"
#include "apps/btio.hpp"
#include "apps/madbench.hpp"
#include "configs/configs.hpp"
#include "monitor/monitor.hpp"
#include "obs/capture.hpp"
#include "obs/hub.hpp"
#include "obs/profiler.hpp"
#include "sim/framepool.hpp"
#include "sweep/campaign.hpp"
#include "sweep/executor.hpp"
#include "sweep/rank.hpp"
#include "sweep/store.hpp"
#include "trace/tracefile.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using namespace iop;
using configs::ConfigId;

namespace {

class Stopwatch {
 public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Seconds per call of `once`, one sample per timing, over at least
/// `minSamples` timings and `minSeconds` of calls.  Calls shorter than
/// 2 ms are timed in batches so each timing stays well above the clock's
/// resolution.
std::vector<double> timeCalls(const std::function<void()>& once,
                              double minSeconds = 0.3,
                              std::size_t minSamples = 9) {
  Stopwatch probe;
  once();
  const double first = std::max(probe.seconds(), 1e-9);
  const auto batch =
      static_cast<std::size_t>(std::max(1.0, std::ceil(2e-3 / first)));
  std::vector<double> perCall;
  Stopwatch total;
  while (perCall.size() < minSamples || total.seconds() < minSeconds) {
    Stopwatch sw;
    for (std::size_t i = 0; i < batch; ++i) once();
    perCall.push_back(sw.seconds() / static_cast<double>(batch));
  }
  return perCall;
}

void foldDigest(PassResult& pass, std::uint64_t digest) {
  pass.orderDigest = (pass.orderDigest ^ digest) * 1099511628211ULL;
}

// ------------------------------------------------------------ applications

struct App {
  std::string name;
  int np = 0;
  std::function<mpi::Runtime::RankMain(const std::string& mount)> main;
};

/// The paper's BT-IO setup (Section IV-B), FULL subtype.
App btio(apps::BtClass cls, int np) {
  const char letter = "ABCD"[static_cast<int>(cls)];
  return {std::string("btio-") + letter, np,
          [cls](const std::string& mount) {
            apps::BtioParams p;
            p.mount = mount;
            p.cls = cls;
            return apps::makeBtio(p);
          }};
}

App btioD(int np) { return btio(apps::BtClass::D, np); }

/// The paper's MADbench2 setup (Section IV-A): 16 processes, 8KPIX,
/// shared file, 32 MB requests.
App madbench(int kpix, int np) {
  return {"madbench2", np, [kpix](const std::string& mount) {
            apps::MadbenchParams p;
            p.mount = mount;
            p.kpix = kpix;
            p.bins = 8;
            p.busyWorkSeconds = 0.5;
            return apps::makeMadbench(p);
          }};
}

// ------------------------------------------------------- pipeline stages

configs::ClusterConfig makeCluster(Context& ctx, ConfigId id) {
  Scope span(ctx.spans, "configs.make");
  return configs::makeConfig(id, ctx.seed);
}

/// Count the simulated work of one finished run on an owned engine.
void countRun(Context& ctx, configs::ClusterConfig& cluster,
              const sim::FrameArena::Stats& framesBefore, double makespan) {
  const auto& frames = sim::FrameArena::local().stats();
  const double carved = static_cast<double>(
      frames.slabCarves - framesBefore.slabCarves +
      frames.fallbacks - framesBefore.fallbacks);
  const double reused =
      static_cast<double>(frames.reuses - framesBefore.reuses);
  ctx.count("sim.events",
            static_cast<double>(cluster.engine->eventsDispatched()));
  ctx.count("sim.frames", carved + reused);
  ctx.count("sim.frame_reuses", reused);
  foldDigest(ctx.pass, cluster.engine->orderDigest());
  for (const storage::Disk* disk : cluster.topology->allDisks()) {
    const auto& c = disk->counters();
    ctx.count("storage.disk_ops",
              static_cast<double>(c.readOps + c.writeOps));
    ctx.count("storage.disk_bytes",
              static_cast<double>(c.bytesRead + c.bytesWritten));
    ctx.count("storage.seeks", static_cast<double>(c.positionEvents));
  }
  ctx.count("fp.makespan_s", makespan);
}

/// Run `app` on a fresh instance of `id` with the trace tool attached
/// (the paper's PAS2P interposition).  Returns the trace.
trace::TraceData runTraced(Context& ctx, ConfigId id, const App& app,
                           double* makespanOut = nullptr) {
  Scope span(ctx.spans, "mpi.app");
  auto cluster = makeCluster(ctx, id);
  trace::Tracer tracer(app.name, app.np);
  mpi::Runtime runtime(*cluster.topology,
                       cluster.runtimeOptions(app.np, &tracer));
  auto main = app.main(cluster.mount);
  const auto framesBefore = sim::FrameArena::local().stats();
  double makespan = 0;
  {
    Scope run(ctx.spans, "mpi.run");
    makespan = runtime.runToCompletion(std::move(main));
  }
  countRun(ctx, cluster, framesBefore, makespan);
  if (makespanOut != nullptr) *makespanOut = makespan;
  auto data = tracer.takeData();
  for (const auto& records : data.perRank) {
    ctx.count("mpi.io_calls", static_cast<double>(records.size()));
  }
  return data;
}

core::IOModel extract(Context& ctx, const trace::TraceData& data) {
  Scope span(ctx.spans, "core.extract");
  auto model = core::extractModel(data);
  ctx.count("core.phases", static_cast<double>(model.phases().size()));
  return model;
}

/// Characterization (Section III-A): trace the app on configuration A,
/// write the trace files, read them back, extract the model.
core::IOModel characterize(Context& ctx, const App& app) {
  const auto data = runTraced(ctx, ConfigId::A, app);
  const fs::path dir =
      ctx.workDir / ("trace-" + app.name + "-" + std::to_string(app.np));
  {
    Scope span(ctx.spans, "trace.write");
    trace::writeTraces(dir, data);
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    ctx.count("trace.bytes", static_cast<double>(entry.file_size()));
  }
  trace::TraceData parsed;
  {
    Scope span(ctx.spans, "trace.parse");
    parsed = trace::readTraces(dir, app.name);
  }
  fs::remove_all(dir);
  return extract(ctx, parsed);
}

/// Validation run (Section III-C): the app on the target, traced in
/// memory, its measured model extracted.
core::IOModel measureOn(Context& ctx, ConfigId id, const App& app) {
  return extract(ctx, runTraced(ctx, id, app));
}

/// A replayer whose fresh target instances are built under a
/// "configs.make" span.
analysis::Replayer makeReplayer(Context& ctx, ConfigId id,
                                const std::string& mount) {
  return analysis::Replayer([&ctx, id] { return makeCluster(ctx, id); },
                            mount);
}

/// Estimation (Section III-B): replay every phase with IOR on the
/// target, one span per Replayer::measure, then assemble eqs. 1-2 from
/// the now-warm cache.
analysis::Estimate replayEstimate(Context& ctx, const core::IOModel& model,
                                  analysis::Replayer& replayer) {
  Scope span(ctx.spans, "replay.estimate");
  const std::size_t runsBefore = replayer.benchmarkRuns();
  for (const core::Phase& phase : model.phases()) {
    Scope span(ctx.spans, "replay.measure");
    replayer.measure(model, phase);
  }
  const auto estimate = analysis::estimateIoTime(model, replayer);
  ctx.pass.cells += 1;
  ctx.count("replay.measures", static_cast<double>(model.phases().size()));
  ctx.count("replay.ior_runs",
            static_cast<double>(replayer.benchmarkRuns() - runsBefore));
  ctx.count("fp.time_io_s", estimate.totalTimeSec);
  return estimate;
}

std::vector<analysis::ComparisonRow> compare(
    Context& ctx, const analysis::Estimate& estimate,
    const core::IOModel& measured) {
  Scope span(ctx.spans, "evaluate.compare");
  return analysis::compareEstimate(estimate, measured);
}

/// One estimate-and-validate target: a model replayed on a configuration.
struct Cell {
  std::string label;
  ConfigId target;
  const core::IOModel* model = nullptr;
  std::unique_ptr<analysis::Replayer> replayer;
  analysis::Estimate estimate;
};

/// Re-estimating cells through their warm replayers reproduces the cold
/// estimates.
WarmTiming warmReestimate(Context& ctx, std::vector<Cell>& cells) {
  if (cells.empty()) throw std::logic_error("no cells to re-estimate");
  WarmTiming timing;
  timing.cellsPerCall = static_cast<double>(cells.size());
  timing.callSeconds = timeCalls([&cells] {
    for (Cell& cell : cells) {
      analysis::estimateIoTime(*cell.model, *cell.replayer);
    }
  });
  for (Cell& cell : cells) {
    checkSameEstimate(ctx.checks, cell.estimate,
                      analysis::estimateIoTime(*cell.model, *cell.replayer),
                      cell.label);
  }
  return timing;
}

std::string mountOf(Context& ctx, ConfigId id) {
  return makeCluster(ctx, id).mount;
}

/// Set-up warm-up: the whole estimate-and-validate pipeline on a small
/// input, so allocator pools, the page cache and lazily built state are
/// warm before the first timed pass.
void warmUp(Context& ctx, const App& app, ConfigId target,
            const std::string& mount) {
  const auto model = characterize(ctx, app);
  auto replayer = makeReplayer(ctx, target, mount);
  const auto estimate = replayEstimate(ctx, model, replayer);
  compare(ctx, estimate, measureOn(ctx, target, app));
}

// -------------------------------------------------------------- workloads

/// Tables IX-XIV: BT-IO class D characterized on A at 36/64/121
/// processes, estimated on C at each np and on Finisterrae at 64, and
/// validated by running it on the same targets; MADbench2 16p
/// characterized on A, estimated on B and validated there, with IOzone
/// peaks and usage (eq. 5) on A and B.
class Paper final : public Workload {
 public:
  void setUp(Context& ctx) override {
    for (ConfigId id : {ConfigId::A, ConfigId::B, ConfigId::C,
                        ConfigId::Finisterrae}) {
      mounts_[id] = mountOf(ctx, id);
    }
    warmUp(ctx, btio(apps::BtClass::C, 16), ConfigId::C, mounts_[ConfigId::C]);
    warmUp(ctx, madbench(8, 16), ConfigId::B, mounts_[ConfigId::B]);
  }

  void pass(Context& ctx) override {
    cells_.clear();
    models_.clear();
    {
      Scope stage(ctx.spans, "stage.estimate");
      for (int np : {36, 64, 121}) {
        models_[np] = characterize(ctx, btioD(np));
        checkBtioPhases(ctx.checks, models_[np],
                        "characterize A " + std::to_string(np) + "p");
      }
      for (auto [id, np] : {std::pair{ConfigId::C, 36},
                            std::pair{ConfigId::C, 64},
                            std::pair{ConfigId::C, 121},
                            std::pair{ConfigId::Finisterrae, 64}}) {
        addCell(ctx, std::string(configs::configName(id)) + " " +
                         std::to_string(np) + "p",
                id, models_[np]);
      }
      madbenchA_ = characterize(ctx, madbench(8, 16));
      checkMadbenchPhases(ctx.checks, madbenchA_, "characterize A MADbench2");
      addCell(ctx, "B MADbench2", ConfigId::B, madbenchA_);
    }

    {
      Scope stage(ctx.spans, "stage.validate");
      validateBtio(ctx);
      validateMadbench(ctx);
    }
  }

  WarmTiming warm(Context& ctx) override {
    return warmReestimate(ctx, cells_);
  }

 private:
  void addCell(Context& ctx, const std::string& label, ConfigId id,
               const core::IOModel& model) {
    Cell cell;
    cell.label = label;
    cell.target = id;
    cell.model = &model;
    cell.replayer = std::make_unique<analysis::Replayer>(
        makeReplayer(ctx, id, mounts_[id]));
    cell.estimate = replayEstimate(ctx, *cell.model, *cell.replayer);
    cells_.push_back(std::move(cell));
  }

  /// Tables XIII/XIV and the Table XII selection.
  void validateBtio(Context& ctx) {
    for (std::size_t i = 0; i < kBtioCells; ++i) {
      Cell& cell = cells_[i];
      const auto measured =
          measureOn(ctx, cell.target, btioD(cell.model->np()));
      checkBtioPhases(ctx.checks, measured, "validate " + cell.label);
      const auto rows = compare(ctx, cell.estimate, measured);
      checkErrorsBelow(ctx.checks, rows, 10.0, cell.label);
      ctx.pass.errorMaxPct =
          std::max(ctx.pass.errorMaxPct, worstErrorPct(rows));
    }
    Scope span(ctx.spans, "evaluate.select");
    const std::vector<analysis::SelectionCandidate> candidates = {
        {"Configuration C", cells_[1].estimate},
        {"Finisterrae", cells_[3].estimate}};
    const auto* best = analysis::selectConfiguration(candidates);
    checkSelected(ctx.checks, best != nullptr ? best->name : "",
                  "Finisterrae");
  }

  /// Tables IX/X and the A->B comparison.
  void validateMadbench(Context& ctx) {
    const auto modelB = measureOn(ctx, ConfigId::B, madbench(8, 16));
    checkMadbenchPhases(ctx.checks, modelB, "validate B MADbench2");
    using Target = std::pair<ConfigId, const core::IOModel*>;
    for (auto [id, model] : {Target{ConfigId::A, &madbenchA_},
                             Target{ConfigId::B, &modelB}}) {
      auto cluster = makeCluster(ctx, id);
      analysis::PeakResult peaks;
      {
        Scope span(ctx.spans, "iozone.peaks");
        peaks = analysis::measurePeaks(cluster);
      }
      Scope span(ctx.spans, "evaluate.usage");
      checkUsage(ctx.checks,
                 analysis::systemUsage(*model, peaks.writePeak,
                                       peaks.readPeak),
                 std::string("usage ") + configs::configName(id));
    }
    const auto rows = compare(ctx, cells_[kBtioCells].estimate, modelB);
    ctx.checks.expect(rows.size() == 5 && std::isfinite(worstErrorPct(rows)),
                      "A->B comparison: expected 5 finite rows");
    ctx.pass.errorMaxPct = std::max(ctx.pass.errorMaxPct, worstErrorPct(rows));
  }

  /// cells_ holds the BT-IO cells first, then the MADbench2 one.
  static constexpr std::size_t kBtioCells = 4;

  std::map<ConfigId, std::string> mounts_;
  std::map<int, core::IOModel> models_;
  core::IOModel madbenchA_;
  std::vector<Cell> cells_;
};

/// A 16-cell what-if sweep: one BT-IO D 64p app entry characterized on
/// A, crossed with 4 configurations x degrade-disks 1 2 x degrade-net
/// 1 2.  The cold sweep writes a fresh store; the winner is validated by
/// running the app on it, plainly and then observed (the iop-stats path:
/// obs::Session attached, the device monitor sampling, the blame report,
/// the metrics CSV and a v2 capture, all in memory); the warm re-run
/// only reads the store.
class Campaign final : public Workload {
 public:
  void setUp(Context& ctx) override {
    spec_ = sweep::parseCampaign(
        "name perfbench-campaign\n"
        "app btio np=64 class=D subtype=full\n"
        "characterize A\n"
        "config A\nconfig B\nconfig C\nconfig finisterrae\n"
        "degrade-disks 1 2\n"
        "degrade-net 1 2\n",
        ctx.workDir);
    jobs_ = ctx.jobs;
    // Warm-up: a small campaign through the same resolve/sweep path.
    const auto small = sweep::parseCampaign(
        "name perfbench-warmup\n"
        "app btio np=16 class=C subtype=full\n"
        "characterize A\n"
        "config C\nconfig finisterrae\n",
        ctx.workDir);
    sweep::ResolveOptions resolveOptions;
    resolveOptions.jobs = ctx.jobs;
    const auto resolved = sweep::resolveCampaign(small, resolveOptions);
    const fs::path storeDir = ctx.workDir / "warmup-store";
    fs::remove_all(storeDir);
    sweep::CampaignStore store(storeDir);
    store.initialize(resolved.spec.canonicalText());
    checkSweep(ctx.checks, sweep::runSweep(resolved, store, options()),
               false);
  }

  void pass(Context& ctx) override {
    const fs::path storeDir = ctx.workDir / "store";
    fs::remove_all(storeDir);
    {
      Scope stage(ctx.spans, "stage.estimate");
      {
        Scope span(ctx.spans, "sweep.resolve");
        sweep::ResolveOptions options;
        options.jobs = ctx.jobs;
        resolved_ = std::make_unique<sweep::ResolvedCampaign>(
            sweep::resolveCampaign(spec_, options));
      }
      checkBtioPhases(ctx.checks, resolved_->models.at(0).model,
                      "sweep characterization");
      store_ = std::make_unique<sweep::CampaignStore>(storeDir);
      Stopwatch cold;
      {
        Scope span(ctx.spans, "sweep.cold");
        store_->initialize(resolved_->spec.canonicalText());
        // The sweep is one long step on several threads: probe the host
        // after every cell as well as around the step (calib.hpp).
        auto probing = options();
        probing.onCellDone = [&ctx](const sweep::CellOutcome&) {
          ctx.spans.probeNow();
        };
        outcome_ = sweep::runSweep(*resolved_, *store_, probing);
      }
      const double coldSeconds = cold.seconds();
      ctx.pass.cells += static_cast<double>(outcome_.cells.size());
      checkSweep(ctx.checks, outcome_, false);
      double busy = 0;
      for (const auto& cell : outcome_.cells) {
        busy += cell.seconds;
        ctx.count("fp.time_io_s", cell.result.timeIo);
      }
      ctx.count("sweep.cells_computed",
                static_cast<double>(outcome_.computed));
      ctx.count("sweep.ior_runs", static_cast<double>(outcome_.iorRuns));
      ctx.count("sweep.worker_busy_frac",
                busy / (ctx.jobs * std::max(coldSeconds, 1e-9)));
    }

    {
      Scope stage(ctx.spans, "stage.validate");
      std::vector<sweep::RankGroup> groups;
      {
        Scope span(ctx.spans, "sweep.rank");
        groups = sweep::rankOutcome(*resolved_, outcome_);
      }
      checkSweepSelection(ctx.checks, groups, "finisterrae");
      // The healthy group's winner, run for real on its configuration.
      const sweep::CellResult& winner =
          groups.at(0).entries.at(0).cell->result;
      analysis::Estimate estimate;
      for (const auto& row : winner.phases) {
        estimate.phases.push_back(analysis::PhaseEstimate{
            row.id, row.familyId, row.weightBytes, row.bandwidthCH,
            row.timeCH});
        estimate.totalTimeSec += row.timeCH;
      }
      const App app = btioD(64);
      double plainMakespan = 0;
      Stopwatch plain;
      const auto data =
          runTraced(ctx, ConfigId::Finisterrae, app, &plainMakespan);
      ctx.count("obs.plain_s", plain.seconds());
      const auto measured = extract(ctx, data);
      checkBtioPhases(ctx.checks, measured, "validate campaign winner");
      const auto rows = compare(ctx, estimate, measured);
      checkErrorsBelow(ctx.checks, rows, 10.0, "campaign winner");
      ctx.pass.errorMaxPct = worstErrorPct(rows);
      runObserved(ctx, ConfigId::Finisterrae, app, plainMakespan);
    }
  }

  WarmTiming warm(Context& ctx) override {
    sweep::SweepOutcome outcome;
    WarmTiming timing;
    timing.callSeconds = timeCalls(
        [&] { outcome = sweep::runSweep(*resolved_, *store_, options()); });
    timing.cellsPerCall = static_cast<double>(outcome.cells.size());
    checkSweep(ctx.checks, outcome, true);
    ctx.count("sweep.warm_s", *std::min_element(timing.callSeconds.begin(),
                                                timing.callSeconds.end()));
    ctx.count("sweep.cache_hits", static_cast<double>(outcome.cacheHits));
    return timing;
  }

 private:
  /// The app on `id` with an obs::Session attached and the device monitor
  /// sampling, then the reports iop-stats derives from the session.
  void runObserved(Context& ctx, ConfigId id, const App& app,
                   double plainMakespan) {
    auto session = std::make_unique<obs::Session>();
    auto cluster = std::make_unique<configs::ClusterConfig>(
        makeCluster(ctx, id));
    double makespan = 0;
    trace::TraceData data;
    {
      Scope span(ctx.spans, "obs.run");
      obs::Profiler::global().attachTrace(&session->recorder());
      cluster->engine->setObs(session->hub());
      monitor::DeviceMonitor mon(*cluster->engine,
                                 cluster->topology->allDisks(), 1.0);
      mon.start();
      trace::Tracer tracer(app.name, app.np);
      auto opts = cluster->runtimeOptions(app.np, &tracer);
      opts.onAppComplete = [&mon] { mon.stop(); };
      mpi::Runtime runtime(*cluster->topology, opts);
      const auto framesBefore = sim::FrameArena::local().stats();
      makespan = runtime.runToCompletion(app.main(cluster->mount));
      countRun(ctx, *cluster, framesBefore, makespan);
      obs::Profiler::global().attachTrace(nullptr);
      data = tracer.takeData();
    }
    checkSameMakespan(ctx.checks, plainMakespan, makespan);
    for (const auto& records : data.perRank) {
      ctx.count("mpi.io_calls", static_cast<double>(records.size()));
    }
    const auto measured = extract(ctx, data);
    checkBtioPhases(ctx.checks, measured, "observed campaign winner");
    ctx.count("obs.edges", static_cast<double>(session->edges().size()));
    ctx.count("obs.trace_events",
              static_cast<double>(session->recorder().eventCount()));
    {
      Scope span(ctx.spans, "obs.blame");
      const auto report =
          analysis::renderBlameReport(session->edges(), makespan, measured);
      ctx.checks.expect(!report.empty(), "blame report is empty");
    }
    obs::RunCapture cap;
    {
      Scope span(ctx.spans, "obs.metrics");
      cap.metricsCsv = session->metrics().renderCsv();
    }
    {
      Scope span(ctx.spans, "obs.capture");
      cap.app = app.name;
      cap.np = app.np;
      cap.config = cluster->name;
      cap.makespan = makespan;
      for (const core::Phase& p : measured.phases()) {
        cap.phases.push_back(obs::CapturePhase{
            p.id, p.familyId, p.weightBytes, p.measuredIoTime(),
            p.measuredBandwidth(),
            p.opTypeLabel() + " f" + std::to_string(p.idF)});
      }
      const auto bytes = cap.serialize(obs::CaptureFormat::V2);
      ctx.count("obs.capture_bytes", static_cast<double>(bytes.size()));
    }
    {
      Scope span(ctx.spans, "obs.release");
      session.reset();
      cluster.reset();
    }
  }

  sweep::SweepOptions options() const {
    sweep::SweepOptions o;
    o.jobs = jobs_;
    return o;
  }

  sweep::CampaignSpec spec_;
  int jobs_ = 1;
  std::unique_ptr<sweep::ResolvedCampaign> resolved_;
  std::unique_ptr<sweep::CampaignStore> store_;
  sweep::SweepOutcome outcome_;
};

}  // namespace

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "paper") return std::make_unique<Paper>();
  if (name == "campaign") return std::make_unique<Campaign>();
  return nullptr;
}

}  // namespace perfbench
