#include "tenant/cosched.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "analysis/runner.hpp"
#include "analysis/synthesize.hpp"
#include "apps/registry.hpp"
#include "configs/configs.hpp"
#include "core/iomodel.hpp"
#include "fault/injector.hpp"
#include "mpi/runtime.hpp"
#include "obs/hub.hpp"
#include "storage/topology.hpp"
#include "tenant/arbiter.hpp"
#include "tenant/jobfs.hpp"
#include "util/rng.hpp"

namespace iop::tenant {

namespace {

/// Sentinel modelPath marking the synthesized foreground job: its model
/// comes from TenantRunOptions::foregroundModel, never from a file.
constexpr const char* kForegroundModelPath = "<foreground>";

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::vector<double> resolveArrivals(const ArrivalSpec& arrival,
                                    util::Rng& rng) {
  std::vector<double> out;
  switch (arrival.kind) {
    case ArrivalSpec::Kind::Fixed:
      out.push_back(arrival.start);
      break;
    case ArrivalSpec::Kind::Periodic:
      for (int k = 0; k < arrival.count; ++k) {
        out.push_back(arrival.start +
                      static_cast<double>(k) * arrival.every);
      }
      break;
    case ArrivalSpec::Kind::Poisson: {
      double t = 0;
      for (int k = 0; k < arrival.count; ++k) {
        t += rng.exponential(1.0 / arrival.rate);
        out.push_back(t);
      }
      break;
    }
  }
  return out;
}

/// Load or characterize a job's model; app characterizations are cached
/// per (app, params, np) within one runTenant call.
core::IOModel resolveModel(const JobSpec& job,
                           const analysis::ConfigBuilder& builder,
                           std::map<std::string, core::IOModel>& cache) {
  if (!job.modelPath.empty()) {
    return core::IOModel::load(job.modelPath);
  }
  std::string key = job.app + "|np=" + std::to_string(job.np);
  for (const auto& [k, v] : job.appParams) key += "|" + k + "=" + v;
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  configs::ClusterConfig cluster = builder();
  auto main = apps::makeApp(job.app, cluster.mount, job.appParams);
  auto run =
      analysis::runAndTrace(cluster, job.app, std::move(main), job.np);
  return cache.emplace(key, std::move(run.model)).first->second;
}

std::vector<JobPhase> phasesFromClock(const core::IOModel& model,
                                      const analysis::PhaseClock& clock) {
  std::vector<JobPhase> out;
  const auto& phases = model.phases();
  for (std::size_t i = 0;
       i < phases.size() && i < clock.windows.size(); ++i) {
    if (!clock.windows[i].touched) continue;
    out.push_back(JobPhase{phases[i].id, phases[i].familyId,
                           phases[i].weightBytes,
                           clock.windows[i].duration()});
  }
  return out;
}

struct SoloOutcome {
  double timeIo = 0;
  std::vector<JobPhase> phases;
};

/// One instance alone on a fresh configuration — the exact single-app
/// degraded-replay path (analysis/degraded.cpp), plus the job's burst
/// buffer when it asked for one.
SoloOutcome runSolo(const core::IOModel& model, bool burstBuffer,
                    const analysis::ConfigBuilder& builder,
                    const fault::FaultPlan* plan, std::uint64_t seed) {
  configs::ClusterConfig config = builder();
  std::shared_ptr<fault::FaultInjector> injector;
  if (plan != nullptr && !plan->empty()) {
    injector = fault::installFaults(config, *plan, seed);
  }
  SoloOutcome out;
  analysis::PhaseClock clock;
  if (!burstBuffer) {
    mpi::Runtime runtime(*config.topology,
                         config.runtimeOptions(model.np()));
    out.timeIo = runtime.runToCompletion(
        analysis::makeSyntheticApp(model, config.mount, &clock));
    out.phases = phasesFromClock(model, clock);
    return out;
  }
  auto view = std::make_unique<JobView>(
      *config.engine, config.topology->fs(config.mount), 0);
  view->attachBurstBuffer(
      storage::BurstBufferParams{},
      config.topology->node(config.computeNodes.front()));
  storage::BurstBuffer* burst = view->burstBuffer();
  const std::string soloMount = config.mount + "#solo";
  config.topology->mount(soloMount, std::move(view));
  mpi::RuntimeOptions opts = config.runtimeOptions(model.np());
  // Tell the drainer to exit once it has drained the leftovers; without
  // this the engine sees a forever-parked drainer and reports deadlock.
  opts.onAppComplete = [burst] { burst->shutdown(); };
  mpi::Runtime runtime(*config.topology, std::move(opts));
  out.timeIo = runtime.runToCompletion(
      analysis::makeSyntheticApp(model, soloMount, &clock));
  out.phases = phasesFromClock(model, clock);
  return out;
}

/// Everything one contended run needs; member coroutines avoid owning
/// std::function coroutine parameters (GCC 12 miscompiles those).
struct ContendedRun {
  sim::Engine& engine;
  storage::Topology& topology;
  const TenantSpec& spec;
  const std::vector<core::IOModel>& models;
  std::vector<std::vector<double>> arrivals;  ///< per job
  std::vector<std::string> jobMounts;
  std::vector<mpi::RuntimeOptions> jobOptions;
  std::vector<JobView*> views;

  struct JobState {
    analysis::PhaseClock firstClock;
    std::vector<double> elapsed;  ///< per instance
    double firstStart = 0;
    double lastEnd = 0;
    std::unique_ptr<sim::Event> done;
  };
  std::vector<JobState> state;
  std::vector<std::unique_ptr<mpi::Runtime>> runtimes;

  sim::Task<void> jobDriver(std::size_t j) {
    JobState& js = state[j];
    bool first = true;
    for (double at : arrivals[j]) {
      if (at > engine.now()) co_await engine.delay(at - engine.now());
      for (int r = 0; r < spec.jobs[j].repeat; ++r) {
        const double start = engine.now();
        if (first) js.firstStart = start;
        std::int64_t act = -1;
        if (obs::Hub* hub = engine.obs();
            hub != nullptr && hub->edges != nullptr) {
          act = hub->edges->begin(
              obs::ActKind::Other, /*rank=*/-1,
              hub->edges->label("tenant.job " + spec.jobs[j].id), start,
              models[j].totalWeightBytes());
        }
        auto runtime = std::make_unique<mpi::Runtime>(topology, jobOptions[j]);
        runtime->launch(analysis::makeSyntheticApp(
            models[j], jobMounts[j], first ? &js.firstClock : nullptr));
        first = false;
        co_await runtime->completed().wait();
        js.elapsed.push_back(engine.now() - start);
        js.lastEnd = engine.now();
        if (act >= 0) engine.obs()->edges->end(act, engine.now());
        runtimes.push_back(std::move(runtime));
      }
    }
    js.done->set();
  }

  sim::Task<void> closer() {
    for (JobState& js : state) co_await js.done->wait();
    for (JobView* view : views) {
      if (view->burstBuffer() != nullptr) view->burstBuffer()->shutdown();
    }
    topology.shutdown();
  }
};

double jainIndex(const std::vector<double>& shares) {
  if (shares.empty()) return 1.0;
  double sum = 0;
  double sumSq = 0;
  for (double x : shares) {
    sum += x;
    sumSq += x * x;
  }
  if (sumSq <= 0) return 1.0;
  return sum * sum / (static_cast<double>(shares.size()) * sumSq);
}

/// A spec whose only job arrives once at t=0 without staging takes the
/// exact single-app replay path (the bit-identity contract).
bool triviallySolo(const TenantSpec& spec) {
  if (spec.jobs.size() != 1) return false;
  const JobSpec& job = spec.jobs.front();
  return job.arrival.kind == ArrivalSpec::Kind::Fixed &&
         job.arrival.start == 0.0 && job.repeat == 1 && !job.burstBuffer;
}

}  // namespace

TenantResult runTenant(const TenantSpec& inputSpec,
                       const analysis::ConfigBuilder& builder,
                       std::uint64_t seed, const TenantRunOptions& options) {
  if (inputSpec.empty()) {
    throw std::invalid_argument("tenant spec declares no jobs");
  }
  // The sweep's tenant axis: prepend the in-memory foreground model as a
  // plain weight-1 job arriving at t=0.  It enters the canonical text (and
  // therefore the arrival-stream seeding) like any declared job, so the
  // composed run stays byte-reproducible.
  TenantSpec spec = inputSpec;
  if (options.foregroundModel != nullptr) {
    for (const JobSpec& job : inputSpec.jobs) {
      if (job.id == options.foregroundId) {
        throw std::invalid_argument(
            "tenant spec already declares a job named '" +
            options.foregroundId + "' (reserved for the foreground job)");
      }
    }
    JobSpec fg;
    fg.id = options.foregroundId;
    fg.modelPath = kForegroundModelPath;
    fg.np = options.foregroundModel->np();
    spec.jobs.insert(spec.jobs.begin(), std::move(fg));
  }
  const std::size_t n = spec.jobs.size();

  TenantResult result;
  result.seed = seed;
  result.specCanonical = spec.canonicalText();

  // Per-job arrival streams: split in declaration order off a master
  // generator keyed by (seed, canonical spec text) — the fault-plan
  // determinism contract.
  util::Rng master(seed ^ fnv1a64(result.specCanonical));
  std::vector<std::vector<double>> arrivals;
  arrivals.reserve(n);
  for (const JobSpec& job : spec.jobs) {
    util::Rng jobRng = master.split();
    arrivals.push_back(resolveArrivals(job.arrival, jobRng));
  }

  // Resolve every job's model up front (characterizations cached).
  std::map<std::string, core::IOModel> cache;
  std::vector<core::IOModel> models;
  models.reserve(n);
  for (const JobSpec& job : spec.jobs) {
    if (job.modelPath == kForegroundModelPath &&
        options.foregroundModel != nullptr) {
      models.push_back(*options.foregroundModel);
    } else {
      models.push_back(resolveModel(job, builder, cache));
    }
  }

  // Solo baselines (deduplicated per model identity + staging mode).
  std::map<std::string, SoloOutcome> soloCache;
  std::vector<SoloOutcome> solo(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::string key =
        (spec.jobs[j].burstBuffer ? "bb|" : "raw|") +
        std::to_string(fnv1a64(models[j].renderText()));
    auto it = soloCache.find(key);
    if (it == soloCache.end()) {
      it = soloCache
               .emplace(key, runSolo(models[j], spec.jobs[j].burstBuffer,
                                     builder, options.faultPlan, seed))
               .first;
    }
    solo[j] = it->second;
  }

  ConflictAnalyzer conflict(static_cast<int>(n));
  std::vector<TenantJobResult> jobs(n);
  for (std::size_t j = 0; j < n; ++j) {
    TenantJobResult& out = jobs[j];
    out.id = spec.jobs[j].id;
    out.appName = models[j].appName();
    out.np = models[j].np();
    out.weight = spec.jobs[j].weight;
    out.burstBuffer = spec.jobs[j].burstBuffer;
    out.arrivals = arrivals[j];
    out.repeat = spec.jobs[j].repeat;
    out.soloTimeIo = solo[j].timeIo;
  }

  if (triviallySolo(spec)) {
    // The solo baseline IS the run: no arbiters, no extra nodes, no
    // JobView — bit-identical to the single-app estimate.
    TenantJobResult& out = jobs[0];
    out.instances = 1;
    out.firstStart = 0;
    out.lastEnd = solo[0].timeIo;
    out.contendedTimeIo = solo[0].timeIo;
    out.slowdown = 1.0;
    out.phases = solo[0].phases;
    result.configName = builder().name;
    result.makespan = solo[0].timeIo;
    result.jain = 1.0;
    result.jobs = std::move(jobs);
    result.interference = conflict.interference();
    result.serverConflicts = conflict.servers();
    return result;
  }

  // ---- The contended run: one shared engine + topology. ----
  configs::ClusterConfig config = builder();
  result.configName = config.name;
  std::shared_ptr<fault::FaultInjector> injector;
  if (options.faultPlan != nullptr && !options.faultPlan->empty()) {
    injector = fault::installFaults(config, *options.faultPlan, seed);
  }
  sim::Engine& engine = *config.engine;
  storage::Topology& topology = *config.topology;

  // Per-job compute partitions: job 0 keeps the original compute nodes,
  // every other job gets same-link clones — separate NICs, shared
  // storage servers (the contention point).
  std::vector<std::vector<std::size_t>> jobNodes(n);
  jobNodes[0] = config.computeNodes;
  for (std::size_t idx : config.computeNodes) {
    topology.node(idx).setTenantJob(0);
  }
  for (std::size_t j = 1; j < n; ++j) {
    for (std::size_t idx : config.computeNodes) {
      storage::Node& orig = topology.node(idx);
      storage::Node& clone = topology.addNode(
          orig.name() + "#" + spec.jobs[j].id, orig.link());
      clone.setTenantJob(static_cast<int>(j));
      jobNodes[j].push_back(static_cast<std::size_t>(clone.id()));
    }
  }

  // QoS arbitration on every I/O server.
  std::vector<double> weights;
  weights.reserve(n);
  for (const JobSpec& job : spec.jobs) weights.push_back(job.weight);
  std::vector<std::unique_ptr<WfqArbiter>> arbiters;
  for (const auto& server : topology.ioServers()) {
    arbiters.push_back(std::make_unique<WfqArbiter>(
        engine, server->node().name(), weights, spec.slots, &conflict));
    server->setArbiter(arbiters.back().get());
  }

  // Per-job filesystem views and runtime options.
  storage::FileSystem& shared = topology.fs(config.mount);
  ContendedRun run{engine, topology, spec, models, {}, {}, {}, {}, {}, {}};
  run.arrivals = arrivals;
  run.state.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    auto view = std::make_unique<JobView>(engine, shared,
                                          static_cast<int>(j));
    if (spec.jobs[j].burstBuffer) {
      view->attachBurstBuffer(storage::BurstBufferParams{},
                              topology.node(jobNodes[j].front()));
    }
    run.views.push_back(view.get());
    const std::string jobMount = config.mount + "#" + spec.jobs[j].id;
    topology.mount(jobMount, std::move(view));
    run.jobMounts.push_back(jobMount);

    mpi::RuntimeOptions opts = config.runtimeOptions(models[j].np());
    opts.computeNodes = jobNodes[j];
    opts.shutdownTopologyOnCompletion = false;
    if (options.perJobTracks) {
      opts.trackPrefix = "job#" + spec.jobs[j].id + " ";
    }
    run.jobOptions.push_back(std::move(opts));
    run.state[j].done = std::make_unique<sim::Event>(engine);
  }

  for (std::size_t j = 0; j < n; ++j) engine.spawn(run.jobDriver(j));
  engine.spawn(run.closer());
  engine.run();

  // ---- Fold the outcome. ----
  double makespan = 0;
  std::vector<double> shares;
  shares.reserve(n);
  for (std::size_t j = 0; j < n; ++j) {
    TenantJobResult& out = jobs[j];
    const ContendedRun::JobState& js = run.state[j];
    out.instances = static_cast<int>(js.elapsed.size());
    out.firstStart = js.firstStart;
    out.lastEnd = js.lastEnd;
    double sum = 0;
    for (double e : js.elapsed) sum += e;
    out.contendedTimeIo =
        js.elapsed.empty() ? 0 : sum / static_cast<double>(js.elapsed.size());
    out.slowdown = out.soloTimeIo > 0 ? out.contendedTimeIo / out.soloTimeIo
                                      : 1.0;
    out.waitSeconds = conflict.waitSeconds(static_cast<int>(j));
    out.phases = phasesFromClock(models[j], js.firstClock);
    if (storage::BurstBuffer* burst = run.views[j]->burstBuffer()) {
      out.bbAbsorbedBytes = burst->absorbedBytes();
      out.bbSpilledBytes = burst->spilledBytes();
      out.bbDrainedBytes = burst->drainedBytes();
    }
    makespan = std::max(makespan, js.lastEnd);
    shares.push_back(out.contendedTimeIo > 0
                         ? out.soloTimeIo / out.contendedTimeIo
                         : 1.0);
  }
  result.makespan = makespan;
  result.jain = jainIndex(shares);
  result.jobs = std::move(jobs);
  result.interference = conflict.interference();
  result.serverConflicts = conflict.servers();
  return result;
}

}  // namespace iop::tenant
