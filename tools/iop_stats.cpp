// iop-stats: run an application with the full observability stack attached
// — per-rank MPI-IO spans, per-device activity tracks, dependency edges,
// simulation metrics, and wall-clock profiling of the analysis pipeline —
// then print the metric and profiler summaries and optionally export the
// timeline, a critical-path blame table, or a capture file for iop-diff.
//
//   iop-stats --app btio --class A --np 4 --config A
//             --trace-out run.json --metrics-out run.csv
//   iop-stats --app btio --class A --np 4 --blame
//   iop-stats --app btio --np 4 --capture-out base.cap
//   iop-stats --app btio --np 4 --degrade-disks 3 --capture-out slow.cap
//   iop-stats --app btio --np 4 --archive trends/ --archive-label v1.2
#include <cstdio>

#include "analysis/blame.hpp"
#include "core/iomodel.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "monitor/monitor.hpp"
#include "mpi/runtime.hpp"
#include "obs/archive.hpp"
#include "obs/capture.hpp"
#include "obs/hub.hpp"
#include "obs/profiler.hpp"
#include "storage/topology.hpp"
#include "toolkit.hpp"
#include "trace/tracer.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace iop;
  util::Args args;
  tools::addConfigOptions(args, "configuration to observe");
  args.addOption("np", "number of MPI processes", "16");
  args.addOption("interval", "device sampling interval in simulated seconds",
                 "1");
  tools::addAppOptions(args);
  tools::addObsOptions(args);
  args.addFlag("blame",
               "print the critical path and the per-phase blame table "
               "derived from the dependency edges");
  args.addOption("capture-out",
                 "write a run capture (phases + metrics) for iop-diff");
  args.addOption("archive",
                 "archive the run capture into this trend-archive "
                 "directory (see iop-trend)");
  args.addOption("archive-label",
                 "commit / tag label recorded with --archive entries", "");
  args.addOption("degrade-disks",
                 "scale every disk's service time by this factor (>= 1); "
                 "fault injection for regression testing");
  args.addOption("degrade-net",
                 "scale every network transfer by this factor (>= 1); "
                 "fault injection for transfer-bound configurations");
  args.addOption("fault-plan",
                 "fault plan file (docs/FAULTS.md): seeded transient "
                 "errors, down windows, crashes, and stragglers with "
                 "retry/backoff/failover recovery");
  args.addOption("fault-seed", "replica seed for --fault-plan", "1");
  try {
    args.parse(argc, argv);
    if (args.helpRequested()) {
      std::printf("%s",
                  args.usage("iop-stats",
                             "Run an application with tracing, metrics and "
                             "profiling attached; summarize and export.")
                      .c_str());
      return 0;
    }
    // Unlike the other tools, observability is the whole point here: build
    // the session unconditionally and only gate the file exports on flags.
    obs::Session session;
    session.log().setLevel(tools::toolLogLevel(args));
    obs::Profiler::global().attachTrace(&session.recorder());

    auto cluster = tools::makeConfiguredCluster(args);
    cluster.engine->setObs(session.hub());
    if (args.has("degrade-disks")) {
      const double factor = args.getDouble("degrade-disks", 1.0);
      for (storage::Disk* d : cluster.topology->allDisks()) {
        d->setDegradation(factor);
      }
      session.log().info("tool", "disks_degraded",
                         "\"factor\":" + std::to_string(factor));
    }
    if (args.has("degrade-net")) {
      const double factor = args.getDouble("degrade-net", 1.0);
      for (storage::Node* n : cluster.topology->allNodes()) {
        n->setDegradation(factor);
      }
      session.log().info("tool", "net_degraded",
                         "\"factor\":" + std::to_string(factor));
    }
    std::shared_ptr<fault::FaultInjector> injector;
    if (args.has("fault-plan")) {
      const auto plan = fault::loadFaultPlan(args.get("fault-plan"));
      const auto seed =
          static_cast<std::uint64_t>(args.getInt("fault-seed", 1));
      injector = fault::installFaults(cluster, plan, seed);
      session.log().info(
          "tool", "faults_attached",
          "\"plan\":\"" +
              obs::TraceRecorder::jsonEscape(args.get("fault-plan")) +
              "\",\"seed\":" + std::to_string(seed) +
              ",\"rules\":" + std::to_string(plan.rules.size()));
    }
    const int np = static_cast<int>(args.getInt("np", 16));
    const std::string appName = args.get("app");

    monitor::DeviceMonitor mon(*cluster.engine, cluster.topology->allDisks(),
                               args.getDouble("interval", 1.0));
    mon.start();
    trace::Tracer tracer(appName, np);
    auto opts = cluster.runtimeOptions(np, &tracer);
    opts.onAppComplete = [&mon] { mon.stop(); };
    mpi::Runtime runtime(*cluster.topology, opts);
    double makespan = 0;
    std::string runError;
    {
      IOP_PROFILE_SCOPE("app.run");
      try {
        makespan =
            runtime.runToCompletion(tools::makeAppMain(args, cluster));
      } catch (const storage::IoFault& e) {
        // The fault plan killed the run (retries exhausted, no failover
        // left).  Surface the phase-level error but still report what the
        // injector observed up to that point.
        runError = e.what();
        makespan = cluster.engine->now();
      }
    }
    auto data = tracer.takeData();
    auto model = core::extractModel(data, {});
    obs::Profiler::global().attachTrace(nullptr);

    std::printf("%s ran %.2f simulated seconds with %d processes on %s; "
                "%zu phases detected\n\n",
                appName.c_str(), makespan, np, cluster.name.c_str(),
                model.phases().size());
    std::printf("%s\n", session.metrics().renderSummary().c_str());
    std::printf("%s", obs::Profiler::global().renderReport().c_str());

    if (injector != nullptr) {
      const auto& acct = injector->accounting();
      std::printf("\nfault plan %s (seed %llu): %llu retries, %llu "
                  "exhausted, %llu failovers, %.3f s stalled, %zu events\n",
                  args.get("fault-plan").c_str(),
                  static_cast<unsigned long long>(injector->seed()),
                  static_cast<unsigned long long>(acct.retries),
                  static_cast<unsigned long long>(acct.exhausted),
                  static_cast<unsigned long long>(acct.failovers),
                  acct.stallSeconds, injector->events().size());
    }
    if (!runError.empty()) {
      std::fprintf(stderr, "iop-stats: run failed under fault plan: %s\n",
                   runError.c_str());
    }

    if (args.flag("blame")) {
      std::printf("\n%s",
                  analysis::renderBlameReport(session.edges(), makespan,
                                              model)
                      .c_str());
    }
    if (args.has("capture-out") || args.has("archive")) {
      obs::RunCapture cap;
      cap.app = appName;
      cap.np = np;
      cap.config = cluster.name;
      cap.makespan = makespan;
      for (const core::Phase& p : model.phases()) {
        obs::CapturePhase cp;
        cp.id = p.id;
        cp.familyId = p.familyId;
        cp.weightBytes = p.weightBytes;
        cp.ioSeconds = p.measuredIoTime();
        cp.bandwidth = p.measuredBandwidth();
        cp.label = p.opTypeLabel() + " f" + std::to_string(p.idF);
        cap.phases.push_back(std::move(cp));
      }
      cap.metricsCsv = session.metrics().renderCsv();
      if (args.has("capture-out")) {
        cap.save(args.get("capture-out"));
        session.log().info(
            "tool", "wrote_capture",
            "\"path\":\"" +
                obs::TraceRecorder::jsonEscape(args.get("capture-out")) +
                "\",\"phases\":" + std::to_string(cap.phases.size()));
      }
      if (args.has("archive")) {
        obs::Archive archive(args.get("archive"));
        const auto entry =
            archive.addCapture(cap, args.get("archive-label"));
        std::printf("archived capture seq %llu (%s, %llu bytes) into %s\n",
                    static_cast<unsigned long long>(entry.seq),
                    entry.hash.c_str(),
                    static_cast<unsigned long long>(entry.bytes),
                    args.get("archive").c_str());
      }
    }
    if (args.has("trace-out")) {
      session.recorder().saveJson(args.get("trace-out"));
      std::printf("wrote %zu trace events to %s (open in ui.perfetto.dev)\n",
                  session.recorder().eventCount(),
                  args.get("trace-out").c_str());
    }
    if (args.has("metrics-out")) {
      if (args.get("metrics-out") == "-") {
        std::printf("%s", session.metrics().renderCsv().c_str());
      } else {
        session.metrics().saveCsv(args.get("metrics-out"));
        std::printf("wrote %zu metrics to %s\n", session.metrics().size(),
                    args.get("metrics-out").c_str());
      }
    }
    return runError.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iop-stats: %s\n", e.what());
    return 1;
  }
}
