// Golden digests of everything an observed run writes out: the Chrome
// trace JSON, the metrics CSV, the critical-path blame report and the v2
// capture bytes.  The runs mirror `iop-stats` (an obs::Session attached,
// the device monitor sampling, the tracer feeding the phase model) minus
// the wall-clock profiler, whose spans differ run to run.
//
// The digests were taken before the recorders moved from per-event
// strings to interned ids and POD columns, and pin that the move (and any
// later change to the obs hot path) leaves every byte of output alone.
// An intended output change must update them and say why.
//
// Re-pinned when sim::whenAll became a counted join (fewer engine events,
// children no longer detached processes): the trace, metrics and capture
// digests moved only through the engine's own rows — the
// sim.events_dispatched / sim.live_processes gauges and the engine
// track's "ready queue" / "dispatch rate" samples, still taken at the same
// simulated times.  Every device, rank and phase byte and the blame
// report are unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "analysis/blame.hpp"
#include "apps/btio.hpp"
#include "apps/madbench.hpp"
#include "configs/configs.hpp"
#include "core/iomodel.hpp"
#include "monitor/monitor.hpp"
#include "mpi/runtime.hpp"
#include "obs/capture.hpp"
#include "obs/codec.hpp"
#include "obs/hub.hpp"
#include "trace/tracer.hpp"

namespace iop {
namespace {

struct Digests {
  std::string trace;
  std::string metrics;
  std::string blame;
  std::string capture;
};

std::string hex(const std::string& bytes) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(
                    obs::codec::fnv1a(bytes.data(), bytes.size())));
  return buf;
}

Digests observedRun(configs::ConfigId id, const std::string& appName,
                    mpi::Runtime::RankMain (*makeMain)(const std::string&),
                    int np) {
  auto cluster = configs::makeConfig(id);
  obs::Session session;
  cluster.engine->setObs(session.hub());
  monitor::DeviceMonitor mon(*cluster.engine, cluster.topology->allDisks(),
                             1.0);
  mon.start();
  trace::Tracer tracer(appName, np);
  auto opts = cluster.runtimeOptions(np, &tracer);
  opts.onAppComplete = [&mon] { mon.stop(); };
  mpi::Runtime runtime(*cluster.topology, opts);
  const double makespan = runtime.runToCompletion(makeMain(cluster.mount));
  const auto model = core::extractModel(tracer.takeData(), {});

  obs::RunCapture cap;
  cap.app = appName;
  cap.np = np;
  cap.config = cluster.name;
  cap.makespan = makespan;
  for (const core::Phase& p : model.phases()) {
    cap.phases.push_back(obs::CapturePhase{
        p.id, p.familyId, p.weightBytes, p.measuredIoTime(),
        p.measuredBandwidth(),
        p.opTypeLabel() + " f" + std::to_string(p.idF)});
  }
  cap.metricsCsv = session.metrics().renderCsv();

  std::ostringstream json;
  session.recorder().writeJson(json);
  Digests d;
  d.trace = hex(json.str());
  d.metrics = hex(cap.metricsCsv);
  d.blame =
      hex(analysis::renderBlameReport(session.edges(), makespan, model));
  d.capture = hex(cap.serialize(obs::CaptureFormat::V2));
  return d;
}

mpi::Runtime::RankMain btioA(const std::string& mount) {
  apps::BtioParams params;
  params.mount = mount;
  params.cls = apps::BtClass::A;
  return apps::makeBtio(params);
}

mpi::Runtime::RankMain madbench(const std::string& mount) {
  apps::MadbenchParams params;
  params.mount = mount;
  return apps::makeMadbench(params);
}

TEST(ObsGolden, BtioClassANp4OnConfigA) {
  const Digests d = observedRun(configs::ConfigId::A, "btio", btioA, 4);
  EXPECT_EQ(d.trace, "dcc26811f060f392");
  EXPECT_EQ(d.metrics, "cd18d5ec396861af");
  EXPECT_EQ(d.blame, "cb36c658656142b3");
  EXPECT_EQ(d.capture, "7bc99ed8ea263259");
}

TEST(ObsGolden, Madbench2Np4OnConfigB) {
  const Digests d =
      observedRun(configs::ConfigId::B, "madbench2", madbench, 4);
  EXPECT_EQ(d.trace, "e69b3cf608a03003");
  EXPECT_EQ(d.metrics, "5acd1ec053d8c27e");
  EXPECT_EQ(d.blame, "7d1a55ca33524f07");
  EXPECT_EQ(d.capture, "07503b51abd72f6b");
}

}  // namespace
}  // namespace iop
