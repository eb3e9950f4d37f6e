// Observability layer tests: histogram bucket math, trace JSON export
// (well-formed + time-ordered), deterministic metrics CSV, and the
// invariant the whole subsystem is built around — attaching the obs hub
// must not perturb the simulation.
#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/runner.hpp"
#include "apps/btio.hpp"
#include "configs/configs.hpp"
#include "obs/hub.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "obs/profiler.hpp"
#include "sim/engine.hpp"

namespace iop {
namespace {

// --- a tiny recursive-descent JSON validator (structure only) -----------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skipWs();
    if (!value()) return false;
    skipWs();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skipWs();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!string()) return false;
      skipWs();
      if (peek() != ':') return false;
      ++pos_;
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skipWs();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skipWs();
      if (!value()) return false;
      skipWs();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '"') { ++pos_; return true; }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skipWs() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// --- histograms ---------------------------------------------------------

TEST(ObsMetrics, HistogramBucketBoundaries) {
  obs::Histogram h({1.0, 2.0, 4.0});
  // "le" semantics: a value exactly on a bound lands in that bucket.
  EXPECT_EQ(h.bucketIndex(0.5), 0u);
  EXPECT_EQ(h.bucketIndex(1.0), 0u);
  EXPECT_EQ(h.bucketIndex(1.000001), 1u);
  EXPECT_EQ(h.bucketIndex(2.0), 1u);
  EXPECT_EQ(h.bucketIndex(4.0), 2u);
  EXPECT_EQ(h.bucketIndex(4.1), 3u);  // overflow (+Inf) bucket
  EXPECT_EQ(h.bucketCounts().size(), 4u);
}

TEST(ObsMetrics, HistogramObserveAccumulates) {
  obs::Histogram h({1.0, 2.0});
  h.observe(0.5);
  h.observe(2.0);
  h.observe(10.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 12.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 10.0);
  EXPECT_DOUBLE_EQ(h.mean(), 12.5 / 3.0);
  EXPECT_EQ(h.bucketCounts()[0], 1u);
  EXPECT_EQ(h.bucketCounts()[1], 1u);
  EXPECT_EQ(h.bucketCounts()[2], 1u);
}

TEST(ObsMetrics, CsvIsDeterministicAcrossInterleavedUpdates) {
  // The CSV depends only on the accumulated values, not on the order
  // instruments were updated (or interleaved between metrics).
  obs::MetricsRegistry a;
  a.counter("x.count").add(1);
  a.histogram("y.depth", {1.0, 2.0}).observe(2.0);
  a.counter("x.count").add(2);
  a.histogram("y.depth", {1.0, 2.0}).observe(0.5);
  obs::MetricsRegistry b;
  b.histogram("y.depth", {1.0, 2.0}).observe(0.5);
  b.counter("x.count").add(2);
  b.histogram("y.depth", {1.0, 2.0}).observe(2.0);
  b.counter("x.count").add(1);
  EXPECT_EQ(a.renderCsv(), b.renderCsv());
  // Bucket rows present, including the +Inf overflow row.
  EXPECT_NE(a.renderCsv().find("y.depth,histogram,le_1,1"),
            std::string::npos);
  EXPECT_NE(a.renderCsv().find("y.depth,histogram,le_inf"),
            std::string::npos);
}

TEST(ObsMetrics, DefaultBucketSetsAreAscending) {
  for (const auto& bounds :
       {obs::latencyBucketsSeconds(), obs::depthBuckets()}) {
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      EXPECT_LT(bounds[i - 1], bounds[i]);
    }
  }
}

TEST(ObsMetrics, RegistryInstrumentsAreStableAndKindChecked) {
  obs::MetricsRegistry reg;
  auto& c = reg.counter("a.count");
  c.add(2.0);
  EXPECT_EQ(&reg.counter("a.count"), &c);  // get-or-create memoizes
  EXPECT_DOUBLE_EQ(reg.counter("a.count").value(), 2.0);
  EXPECT_THROW(reg.gauge("a.count"), std::logic_error);
  EXPECT_THROW(reg.histogram("a.count", {1.0}), std::logic_error);
  EXPECT_EQ(reg.findCounter("missing"), nullptr);
  EXPECT_NE(reg.findCounter("a.count"), nullptr);
}

// --- Prometheus exposition (SweepTelemetry's --telemetry-out) ----------

TEST(ObsRuntime, RegistryIsStableAndKindChecked) {
  // SweepTelemetry caches instrument references once and keeps updating
  // them while later instruments are registered: addresses must survive
  // inserts, and find*() must hand back the same instrument.
  obs::MetricsRegistry m;
  auto& c = m.counter("a.count");
  auto& g = m.gauge("b.level");
  auto& h = m.histogram("c.seconds", {1.0});
  c.add(2);
  for (int i = 0; i < 64; ++i) {
    const std::string n = "pad" + std::to_string(i);
    m.counter(n + ".count");
    m.gauge(n + ".level");
    m.histogram(n + ".seconds", {1.0});
  }
  EXPECT_EQ(&m.counter("a.count"), &c);  // get-or-create memoizes
  EXPECT_EQ(&m.gauge("b.level"), &g);
  EXPECT_EQ(&m.histogram("c.seconds", {5.0}), &h);
  EXPECT_EQ(m.histogram("c.seconds", {5.0}).bounds(),
            std::vector<double>{1.0});  // bounds of an existing one ignored
  EXPECT_DOUBLE_EQ(m.counter("a.count").value(), 2.0);
  EXPECT_THROW(m.gauge("a.count"), std::logic_error);
  EXPECT_THROW(m.histogram("a.count", {1.0}), std::logic_error);
  EXPECT_THROW(m.counter("b.level"), std::logic_error);
  EXPECT_THROW(m.gauge("c.seconds"), std::logic_error);
  EXPECT_EQ(m.findCounter("missing"), nullptr);
  EXPECT_EQ(m.findCounter("a.count"), &c);
  EXPECT_EQ(m.findGauge("b.level"), &g);
  EXPECT_EQ(m.findHistogram("c.seconds"), &h);
}

TEST(ObsRuntime, RuntimeHistogramMatchesLeSemantics) {
  // observe() lands where bucketIndex() says: on a bound, between
  // bounds, and past the last bound.
  obs::Histogram h({1.0, 2.0});
  h.observe(1.0);   // on-bound lands in that bucket
  h.observe(1.5);
  h.observe(99.0);  // overflow
  const auto& counts = h.bucketCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 101.5);
}

TEST(ObsRuntime, RenderPromFormatsAllInstrumentKinds) {
  obs::MetricsRegistry m;
  m.counter("sweep.cells").add(3);
  m.counter("store.cell_bytes").add(10301);
  m.counter("store.cell_bytes").add(123456789012.0);
  m.counter("odd-name.x").add(1);
  m.gauge("sim.arena_bytes").set(64.0);
  auto& busy = m.gauge("sweep.workers_busy");
  busy.add(1);
  busy.add(1);
  busy.add(-1);
  auto& h = m.histogram("sweep.replay_seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(5.0);
  const std::string prom = m.renderProm();
  const auto npos = std::string::npos;
  // Name mangling: <subsystem>.<quantity> -> iop_<subsystem>_<quantity>,
  // counters with the conventional _total suffix.
  EXPECT_NE(prom.find("# TYPE iop_sweep_cells_total counter"), npos);
  EXPECT_NE(prom.find("iop_sweep_cells_total 3"), npos);
  EXPECT_NE(prom.find("# TYPE iop_sim_arena_bytes gauge"), npos);
  EXPECT_NE(prom.find("iop_sim_arena_bytes 64"), npos);
  // Histogram buckets are cumulative, with the implicit +Inf bucket.
  EXPECT_NE(prom.find("iop_sweep_replay_seconds_bucket{le=\"0.1\"} 1"),
            npos);
  EXPECT_NE(prom.find("iop_sweep_replay_seconds_bucket{le=\"1\"} 2"), npos);
  EXPECT_NE(prom.find("iop_sweep_replay_seconds_bucket{le=\"+Inf\"} 3"),
            npos);
  EXPECT_NE(prom.find("iop_sweep_replay_seconds_count 3"), npos);
  // Deterministic for a given state.
  EXPECT_EQ(prom, m.renderProm());
  // Byte for byte the exposition of the atomic-instrument registry this
  // rendering replaced, fed the same values: counters are doubles now,
  // and integer counts (12 digits here) still print as plain integers.
  EXPECT_EQ(prom,
            "# TYPE iop_odd_name_x_total counter\n"
            "iop_odd_name_x_total 1\n"
            "# TYPE iop_store_cell_bytes_total counter\n"
            "iop_store_cell_bytes_total 123456799313\n"
            "# TYPE iop_sweep_cells_total counter\n"
            "iop_sweep_cells_total 3\n"
            "# TYPE iop_sim_arena_bytes gauge\n"
            "iop_sim_arena_bytes 64\n"
            "# TYPE iop_sweep_workers_busy gauge\n"
            "iop_sweep_workers_busy 1\n"
            "# TYPE iop_sweep_replay_seconds histogram\n"
            "iop_sweep_replay_seconds_bucket{le=\"0.1\"} 1\n"
            "iop_sweep_replay_seconds_bucket{le=\"1\"} 2\n"
            "iop_sweep_replay_seconds_bucket{le=\"+Inf\"} 3\n"
            "iop_sweep_replay_seconds_sum 5.55\n"
            "iop_sweep_replay_seconds_count 3\n");
}

// --- flight-recorder journal (obs/journal.hpp) ---------------------------

TEST(ObsRuntime, JournalRoundTripsAndToleratesTornTail) {
  const auto dir =
      std::filesystem::temp_directory_path() / "iop_obs_journal_test";
  std::filesystem::remove_all(dir);
  const auto path = dir / "run.jsonl";
  {
    obs::RunJournal journal(path);  // creates parent directories
    journal.event("cell_claim",
                  "\"worker\":1,\"cell\":\"m \\\"q\\\" @ A\"");
    journal.event("plain");
  }
  auto parsed = obs::loadJournal(path);
  EXPECT_EQ(parsed.badLines, 0u);
  ASSERT_EQ(parsed.events.size(), 3u);  // journal_start + the two above
  EXPECT_EQ(parsed.events[0].name, "journal_start");
  ASSERT_NE(parsed.events[0].field("schema"), nullptr);
  EXPECT_EQ(*parsed.events[0].field("schema"), obs::RunJournal::kSchema);
  EXPECT_EQ(parsed.events[1].name, "cell_claim");
  ASSERT_NE(parsed.events[1].field("worker"), nullptr);
  EXPECT_EQ(*parsed.events[1].field("worker"), "1");  // literal JSON text
  ASSERT_NE(parsed.events[1].field("cell"), nullptr);
  EXPECT_EQ(*parsed.events[1].field("cell"), "m \"q\" @ A");  // unescaped
  EXPECT_LE(parsed.events[0].t, parsed.events[1].t);
  EXPECT_EQ(parsed.events[2].name, "plain");

  // A SIGKILL mid-write leaves one torn, unterminated tail line: it is
  // counted in badLines, never fatal, and costs no parsed events.
  std::ofstream(path, std::ios::app) << "{\"t\":9.0,\"event\":\"cell_com";
  parsed = obs::loadJournal(path);
  EXPECT_EQ(parsed.events.size(), 3u);
  EXPECT_EQ(parsed.badLines, 1u);
  std::filesystem::remove_all(dir);
}

TEST(ObsRuntime, JournalTimeNeverRunsBackwardsUnderConcurrentWriters) {
  // `t` is stamped under the journal lock: with many workers journaling
  // at once, file order and time order must agree, or a postmortem's
  // last-event time (the last line's `t`) could understate the run.
  const auto dir =
      std::filesystem::temp_directory_path() / "iop_obs_journal_order_test";
  std::filesystem::remove_all(dir);
  const auto path = dir / "run.jsonl";
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  {
    obs::RunJournal journal(path);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
      pool.emplace_back([&journal, t] {
        for (int i = 0; i < kPerThread; ++i) {
          journal.event("tick", "\"worker\":" + std::to_string(t));
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  const auto parsed = obs::loadJournal(path);
  EXPECT_EQ(parsed.badLines, 0u);
  ASSERT_EQ(parsed.events.size(), 1u + kThreads * kPerThread);
  for (std::size_t i = 1; i < parsed.events.size(); ++i) {
    ASSERT_LE(parsed.events[i - 1].t, parsed.events[i].t)
        << "line " << i + 1 << " runs backwards";
  }
  std::filesystem::remove_all(dir);
}

// --- recorder -----------------------------------------------------------

TEST(ObsRecorder, TracksAreMemoizedPerKind) {
  obs::TraceRecorder rec;
  const int a = rec.track(obs::TrackKind::Device, "disk0");
  EXPECT_EQ(rec.track(obs::TrackKind::Device, "disk0"), a);
  EXPECT_NE(rec.track(obs::TrackKind::Device, "disk1"), a);
  // Same name under a different kind is a different track namespace.
  EXPECT_EQ(rec.track(obs::TrackKind::Rank, "disk0"), 0);
}

TEST(ObsRecorder, JsonIsWellFormedAndTimeOrdered) {
  obs::TraceRecorder rec;
  const int tid = rec.rankTrack(0);
  // Insert out of order and with strings that need escaping; export must
  // still be valid JSON sorted by timestamp.
  rec.span(obs::TrackKind::Rank, tid, "write \"a\\b\"\n", "mpi.io", 2.0, 3.0,
           "\"bytes\":42");
  rec.instant(obs::TrackKind::Rank, tid, "tick", "mpi.comm", 0.5);
  rec.counterSample(obs::TrackKind::Sim, rec.track(obs::TrackKind::Sim, "q"),
                    "depth", 1.0, 7.0);
  std::ostringstream out;
  rec.writeJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);

  // Non-metadata events must come out time-ordered (500000, 1000000,
  // 2000000 us) regardless of insertion order.
  const auto instant = json.find("\"ph\":\"i\"");
  const auto counter = json.find("\"ph\":\"C\"");
  const auto span = json.find("\"ph\":\"X\"");
  ASSERT_NE(instant, std::string::npos);
  ASSERT_NE(counter, std::string::npos);
  ASSERT_NE(span, std::string::npos);
  EXPECT_LT(instant, counter);
  EXPECT_LT(counter, span);
}

TEST(ObsRecorder, JsonEscape) {
  EXPECT_EQ(obs::TraceRecorder::jsonEscape("a\"b\\c\n\t"),
            "a\\\"b\\\\c\\n\\t");
  EXPECT_EQ(obs::TraceRecorder::jsonEscape(std::string(1, '\x01')),
            "\\u0001");
}

TEST(ObsRecorder, HostileNamesRoundTripToValidJson) {
  // Track and event names chosen to break naive serializers: quotes,
  // backslashes, control characters, and bytes that are not valid UTF-8.
  const std::string hostile = std::string("dev \"q\"\\\x01\n\x7f ") +
                              "\xc3\x28" + "\xff\xfe" + " end";
  obs::TraceRecorder rec;
  const int tid = rec.track(obs::TrackKind::Device, hostile);
  rec.span(obs::TrackKind::Device, tid, hostile, hostile, 0.0, 1.0,
           "\"note\":\"" + obs::TraceRecorder::jsonEscape(hostile) + "\"");
  rec.instant(obs::TrackKind::Device, tid, hostile, hostile, 0.5);
  std::ostringstream out;
  rec.writeJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Invalid byte sequences must have been replaced, never passed through.
  EXPECT_EQ(json.find('\xff'), std::string::npos);
  EXPECT_EQ(json.find("\xc3\x28"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
}

TEST(ObsColumn, AppendedRecordsStartValueInitialized) {
  // A new column's blocks may reuse memory a released one wrote; records
  // appended there must not see it.
  const std::size_t n = obs::Column<obs::Activity>::kBlock + 3;
  {
    obs::Column<obs::Activity> first;
    for (std::size_t i = 0; i < n; ++i) {
      obs::Activity& a = first.emplace_back();
      a.begin = 1.0;
      a.cause = 7;
      a.label = 9;
    }
  }
  obs::Column<obs::Activity> second;
  for (std::size_t i = 0; i < n; ++i) {
    const obs::Activity& a = second.emplace_back();
    ASSERT_EQ(a.begin, 0.0);
    ASSERT_EQ(a.cause, obs::kNoCause);
    ASSERT_EQ(a.label, 0u);
  }
  EXPECT_EQ(second.size(), n);
  std::size_t visited = 0;
  for (const auto& a : second) visited += a.closed() ? 0 : 1;
  EXPECT_EQ(visited, n);
}

// --- whole-simulation properties ----------------------------------------

struct ObservedRun {
  double makespan = 0;
  std::string phaseTable;
  std::string metricsCsv;
  std::string traceJson;
  std::size_t edgeActivities = 0;
  std::size_t edgeLinks = 0;
};

ObservedRun runBtio(bool observed) {
  auto cluster = configs::makeConfig(configs::ConfigId::A);
  obs::Session session;
  if (observed) cluster.engine->setObs(session.hub());
  apps::BtioParams params;
  params.mount = cluster.mount;
  params.cls = apps::BtClass::A;
  auto run =
      analysis::runAndTrace(cluster, "btio", apps::makeBtio(params), 4);
  ObservedRun result;
  result.makespan = run.makespanSeconds;
  result.phaseTable = core::renderPhaseTable(run.model.phases());
  if (observed) {
    result.metricsCsv = session.metrics().renderCsv();
    std::ostringstream json;
    session.recorder().writeJson(json);
    result.traceJson = json.str();
    result.edgeActivities = session.edges().activities().size();
    result.edgeLinks = session.edges().links().size();
  }
  return result;
}

TEST(ObsIntegration, MetricsCsvIsByteIdenticalAcrossRuns) {
  const auto first = runBtio(true);
  const auto second = runBtio(true);
  ASSERT_FALSE(first.metricsCsv.empty());
  EXPECT_EQ(first.metricsCsv, second.metricsCsv);
  EXPECT_EQ(first.traceJson, second.traceJson);
}

TEST(ObsIntegration, AttachingObsDoesNotPerturbSimulation) {
  // The zero-interference invariant: an observed BT-IO run must produce
  // exactly the same makespan and phase table as an unobserved one —
  // including with dependency-edge recording active (the Session wires an
  // EdgeRecorder by default, and the run below must actually feed it).
  const auto observed = runBtio(true);
  const auto bare = runBtio(false);
  EXPECT_DOUBLE_EQ(observed.makespan, bare.makespan);
  EXPECT_EQ(observed.phaseTable, bare.phaseTable);
  EXPECT_GT(observed.edgeActivities, 0u);
  EXPECT_GT(observed.edgeLinks, 0u);
}

TEST(ObsIntegration, EdgeGraphIsDeterministicAcrossRuns) {
  const auto first = runBtio(true);
  const auto second = runBtio(true);
  EXPECT_EQ(first.edgeActivities, second.edgeActivities);
  EXPECT_EQ(first.edgeLinks, second.edgeLinks);
}

TEST(ObsIntegration, ObservedRunExportsAllTrackKinds) {
  const auto run = runBtio(true);
  ASSERT_TRUE(JsonChecker(run.traceJson).valid());
  // Rank, device and simulation tracks all present (pids are part of the
  // format contract; see obs::TrackKind).
  EXPECT_NE(run.traceJson.find("\"mpi ranks\""), std::string::npos);
  EXPECT_NE(run.traceJson.find("\"storage devices\""), std::string::npos);
  EXPECT_NE(run.traceJson.find("\"simulation engine\""), std::string::npos);
  EXPECT_NE(run.metricsCsv.find("mpi.io.bytes_written,counter"),
            std::string::npos);
  EXPECT_NE(run.metricsCsv.find("disk.queue_depth,histogram"),
            std::string::npos);
}

TEST(ObsIntegration, ReattachedSessionNamesEveryTrack) {
  // Components keep what they resolved against a hub (track ids, label
  // ids, instrument handles).  A second session attached to the same
  // cluster must get its own: every (pid, tid) its events use must be
  // named by a thread_name record in its own JSON.
  auto cluster = configs::makeConfig(configs::ConfigId::A);
  apps::BtioParams params;
  params.mount = cluster.mount;
  params.cls = apps::BtClass::A;
  obs::Session first;
  cluster.engine->setObs(first.hub());
  analysis::runAndTrace(cluster, "btio", apps::makeBtio(params), 4);
  obs::Session second;
  cluster.engine->setObs(second.hub());
  analysis::runAndTrace(cluster, "btio", apps::makeBtio(params), 4);
  cluster.engine->setObs(nullptr);

  std::ostringstream json;
  second.recorder().writeJson(json);
  // One event per line: split into named (thread_name metadata) and used
  // (span / instant / counter) tracks.
  std::set<std::pair<int, int>> named;
  std::set<std::pair<int, int>> used;
  std::istringstream lines(json.str());
  for (std::string line; std::getline(lines, line);) {
    const auto pid = line.find("\"pid\":");
    const auto tid = line.find("\"tid\":");
    if (pid == std::string::npos || tid == std::string::npos) continue;
    const std::pair<int, int> track{std::stoi(line.substr(pid + 6)),
                                    std::stoi(line.substr(tid + 6))};
    if (line.find("\"name\":\"thread_name\"") != std::string::npos) {
      named.insert(track);
    } else if (line.find("\"ph\":\"M\"") == std::string::npos) {
      used.insert(track);
    }
  }
  ASSERT_FALSE(used.empty());
  for (const auto& [pid, tid] : used) {
    EXPECT_EQ(named.count({pid, tid}), 1u)
        << "pid " << pid << " tid " << tid << " has no thread_name";
  }
}

sim::Task<void> tickEveryMillisecond(sim::Engine& engine, int ticks) {
  for (int i = 0; i < ticks; ++i) co_await engine.delay(0.001);
}

TEST(ObsIntegration, ReattachedSessionCountsDispatchRateFromAttach) {
  // The engine's "dispatch rate" samples count dispatches since the
  // previous sample.  A newly attached session must count from its own
  // attach, not from the previous session's last sample.
  sim::Engine engine;
  engine.spawn(tickEveryMillisecond(engine, 1000));
  obs::Session first;
  engine.setObs(first.hub());
  engine.runUntil(0.55);
  obs::Session second;
  engine.setObs(second.hub());
  const std::uint64_t attached = engine.eventsDispatched();
  engine.run();
  engine.setObs(nullptr);

  const obs::NameId rate = second.recorder().name("dispatch rate");
  std::vector<double> samples;
  for (const auto& ev : second.recorder().events()) {
    if (ev.phase == obs::EventPhase::Counter && ev.name == rate) {
      samples.push_back(ev.durUs);
    }
  }
  ASSERT_GT(samples.size(), 1u);
  EXPECT_EQ(samples.front(), 1.0);
  double counted = 0;
  for (double v : samples) counted += v;
  EXPECT_LE(counted,
            static_cast<double>(engine.eventsDispatched() - attached));
}

TEST(ObsProfiler, ScopesFeedReportAndTrace) {
  auto& prof = obs::Profiler::global();
  obs::TraceRecorder rec;
  prof.attachTrace(&rec);
  { IOP_PROFILE_SCOPE("obs_test.scope"); }
  prof.attachTrace(nullptr);
  EXPECT_NE(prof.renderReport().find("obs_test.scope"), std::string::npos);
  bool sawSpan = false;
  for (const auto& ev : rec.events()) {
    if (rec.nameText(ev.name) == "obs_test.scope" &&
        ev.phase == obs::EventPhase::Complete) {
      sawSpan = true;
    }
  }
  EXPECT_TRUE(sawSpan);
}

}  // namespace
}  // namespace iop
