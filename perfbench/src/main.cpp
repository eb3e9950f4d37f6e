// pipeline_bench: run one workload of the paper-pipeline benchmark and
// print its metrics as one JSON object on the last line of stdout.
//
//   pipeline_bench --workload paper --seed 1 --seconds 45 --trace 0
//       --work-dir DIR [--spans-out FILE]
//
// --trace 0 prints the end-to-end metrics, measured with spans down to
// the steps and a speed probe between them (calib.hpp).
// --trace 1 alternates untraced and traced passes and prints the
// per-layer metrics of the traced ones, the simulated-statistics
// fingerprint, and the tracing overhead; the spans go to --spans-out.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "calib.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Context;
using perfbench::PassResult;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

std::string metricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

/// One finished pass: its wall time and spans (every level when traced,
/// down to the steps otherwise).
struct PassRecord {
  bool traced = false;
  double wall = 0;
  PassResult result;
  std::vector<perfbench::Span> spans;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Untraced passes record spans down to this depth: the pass, its two
/// stages, and the steps of each stage.
constexpr std::size_t kStepDepth = 3;

/// One timed piece of a pass, in reference seconds: a step's duration,
/// or the own time of the pass or of a stage.
struct Piece {
  std::string stage;  ///< enclosing stage span ("" for the pass itself)
  std::string name;
  double seconds = 0;
};

std::vector<Piece> piecesOf(const std::vector<perfbench::Span>& spans) {
  const auto self = perfbench::selfSeconds(spans);
  const auto factor = perfbench::speedFactors(spans);
  std::vector<Piece> pieces;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    if (s.name == perfbench::kProbeSpan) continue;
    if (s.parent < 0) {
      pieces.push_back({"", s.name, self[i] * factor[i]});
      continue;
    }
    const perfbench::Span& up = spans[static_cast<std::size_t>(s.parent)];
    if (up.parent < 0) {
      pieces.push_back({s.name, s.name, self[i] * factor[i]});
    } else {
      pieces.push_back({up.name, s.name, (s.end - s.start) * factor[i]});
    }
  }
  return pieces;
}

/// Seconds of the probe spans in `spans`.
double probeSeconds(const std::vector<perfbench::Span>& spans) {
  double total = 0;
  for (const perfbench::Span& s : spans) {
    if (s.name == perfbench::kProbeSpan) total += s.end - s.start;
  }
  return total;
}

/// Every pass runs the same steps in the same order.  Each piece's time
/// is the median of its repeats over the run's untraced passes, each
/// repeat in reference seconds (calib.hpp).  End-to-end times are sums
/// of these.
class StepTimes {
 public:
  explicit StepTimes(const std::vector<PassRecord>& passes) {
    std::vector<std::vector<double>> repeats;
    for (const PassRecord& p : passes) {
      if (p.traced) continue;
      auto pieces = piecesOf(p.spans);
      if (pieces_.empty()) {
        pieces_ = pieces;
        repeats.resize(pieces.size());
      }
      if (pieces.size() != pieces_.size()) {
        throw std::logic_error("passes ran different steps");
      }
      for (std::size_t i = 0; i < pieces.size(); ++i) {
        if (pieces[i].name != pieces_[i].name) {
          throw std::logic_error("passes ran different steps");
        }
        repeats[i].push_back(pieces[i].seconds);
      }
    }
    for (std::size_t i = 0; i < pieces_.size(); ++i) {
      pieces_[i].seconds = median(repeats[i]);
    }
  }

  template <class Pred>
  double sum(Pred pred) const {
    double total = 0;
    for (const Piece& p : pieces_) total += pred(p) ? p.seconds : 0;
    return total;
  }

 private:
  std::vector<Piece> pieces_;
};

/// Per-layer metrics averaged over the traced passes.
std::vector<Metric> perLayerMetrics(const std::vector<PassRecord>& passes,
                                    double overheadSeconds) {
  std::map<std::string, double> counts;
  std::map<std::string, double> spanSeconds;
  std::map<std::string, double> layerSelf;
  double traced = 0;
  for (const PassRecord& p : passes) {
    if (!p.traced) continue;
    traced += 1;
    for (const auto& [k, v] : p.result.counts) counts[k] += v;
    for (const auto& [k, v] : perfbench::totalSecondsByName(p.spans)) {
      spanSeconds[k] += v;
    }
    for (const auto& [k, v] : perfbench::selfSecondsByLayer(p.spans)) {
      layerSelf[k] += v;
    }
  }
  auto avg = [traced](std::map<std::string, double>& m,
                      const std::string& k) { return m[k] / traced; };
  const double events = avg(counts, "sim.events");
  const double runS = avg(spanSeconds, "mpi.run");
  // Bench glue: the pass and stage spans' own time.
  const double unattributed = avg(layerSelf, "pass") + avg(layerSelf, "stage");
  const double passWall = avg(spanSeconds, "pass");
  std::vector<Metric> m = {
      {"sim.events", events, "count"},
      {"sim.ns_per_event", ratio(runS * 1e9, events), "ns"},
      {"sim.frames", avg(counts, "sim.frames"), "count"},
      {"sim.frame_reuse_ratio",
       ratio(counts["sim.frame_reuses"], counts["sim.frames"]), "ratio"},
      {"mpi.run_s", runS, "s"},
      {"mpi.io_calls", avg(counts, "mpi.io_calls"), "count"},
      {"mpi.events_per_io_call", ratio(events, avg(counts, "mpi.io_calls")),
       "ratio"},
      {"storage.disk_ops", avg(counts, "storage.disk_ops"), "count"},
      {"storage.disk_bytes", avg(counts, "storage.disk_bytes"), "B"},
      {"storage.seek_ratio",
       ratio(counts["storage.seeks"], counts["storage.disk_ops"]), "ratio"},
      {"configs.make_s", avg(spanSeconds, "configs.make"), "s"},
      {"replay.measure_s", avg(spanSeconds, "replay.measure"), "s"},
      {"replay.ior_runs", avg(counts, "replay.ior_runs"), "count"},
      {"replay.cache_hit_ratio",
       ratio(counts["replay.measures"] - counts["replay.ior_runs"],
             counts["replay.measures"]),
       "ratio"},
      {"iozone.peaks_s", avg(spanSeconds, "iozone.peaks"), "s"},
      {"trace.write_s", avg(spanSeconds, "trace.write"), "s"},
      {"trace.parse_s", avg(spanSeconds, "trace.parse"), "s"},
      {"trace.bytes", avg(counts, "trace.bytes"), "B"},
      {"core.extract_s", avg(spanSeconds, "core.extract"), "s"},
      {"core.phases", avg(counts, "core.phases"), "count"},
      {"evaluate.compare_s", avg(spanSeconds, "evaluate.compare"), "s"},
      {"obs.plain_s", avg(counts, "obs.plain_s"), "s"},
      {"obs.run_s", avg(spanSeconds, "obs.run"), "s"},
      {"obs.overhead_x",
       ratio(avg(spanSeconds, "obs.run"), avg(counts, "obs.plain_s")), "x"},
      {"obs.edges", avg(counts, "obs.edges"), "count"},
      {"obs.trace_events", avg(counts, "obs.trace_events"), "count"},
      {"obs.blame_s", avg(spanSeconds, "obs.blame"), "s"},
      {"obs.capture_s", avg(spanSeconds, "obs.capture"), "s"},
      {"obs.capture_bytes", avg(counts, "obs.capture_bytes"), "B"},
      {"sweep.resolve_s", avg(spanSeconds, "sweep.resolve"), "s"},
      {"sweep.cold_s", avg(spanSeconds, "sweep.cold"), "s"},
      {"sweep.warm_s", avg(counts, "sweep.warm_s"), "s"},
      {"sweep.cells_computed", avg(counts, "sweep.cells_computed"), "count"},
      {"sweep.cache_hits", avg(counts, "sweep.cache_hits"), "count"},
      {"sweep.ior_runs", avg(counts, "sweep.ior_runs"), "count"},
      {"sweep.worker_busy_frac", avg(counts, "sweep.worker_busy_frac"),
       "ratio"},
  };
  for (const char* layer : {"mpi", "configs", "trace", "core", "replay",
                            "iozone", "evaluate", "obs", "sweep"}) {
    m.push_back({std::string("self.") + layer + "_s", avg(layerSelf, layer),
                 "s"});
  }
  m.push_back({"self.unattributed_s", unattributed, "s"});
  m.push_back({"trace.coverage", ratio(passWall - unattributed, passWall),
               "ratio"});
  m.push_back({"trace.overhead_s", overheadSeconds, "s"});
  m.push_back({"fp.time_io_s", avg(counts, "fp.time_io_s"), "s"});
  m.push_back({"fp.makespan_s", avg(counts, "fp.makespan_s"), "s"});
  return m;
}

/// The simulated-statistics fingerprint of a pass.  A change that only
/// speeds the program up must leave every field identical.
std::string fingerprintJson(const PassResult& r) {
  auto get = [&r](const char* k) {
    auto it = r.counts.find(k);
    return it == r.counts.end() ? 0.0 : it->second;
  };
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"order_digest\": \"%016llx\", \"sim_events\": %.17g, "
      "\"disk_ops\": %.17g, \"disk_bytes\": %.17g, \"disk_seeks\": %.17g, "
      "\"time_io_s\": %.17g, \"makespan_s\": %.17g, "
      "\"est_error_max_pct\": %.17g}",
      static_cast<unsigned long long>(r.orderDigest), get("sim.events"),
      get("storage.disk_ops"), get("storage.disk_bytes"),
      get("storage.seeks"), get("fp.time_io_s"), get("fp.makespan_s"),
      r.errorMaxPct);
  return buf;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workDir;
  std::string spansOut;
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
    } else if (key == "--trace") {
      a.trace = val == "1";
    } else if (key == "--work-dir") {
      a.workDir = val;
    } else if (key == "--spans-out") {
      a.spansOut = val;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workDir.empty()) throw std::invalid_argument("--work-dir is required");
  if (a.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

/// Set-up repeats per run; setup_s is their median.
constexpr int kSetUps = 5;

int run(const Args& args) {
  auto workload = perfbench::makeWorkload(args.workload);
  if (!workload) throw std::invalid_argument("unknown workload " + args.workload);

  Context ctx;
  ctx.seed = args.seed;
  ctx.workDir = args.workDir;
  ctx.jobs = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::filesystem::create_directories(ctx.workDir);

  // Every time an end-to-end metric reports is in reference seconds
  // (calib.hpp): host seconds scaled by the probe's time around them.
  perfbench::SpeedProbe probe;
  auto timeProbe = [&probe] {
    const auto t0 = std::chrono::steady_clock::now();
    probe.run();
    return secondsSince(t0);
  };
  auto referenceSeconds = [](double seconds, double probeBefore,
                             double probeAfter) {
    return seconds * perfbench::kProbeReferenceSeconds * 2 /
           (probeBefore + probeAfter);
  };

  std::vector<double> setUps;
  for (int i = 0; i < kSetUps; ++i) {
    const double before = timeProbe();
    const auto t0 = std::chrono::steady_clock::now();
    workload->setUp(ctx);
    const double seconds = secondsSince(t0);
    setUps.push_back(referenceSeconds(seconds, before, timeProbe()));
  }

  // Traced runs alternate untraced and traced passes, so both sides of
  // the tracing overhead come from the same run.
  std::vector<PassRecord> passes;
  std::vector<double> warmRates;  // per pass, cells per reference second
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> passSeconds;  // a pass plus its warm re-estimates
  auto enough = [&] {
    // Another pass is started while it would end at most half a pass
    // after --seconds, so runs last about --seconds whatever a pass costs.
    if (secondsSince(start) + median(passSeconds) / 2 < args.seconds) {
      return false;
    }
    return !args.trace || passes.size() >= 2;
  };
  while (passes.empty() || !enough()) {
    PassRecord rec;
    rec.traced = args.trace && passes.size() % 2 == 1;
    ctx.spans = perfbench::SpanLog(rec.traced ? perfbench::SpanLog::kAllLevels
                                              : kStepDepth);
    if (!args.trace) {
      // Before and after every step (depth 2).  Traced runs report host
      // seconds and leave the probe out of both kinds of pass.
      ctx.spans.setProbe([&probe] { probe.run(); }, perfbench::kProbeSpan, 2);
    }
    ctx.pass = PassResult{};
    const auto t0 = std::chrono::steady_clock::now();
    {
      perfbench::Scope root(ctx.spans, "pass");
      workload->pass(ctx);
    }
    rec.spans = ctx.spans.spans();
    rec.wall = secondsSince(t0) - probeSeconds(rec.spans);
    ctx.spans = perfbench::SpanLog();
    const double before = timeProbe();
    const auto warm = workload->warm(ctx);
    const double warmSeconds = referenceSeconds(median(warm.callSeconds),
                                                before, timeProbe());
    warmRates.push_back(warm.cellsPerCall / warmSeconds);
    rec.result = ctx.pass;
    std::fprintf(stderr,
                 "pass %zu%s: wall %.3f s, warm %.1f cells/ref s\n",
                 passes.size() + 1, rec.traced ? " (traced)" : "", rec.wall,
                 warmRates.back());
    if (!passes.empty()) {
      const PassResult& first = passes.front().result;
      ctx.checks.expect(
          fingerprintJson(first) == fingerprintJson(rec.result),
          "simulated fingerprint changed between passes");
    }
    passes.push_back(std::move(rec));
    passSeconds.push_back(secondsSince(t0));
    // Hand freed heap back to the OS between passes, so peak_rss_mb is the
    // peak of one pass rather than of fragmentation left by earlier ones.
    malloc_trim(0);
  }

  for (const auto& failure : ctx.checks.failures()) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    const StepTimes steps(passes);
    double errMax = 0;
    for (const PassRecord& p : passes) {
      errMax = std::max(errMax, p.result.errorMaxPct);
    }
    metrics = {
        {"wall_s", steps.sum([](const Piece&) { return true; }), "s"},
        {"setup_s", median(setUps), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"estimate_s",
         steps.sum([](const Piece& p) { return p.stage == "stage.estimate"; }),
         "s"},
        {"validate_s",
         steps.sum([](const Piece& p) { return p.stage == "stage.validate"; }),
         "s"},
        {"est_error_max_pct", errMax, "%"},
        {"cells_per_s",
         ratio(passes.front().result.cells, steps.sum([](const Piece& p) {
                 return p.name == "replay.estimate" || p.name == "sweep.cold";
               })),
         "1/s"},
        {"warm_cells_per_s", median(warmRates), "1/s"},
    };
  } else {
    std::vector<double> tracedWall, plainWall;
    for (const PassRecord& p : passes) {
      (p.traced ? tracedWall : plainWall).push_back(p.wall);
    }
    metrics = perLayerMetrics(passes, median(tracedWall) - median(plainWall));
    const std::string fp = fingerprintJson(passes.front().result);
    std::printf("{\"fingerprint\": %s}\n", fp.c_str());
    if (!args.spansOut.empty()) {
      std::ofstream out(args.spansOut, std::ios::binary);
      out << "{\"workload\": \"" << args.workload << "\", \"seed\": "
          << args.seed << ", \"fingerprint\": " << fp << ", \"passes\": [";
      bool first = true;
      for (const PassRecord& p : passes) {
        if (!p.traced) continue;
        out << (first ? "" : ",") << "\n{\"wall\": " << p.wall
            << ", \"spans\": " << perfbench::spansJson(p.spans) << "}";
        first = false;
      }
      out << "\n]}\n";
      if (!out) throw std::runtime_error("cannot write " + args.spansOut);
    }
  }

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      ctx.checks.failed() == 0 ? "true" : "false",
      static_cast<unsigned long long>(ctx.checks.attempted()),
      static_cast<unsigned long long>(ctx.checks.failed()),
      metricsJson(metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
