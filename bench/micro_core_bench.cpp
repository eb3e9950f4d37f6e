// Micro-benchmarks (google-benchmark) of the model-extraction pipeline:
// LAP extraction, cycle segmentation (DP and greedy), phase detection, and
// offset-function fitting on synthetic traces of growing size; plus the
// engine hot path and a small BT-IO run bare and observed.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "apps/btio.hpp"
#include "common.hpp"
#include "configs/configs.hpp"
#include "core/iomodel.hpp"
#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "core/lap.hpp"
#include "core/phase.hpp"
#include "trace/tracefile.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace iop;

std::vector<trace::Record> syntheticRun(int rank, int ops, bool interleaved) {
  std::vector<trace::Record> records;
  std::uint64_t tick = 1;
  for (int i = 0; i < ops; ++i) {
    trace::Record r;
    r.rank = rank;
    r.fileId = 1;
    const bool write = !interleaved || i % 2 == 0;
    r.op = write ? "MPI_File_write" : "MPI_File_read";
    r.offsetUnits = static_cast<std::uint64_t>(i / (interleaved ? 2 : 1)) *
                    1048576;
    r.tick = tick++;
    r.requestBytes = 1048576;
    r.time = 0.01 * i;
    r.duration = 0.005;
    records.push_back(std::move(r));
  }
  return records;
}

trace::TraceData syntheticTrace(int np, int opsPerRank) {
  trace::TraceData data;
  data.appName = "synthetic";
  data.np = np;
  trace::FileMeta meta;
  meta.fileId = 1;
  meta.path = "/scratch/synthetic.dat";
  meta.np = np;
  data.files.push_back(meta);
  for (int r = 0; r < np; ++r) {
    data.perRank.push_back(syntheticRun(r, opsPerRank, false));
  }
  data.commEventsPerRank.assign(static_cast<std::size_t>(np), 0);
  return data;
}

void BM_LapExtraction(benchmark::State& state) {
  auto records = syntheticRun(0, static_cast<int>(state.range(0)), false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extractLaps(records));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LapExtraction)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SegmentationDp(benchmark::State& state) {
  auto records = syntheticRun(0, static_cast<int>(state.range(0)), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::segmentRecords(records));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SegmentationDp)->Arg(64)->Arg(256)->Arg(1024);

void BM_SegmentationGreedy(benchmark::State& state) {
  auto records = syntheticRun(0, static_cast<int>(state.range(0)), true);
  core::SegmentOptions opt;
  opt.dpLimit = 1;  // force greedy
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::segmentRecords(records, opt));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SegmentationGreedy)->Arg(1024)->Arg(16384);

void BM_PhaseDetection(benchmark::State& state) {
  auto data = syntheticTrace(static_cast<int>(state.range(0)), 200);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::detectPhases(data));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 200);
}
BENCHMARK(BM_PhaseDetection)->Arg(4)->Arg(16)->Arg(64);

void BM_OffsetFit(benchmark::State& state) {
  const int np = static_cast<int>(state.range(0));
  std::vector<int> ranks;
  std::vector<std::uint64_t> offsets;
  for (int r = 0; r < np; ++r) {
    ranks.push_back(r);
    offsets.push_back(static_cast<std::uint64_t>(r) * 8 * 33554432);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fitRankOffsets(ranks, offsets));
  }
}
BENCHMARK(BM_OffsetFit)->Arg(16)->Arg(121)->Arg(1024);

void BM_ModelExtraction(benchmark::State& state) {
  auto data = syntheticTrace(16, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extractModel(data));
  }
}
BENCHMARK(BM_ModelExtraction)->Arg(100)->Arg(400);

void BM_EngineEventThroughput(benchmark::State& state) {
  // Raw event dispatch rate of the simulation engine: the figure that
  // bounds how much simulated I/O a second of wall time buys.
  for (auto _ : state) {
    iop::sim::Engine eng;
    const int chains = static_cast<int>(state.range(0));
    for (int c = 0; c < chains; ++c) {
      eng.spawn([](iop::sim::Engine& e) -> iop::sim::Task<void> {
        for (int i = 0; i < 1000; ++i) co_await e.delay(0.001);
      }(eng));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.eventsDispatched());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 1000);
}
BENCHMARK(BM_EngineEventThroughput)->Arg(1)->Arg(16)->Arg(128)->Arg(1024);

void BM_EngineSpawnChurn(benchmark::State& state) {
  // Short-lived processes spawned in waves: dominated by coroutine-frame
  // allocation and queue insertion rather than steady-state dispatch.
  for (auto _ : state) {
    iop::sim::Engine eng;
    const int waves = static_cast<int>(state.range(0));
    for (int w = 0; w < waves; ++w) {
      for (int i = 0; i < 64; ++i) {
        eng.spawnAt(0.001 * w,
                    [](iop::sim::Engine& e) -> iop::sim::Task<void> {
                      co_await e.delay(0.0005);
                    }(eng));
      }
    }
    eng.run();
    benchmark::DoNotOptimize(eng.eventsDispatched());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 64);
}
BENCHMARK(BM_EngineSpawnChurn)->Arg(16)->Arg(256);

void BM_EngineMixedDelays(benchmark::State& state) {
  // Rng-driven delays across two timescales: exercises the scheduler's
  // far-future spillover and window turnover, not just the uniform-gap
  // fast path.
  for (auto _ : state) {
    iop::sim::Engine eng(7);
    const int chains = static_cast<int>(state.range(0));
    for (int c = 0; c < chains; ++c) {
      eng.spawn([](iop::sim::Engine& e, int salt) -> iop::sim::Task<void> {
        const double scale = salt % 4 == 0 ? 1.0 : 0.01;
        for (int i = 0; i < 500; ++i) {
          co_await e.delay(e.rng().uniform() * scale);
        }
      }(eng, c));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.eventsDispatched());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 500);
}
BENCHMARK(BM_EngineMixedDelays)->Arg(64);

void BM_EngineFanOut(benchmark::State& state) {
  // RAID5-style fan-out on a bare engine: 8 clients each issue 64
  // requests, and every request is a sim::whenAll over k member accesses
  // (acquire the member's arm, hold it, release), the shape the block
  // devices, striped filesystems and collective exchanges repeat per I/O
  // call.  Measures the join itself: start event, child frames, the
  // counted completion.
  const int members = static_cast<int>(state.range(0));
  constexpr int kClients = 8;
  constexpr int kRequests = 64;
  for (auto _ : state) {
    iop::sim::Engine eng;
    std::vector<std::unique_ptr<iop::sim::Resource>> arms;
    for (int m = 0; m < members; ++m) {
      arms.push_back(std::make_unique<iop::sim::Resource>(eng, 1));
    }
    for (int c = 0; c < kClients; ++c) {
      eng.spawn([](iop::sim::Engine& e,
                   std::vector<std::unique_ptr<iop::sim::Resource>>& arms,
                   int client) -> iop::sim::Task<void> {
        for (int r = 0; r < kRequests; ++r) {
          std::vector<iop::sim::Task<void>> ops;
          for (std::size_t m = 0; m < arms.size(); ++m) {
            ops.push_back([](iop::sim::Engine& e, iop::sim::Resource& arm,
                             double hold) -> iop::sim::Task<void> {
              co_await arm.acquire();
              co_await e.delay(hold);
              arm.release();
            }(e, *arms[m], 0.001 * (1 + (client + r + m) % 3)));
          }
          co_await iop::sim::whenAll(e, std::move(ops));
        }
      }(eng, arms, c));
    }
    eng.run();
    benchmark::DoNotOptimize(eng.eventsDispatched());
  }
  state.SetItemsProcessed(state.iterations() * kClients * kRequests *
                          members);
}
BENCHMARK(BM_EngineFanOut)->Arg(4)->Arg(16);

void BM_TraceParse(benchmark::State& state) {
  // Trace read-back rate (records/s): the front half of every
  // characterization.
  const int np = 4;
  const int ops = static_cast<int>(state.range(0));
  const auto dir =
      std::filesystem::temp_directory_path() / "iop_core_bench_traces";
  trace::writeTraces(dir, syntheticTrace(np, ops));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::readTraces(dir, "synthetic"));
  }
  state.SetItemsProcessed(state.iterations() * np * ops);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_TraceParse)->Arg(1000)->Arg(10000);

void BM_ObsBtioRun(benchmark::State& state) {
  // BT-IO class A on 4 ranks (config A), bare (0) or with a full
  // obs::Session attached (1).  The pair bounds what observation costs a
  // whole run: a recorder that falls back to per-event strings or by-name
  // lookups shows up as a widening gap between the two.
  const bool observed = state.range(0) != 0;
  for (auto _ : state) {
    auto cluster = configs::makeConfig(configs::ConfigId::A);
    obs::Session session;
    if (observed) cluster.engine->setObs(session.hub());
    apps::BtioParams params;
    params.mount = cluster.mount;
    params.cls = apps::BtClass::A;
    const auto run =
        analysis::runAndTrace(cluster, "btio", apps::makeBtio(params), 4);
    benchmark::DoNotOptimize(run.makespanSeconds);
  }
}
BENCHMARK(BM_ObsBtioRun)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Console output as usual, plus every per-iteration run collected into the
// machine-readable BENCH_core.json (schema: docs/OBSERVABILITY.md) so the
// perf trajectory accumulates across commits.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      iop::bench::BenchRecord rec;
      rec.name = run.benchmark_name();
      rec.iterations = run.iterations;
      if (run.iterations > 0) {
        rec.nsPerOp =
            run.real_accumulated_time / static_cast<double>(run.iterations) *
            1e9;
      }
      auto it = run.counters.find("bytes_per_second");
      if (it != run.counters.end()) rec.bytesPerSecond = it->second;
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }
  const std::vector<iop::bench::BenchRecord>& records() const {
    return records_;
  }

 private:
  std::vector<iop::bench::BenchRecord> records_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string jsonOut = "BENCH_core.json";
  std::string engineJsonOut = "BENCH_engine.json";
  // Peel off our own flags before google-benchmark sees the argument list.
  for (int i = 1; i < argc;) {
    const std::string arg = argv[i];
    std::string* target = nullptr;
    std::size_t prefix = 0;
    if (arg.rfind("--json-out=", 0) == 0) {
      target = &jsonOut;
      prefix = 11;
    } else if (arg.rfind("--engine-json-out=", 0) == 0) {
      target = &engineJsonOut;
      prefix = 18;
    }
    if (target == nullptr) {
      ++i;
      continue;
    }
    *target = arg.substr(prefix);
    for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
    --argc;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollector reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  iop::bench::writeBenchJson(jsonOut, reporter.records());
  std::printf("wrote %zu benchmark results to %s\n",
              reporter.records().size(), jsonOut.c_str());
  // The engine-hot-path subset (the observed run included) gets its own
  // document: CI gates on it against the committed baseline
  // (docs/PERFORMANCE.md).
  std::vector<iop::bench::BenchRecord> engineRecords;
  for (const auto& rec : reporter.records()) {
    if (rec.name.rfind("BM_Engine", 0) == 0 ||
        rec.name.rfind("BM_Trace", 0) == 0 ||
        rec.name.rfind("BM_Obs", 0) == 0) {
      engineRecords.push_back(rec);
    }
  }
  if (!engineRecords.empty()) {
    iop::bench::writeBenchJson(engineJsonOut, engineRecords);
    std::printf("wrote %zu engine benchmark results to %s\n",
                engineRecords.size(), engineJsonOut.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
