// Tenant co-scheduling micro-benchmark: how fast runTenant() turns a
// spec into a contention report, from the trivial solo fast path to a
// contended 3-tenant run with burst-buffer staging.
//
// Jobs reference a pre-saved model file so the timed region measures the
// co-scheduler (arrival draws, shared-engine replay, WFQ arbitration,
// conflict analysis, solo baselines), not app characterization.  Emits
// BENCH_tenant.json (iop-bench/1) for iop-diff.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "tenant/cosched.hpp"
#include "tenant/spec.hpp"
#include "util/table.hpp"

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main() {
  using namespace iop;
  bench::banner("Tenant co-scheduling throughput",
                "runTenant runs/second: solo fast path, 3-way contention, "
                "burst-buffer staging");

  // One characterization, reused by every job via a saved model file.
  const auto run = bench::traceOn(
      configs::ConfigId::A, "example",
      [](const configs::ClusterConfig& cluster) {
        return apps::makeStridedExample(bench::paperExample(cluster.mount));
      },
      4);
  const auto root =
      std::filesystem::temp_directory_path() / "iop_micro_tenant_bench";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const auto modelPath = (root / "example.model").string();
  run.model.save(modelPath);

  const analysis::ConfigBuilder builder = [] {
    return configs::makeConfig(configs::ConfigId::B);
  };

  struct Case {
    const char* name;
    std::string specText;
  };
  const Case cases[] = {
      {"tenant/solo1",
       "job a model=" + modelPath + " arrival=0s\n"},
      {"tenant/contended3",
       "job a model=" + modelPath + " weight=2 arrival=0s\n"
       "job b model=" + modelPath + " arrival=0s\n"
       "job c model=" + modelPath +
           " weight=0.5 arrival=poisson:rate=2,count=2\n"},
      {"tenant/contended3/bb",
       "job a model=" + modelPath + " weight=2 arrival=0s\n"
       "job b model=" + modelPath + " arrival=0s burst-buffer=on\n"
       "job c model=" + modelPath +
           " weight=0.5 arrival=periodic:start=0s,every=5s,count=2\n"},
  };
  constexpr int kRounds = 10;

  util::Table table("example-app tenants on config B, 10 rounds");
  table.setHeader({"case", "jobs", "rounds", "ms/run", "runs/s"},
                  {util::Align::Left, util::Align::Right, util::Align::Right,
                   util::Align::Right, util::Align::Right});
  std::vector<bench::BenchRecord> records;
  for (const auto& c : cases) {
    const auto spec = tenant::parseTenantSpec(c.specText, c.name);
    double totalSeconds = 0;
    for (int round = 0; round < kRounds; ++round) {
      const auto start = std::chrono::steady_clock::now();
      const auto result =
          tenant::runTenant(spec, builder, 1 + round);
      totalSeconds += secondsSince(start);
      if (result.jobs.size() != spec.jobs.size() || result.makespan <= 0) {
        std::fprintf(stderr, "unexpected outcome for %s\n", c.name);
        return 1;
      }
    }
    const double perRun = totalSeconds / kRounds;
    char ms[32], rps[32];
    std::snprintf(ms, sizeof ms, "%.2f", perRun * 1e3);
    std::snprintf(rps, sizeof rps, "%.0f", perRun > 0 ? 1.0 / perRun : 0);
    table.addRow({c.name, std::to_string(spec.jobs.size()),
                  std::to_string(kRounds), ms, rps});

    bench::BenchRecord rec;
    rec.name = c.name;
    rec.iterations = kRounds;
    rec.nsPerOp = perRun * 1e9;
    records.push_back(std::move(rec));
  }
  std::filesystem::remove_all(root);

  std::printf("%s\n", table.render().c_str());
  bench::writeBenchJson("BENCH_tenant.json", records);
  std::printf("wrote %zu results to BENCH_tenant.json\n", records.size());
  std::printf("Expected shape: the solo fast path is the cheapest; the "
              "contended cases add one shared-engine replay plus a solo "
              "baseline per distinct job, so roughly 4-7x solo1.\n");
  return 0;
}
