// Sweep-throughput micro-benchmark: how fast the campaign engine turns
// grid cells into committed results, cold vs cached vs parallel.
//
// A 12-cell campaign over the Figs. 2-5 example app is evaluated (a) cold
// with one worker, (b) cold with four workers, and (c) against a warm
// store (pure cache probes).  Cells-per-second is reported as ns_per_op
// per cell; emits BENCH_sweep.json (iop-bench/1) for iop-diff.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "common.hpp"
#include "sweep/campaign.hpp"
#include "sweep/executor.hpp"
#include "sweep/store.hpp"
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
  bench::banner("Sweep throughput",
                "campaign cells/second: cold -j1, cold -j4, warm cache");

  const std::string campaignText =
      "name micro-sweep\n"
      "app example\n"
      "config A\n"
      "config B\n"
      "degrade-disks 1 4\n"
      "degrade-net 1 2 4\n";
  const auto spec = sweep::parseCampaign(campaignText, ".");
  const auto campaign = sweep::resolveCampaign(spec);
  const std::size_t cells = campaign.planCells().size();

  const auto root = std::filesystem::temp_directory_path() /
                    "iop_micro_sweep_bench";
  std::filesystem::remove_all(root);

  struct Case {
    const char* name;
    int jobs;
    bool warm;
  };
  const Case cases[] = {
      {"sweep/cold/j1", 1, false},
      {"sweep/cold/j4", 4, false},
      {"sweep/warm_cache/j1", 1, true},
  };
  constexpr int kRounds = 5;

  util::Table table("12-cell campaign, example app, 5 rounds");
  table.setHeader({"case", "cells", "rounds", "ms/round", "cells/s"},
                  {util::Align::Left, util::Align::Right, util::Align::Right,
                   util::Align::Right, util::Align::Right});
  std::vector<bench::BenchRecord> records;
  for (const auto& c : cases) {
    double totalSeconds = 0;
    for (int round = 0; round < kRounds; ++round) {
      const auto store = root / (std::string(c.name) + "-" +
                                 std::to_string(round));
      sweep::CampaignStore warmup(store.string());
      sweep::SweepOptions options;
      options.jobs = c.jobs;
      if (c.warm) {
        // Populate once, outside the timed region.
        sweep::runSweep(campaign, warmup, options);
      }
      const auto start = std::chrono::steady_clock::now();
      sweep::CampaignStore timed(store.string());
      const auto outcome = sweep::runSweep(campaign, timed, options);
      totalSeconds += secondsSince(start);
      if (outcome.failures != 0 ||
          (c.warm ? outcome.cacheHits : outcome.computed) != cells) {
        std::fprintf(stderr, "unexpected outcome for %s\n", c.name);
        return 1;
      }
    }
    const double perRound = totalSeconds / kRounds;
    const double cellsPerSec =
        perRound > 0 ? static_cast<double>(cells) / perRound : 0;
    char ms[32], cps[32];
    std::snprintf(ms, sizeof ms, "%.2f", perRound * 1e3);
    std::snprintf(cps, sizeof cps, "%.0f", cellsPerSec);
    table.addRow({c.name, std::to_string(cells), std::to_string(kRounds),
                  ms, cps});

    bench::BenchRecord rec;
    rec.name = c.name;
    rec.iterations = kRounds * static_cast<std::int64_t>(cells);
    rec.nsPerOp = perRound / static_cast<double>(cells) * 1e9;
    records.push_back(std::move(rec));
  }
  std::filesystem::remove_all(root);

  std::printf("%s\n", table.render().c_str());
  bench::writeBenchJson("BENCH_sweep.json", records);
  std::printf("wrote %zu results to BENCH_sweep.json\n", records.size());
  std::printf("Expected shape: warm cache is orders of magnitude faster "
              "than cold; on multi-core hosts -j4 beats -j1 (the container "
              "running CI may be single-core, where they tie).\n");
  return 0;
}
