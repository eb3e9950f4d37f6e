#include "checks.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

constexpr std::uint64_t kGiB = 1ULL << 30;

}  // namespace

void CheckLog::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  failures_.push_back(what);
}

double worstErrorPct(const std::vector<iop::analysis::ComparisonRow>& rows) {
  double worst = 0;
  for (const auto& row : rows) worst = std::max(worst, row.errorPct);
  return worst;
}

void checkBtioPhases(CheckLog& log, const iop::core::IOModel& model,
                     const std::string& where) {
  const auto& phases = model.phases();
  std::size_t writes = 0;
  for (std::size_t i = 0; i + 1 < phases.size(); ++i) {
    writes += phases[i].opTypeLabel() == "W" ? 1 : 0;
  }
  const bool lastRead =
      !phases.empty() && phases.back().opTypeLabel() == "R";
  log.expect(phases.size() == 51 && writes == 50 && lastRead,
             where + ": expected 51 phases (50 W + 1 R), got " +
                 std::to_string(phases.size()) + " (" +
                 std::to_string(writes) + " leading W)");
}

void checkMadbenchPhases(CheckLog& log, const iop::core::IOModel& model,
                         const std::string& where) {
  static const char* kOps[] = {"W", "R", "W-R", "W", "R"};
  static const std::uint64_t kWeights[] = {4 * kGiB, kGiB, 6 * kGiB, kGiB,
                                           4 * kGiB};
  const auto& phases = model.phases();
  bool ok = phases.size() == 5;
  std::string got;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    if (i > 0) got += ' ';
    got += phases[i].opTypeLabel();
    got += '/' + std::to_string(phases[i].weightBytes / (1ULL << 20)) + "MiB";
    if (ok) {
      ok = phases[i].opTypeLabel() == kOps[i] &&
           phases[i].weightBytes == kWeights[i];
    }
  }
  log.expect(ok, where + ": expected W/R/W-R/W/R of 4/1/6/1/4 GiB, got " +
                     got);
}

void checkErrorsBelow(CheckLog& log,
                      const std::vector<iop::analysis::ComparisonRow>& rows,
                      double limitPct, const std::string& where) {
  log.expect(!rows.empty(), where + ": no comparison rows");
  for (const auto& row : rows) {
    log.expect(std::isfinite(row.errorPct) && row.errorPct < limitPct,
               where + " " + row.label() + ": error " +
                   std::to_string(row.errorPct) + "% not below " +
                   std::to_string(limitPct) + "%");
  }
}

void checkUsage(CheckLog& log,
                const std::vector<iop::analysis::UsageRow>& rows,
                const std::string& where) {
  log.expect(!rows.empty(), where + ": no usage rows");
  for (const auto& row : rows) {
    log.expect(row.usagePct > 0 && row.usagePct <= 100,
               where + " phase " + std::to_string(row.phaseId) +
                   ": usage " + std::to_string(row.usagePct) +
                   "% outside (0, 100]");
  }
}

void checkSelected(CheckLog& log, const std::string& selected,
                   const std::string& expected) {
  log.expect(selected == expected,
             "selected '" + selected + "', expected '" + expected + "'");
}

void checkSameEstimate(CheckLog& log, const iop::analysis::Estimate& a,
                       const iop::analysis::Estimate& b,
                       const std::string& where) {
  bool same = a.totalTimeSec == b.totalTimeSec &&
              a.phases.size() == b.phases.size();
  for (std::size_t i = 0; same && i < a.phases.size(); ++i) {
    same = a.phases[i].bandwidthCH == b.phases[i].bandwidthCH &&
           a.phases[i].timeCH == b.phases[i].timeCH;
  }
  log.expect(same, where + ": cached re-estimate differs from the cold one");
}

void checkSameMakespan(CheckLog& log, double plain, double observed) {
  log.expect(plain == observed,
             "observed makespan " + std::to_string(observed) +
                 " differs from plain " + std::to_string(plain));
}

void checkSweep(CheckLog& log, const iop::sweep::SweepOutcome& outcome,
                bool expectCached) {
  const std::size_t n = outcome.cells.size();
  const std::size_t want = expectCached ? outcome.cacheHits
                                        : outcome.computed;
  log.expect(n > 0 && outcome.ok() && want == n,
             std::string(expectCached ? "warm" : "cold") + " sweep: " +
                 std::to_string(outcome.computed) + " computed, " +
                 std::to_string(outcome.cacheHits) + " cached, " +
                 std::to_string(outcome.failures) + " failed of " +
                 std::to_string(n));
}

void checkSweepSelection(CheckLog& log,
                         const std::vector<iop::sweep::RankGroup>& groups,
                         const std::string& expectedConfig) {
  log.expect(!groups.empty(), "sweep: no rank groups");
  for (const auto& group : groups) {
    std::string selected;
    for (const auto& entry : group.entries) {
      if (entry.selected && entry.cell != nullptr) {
        selected = entry.cell->result.configLabel;
      }
    }
    log.expect(selected == expectedConfig,
               group.title + ": selected '" + selected + "', expected '" +
                   expectedConfig + "'");
  }
}

}  // namespace perfbench
