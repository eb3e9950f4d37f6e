#include "sweep/rank.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <tuple>

#include "analysis/degraded.hpp"
#include "analysis/evaluate.hpp"
#include "storage/disk.hpp"
#include "storage/filesystem.hpp"
#include "storage/topology.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace iop::sweep {

namespace {

std::string groupTitle(const ResolvedCampaign& campaign,
                       const CellSpec& cell) {
  std::string title = campaign.models[cell.modelIndex].label;
  if (cell.degradeDisks != 1.0 || cell.degradeNet != 1.0) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " [dd=%g dn=%g]", cell.degradeDisks,
                  cell.degradeNet);
    title += buf;
  }
  if (cell.faulted()) {
    title += " [fault=" + campaign.faults[cell.faultIndex].label + "]";
  }
  return title;
}

std::string statusName(CellOutcome::Status status) {
  switch (status) {
    case CellOutcome::Status::Cached:
      return "cached";
    case CellOutcome::Status::Computed:
      return "computed";
    case CellOutcome::Status::Failed:
      return "FAILED";
    case CellOutcome::Status::Skipped:
      return "SKIPPED";
  }
  return "?";
}

/// A replica completed its run: the executor committed it and the fault
/// plan didn't kill the workload at phase level.
bool replicaOk(const CellOutcome& cell) {
  return (cell.status == CellOutcome::Status::Cached ||
          cell.status == CellOutcome::Status::Computed) &&
         !cell.result.faultFailed();
}

/// Collapse one configuration's seeded replicas into a single ranked
/// entry: median Time_io over the surviving seeds, represented by the
/// replica closest to that median.
RankedCell aggregateSeeds(const std::vector<const CellOutcome*>& cells) {
  RankedCell entry;
  entry.seeds = cells.size();
  entry.okSeeds = 0;
  std::vector<double> times;
  for (const CellOutcome* cell : cells) {
    if (cell->status == CellOutcome::Status::Computed) {
      entry.anyComputed = true;
    }
    if (!replicaOk(*cell)) continue;
    ++entry.okSeeds;
    times.push_back(cell->result.timeIo);
  }
  entry.timeIo = analysis::medianOf(times);
  entry.cell = cells.front();
  if (entry.okSeeds > 0) {
    double bestDelta = -1;
    for (const CellOutcome* cell : cells) {
      if (!replicaOk(*cell)) continue;
      const double delta = std::abs(cell->result.timeIo - entry.timeIo);
      if (bestDelta < 0 || delta < bestDelta) {
        bestDelta = delta;
        entry.cell = cell;
      }
    }
  }
  return entry;
}

/// The report's device-saturation column: peak per-phase bandwidth over
/// the configuration's aggregate ideal device bandwidth (the same
/// "devices working in parallel" reference the paper's BW_PK reasoning
/// uses, per op type).  A candidate can win on Time_io while pinning its
/// devices at their limit — no headroom for growth or interference — so
/// entries at >= 90% are flagged PINNED.  Values above 100% mean the
/// page cache served part of the phase.
class SaturationColumn {
 public:
  explicit SaturationColumn(const ResolvedCampaign& campaign)
      : campaign_(campaign) {}

  std::string render(const CellOutcome& cell) {
    const auto& phases = cell.result.phases;
    if (phases.empty()) return "-";
    const auto [idealRead, idealWrite] =
        ideals(cell.spec.configIndex, cell.spec.degradeDisks,
               cell.spec.degradeNet);
    // Stored phase rows carry the model phase id; the model knows the op
    // type ("W", "R" or "W-R") that picks the reference bandwidth.
    const auto& modelPhases =
        campaign_.models[cell.spec.modelIndex].model.phases();
    std::map<int, const core::Phase*> byId;
    for (const auto& p : modelPhases) byId.emplace(p.id, &p);
    double peak = 0;
    bool any = false;
    for (const auto& row : phases) {
      if (row.bandwidthCH <= 0) continue;
      // Mixed or unknown phases use the smaller reference: conservative,
      // i.e. the flag fires earlier rather than later.
      double ideal = std::min(idealRead, idealWrite);
      auto it = byId.find(row.id);
      if (it != byId.end()) {
        const std::string op = it->second->opTypeLabel();
        if (op == "W") {
          ideal = idealWrite;
        } else if (op == "R") {
          ideal = idealRead;
        }
      }
      if (ideal <= 0) continue;
      peak = std::max(peak, row.bandwidthCH / ideal);
      any = true;
    }
    if (!any) return "-";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f%%", peak * 100.0);
    std::string out = buf;
    if (peak >= kPinnedThreshold) out += " PINNED";
    return out;
  }

 private:
  static constexpr double kPinnedThreshold = 0.9;

  /// Ideal (read, write) aggregate device bandwidth per (config, dd, dn),
  /// memoized — one probe build per distinct configuration in the report.
  std::pair<double, double> ideals(std::size_t configIndex, double dd,
                                   double dn) {
    const auto key = std::make_tuple(configIndex, dd, dn);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    std::pair<double, double> value{0, 0};
    try {
      auto cfg = campaign_.configs[configIndex].build(dd, dn);
      auto& fs = cfg.topology->fs(cfg.mount);
      value = {fs.idealDeviceBandwidth(storage::IoOp::Read),
               fs.idealDeviceBandwidth(storage::IoOp::Write)};
    } catch (const std::exception&) {
      // Unbuildable reference: the affected entries render "-".
    }
    return cache_.emplace(key, value).first->second;
  }

  const ResolvedCampaign& campaign_;
  std::map<std::tuple<std::size_t, double, double>,
           std::pair<double, double>>
      cache_;
};

}  // namespace

std::vector<RankGroup> rankOutcome(const ResolvedCampaign& campaign,
                                   const SweepOutcome& outcome) {
  // Group cells by (model, fault scenario), preserving canonical order of
  // first appearance; within a group, bucket seeded replicas per
  // candidate configuration.
  struct Bucket {
    std::vector<const CellOutcome*> cells;
  };
  struct PendingGroup {
    std::string title;
    bool faulted = false;
    std::vector<std::size_t> order;  // configIndex, first-appearance order
    std::map<std::size_t, Bucket> byConfig;
  };
  std::vector<PendingGroup> pendingGroups;
  std::map<std::string, std::size_t> groupIndex;
  for (const auto& cell : outcome.cells) {
    const std::string title = groupTitle(campaign, cell.spec);
    auto [it, inserted] = groupIndex.emplace(title, pendingGroups.size());
    if (inserted) {
      pendingGroups.push_back({title, cell.spec.faulted(), {}, {}});
    }
    PendingGroup& pending = pendingGroups[it->second];
    auto [bucketIt, newBucket] =
        pending.byConfig.emplace(cell.spec.configIndex, Bucket{});
    if (newBucket) pending.order.push_back(cell.spec.configIndex);
    bucketIt->second.cells.push_back(&cell);
  }

  std::vector<RankGroup> groups;
  for (const auto& pending : pendingGroups) {
    RankGroup group;
    group.title = pending.title;
    group.faulted = pending.faulted;
    for (std::size_t configIndex : pending.order) {
      group.entries.push_back(
          aggregateSeeds(pending.byConfig.at(configIndex).cells));
    }

    std::stable_sort(group.entries.begin(), group.entries.end(),
                     [](const RankedCell& a, const RankedCell& b) {
                       const bool aOk = a.okSeeds > 0;
                       const bool bOk = b.okSeeds > 0;
                       if (aOk != bOk) return aOk;
                       if (!aOk) return false;  // failures keep input order
                       return a.timeIo < b.timeIo;
                     });
    // Selection is delegated to the paper's rule (analysis::
    // selectConfiguration) rather than re-implemented: the candidate with
    // the smallest estimated (median, under faults) total I/O time wins.
    std::vector<analysis::SelectionCandidate> candidates;
    for (const auto& entry : group.entries) {
      if (entry.okSeeds == 0) continue;
      analysis::SelectionCandidate c;
      c.name = entry.cell->result.configLabel;
      c.estimate.totalTimeSec = entry.timeIo;
      candidates.push_back(std::move(c));
    }
    const analysis::SelectionCandidate* best =
        analysis::selectConfiguration(candidates);
    std::size_t rank = 0;
    bool marked = false;
    for (auto& entry : group.entries) {
      if (entry.okSeeds == 0) continue;
      entry.rank = ++rank;
      if (!marked && best != nullptr &&
          entry.cell->result.configLabel == best->name) {
        entry.selected = true;
        marked = true;
      }
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

std::string renderReport(const ResolvedCampaign& campaign,
                         const SweepOutcome& outcome) {
  std::string out;
  SaturationColumn saturation(campaign);
  for (const auto& group : rankOutcome(campaign, outcome)) {
    util::Table table("Sweep ranking: " + group.title);
    if (group.faulted) {
      // Degraded groups rank by the median over seeded replicas
      // and show survival instead of IOR cost (a faulted cell runs no
      // IOR).
      table.setHeader({"rank", "configuration", "median Time_io (s)",
                       "eff. BW", "dev sat", "seeds ok", "status"},
                      {util::Align::Right, util::Align::Left,
                       util::Align::Right, util::Align::Right,
                       util::Align::Right, util::Align::Right,
                       util::Align::Left});
    } else {
      table.setHeader({"rank", "configuration", "Time_io (s)", "eff. BW",
                       "dev sat", "IOR runs", "status"},
                      {util::Align::Right, util::Align::Left,
                       util::Align::Right, util::Align::Right,
                       util::Align::Right, util::Align::Right,
                       util::Align::Left});
    }
    for (const auto& entry : group.entries) {
      const CellOutcome& cell = *entry.cell;
      const std::string configLabel =
          cell.result.configLabel.empty()
              ? campaign.configs[cell.spec.configIndex].label
              : cell.result.configLabel;
      const std::string seedsOk = std::to_string(entry.okSeeds) + "/" +
                                  std::to_string(entry.seeds);
      if (entry.okSeeds == 0) {
        // Nothing survived: a plain failure, or every fault replica died
        // at phase level (no failover left).
        std::string status = statusName(cell.status);
        if ((cell.status == CellOutcome::Status::Cached ||
             cell.status == CellOutcome::Status::Computed) &&
            cell.result.faultFailed()) {
          status = "FAILED: " + cell.result.faultError;
        }
        table.addRow({"-", configLabel, "-", "-", "-",
                      group.faulted ? seedsOk : "-", status});
        continue;
      }
      std::string name = configLabel;
      if (entry.selected) name += "  <== selected";
      const double bw =
          entry.timeIo > 0
              ? static_cast<double>(cell.result.weightBytes) / entry.timeIo
              : 0;
      std::string status = entry.anyComputed ? "computed" : "cached";
      if (entry.okSeeds < entry.seeds) status += " (partial)";
      table.addRow({std::to_string(entry.rank), name,
                    util::formatSeconds(entry.timeIo),
                    util::formatBandwidthMiBs(bw),
                    saturation.render(cell),
                    group.faulted ? seedsOk
                                  : std::to_string(cell.result.iorRuns),
                    status});
    }
    out += table.render();
    out += "\n";
  }
  return out;
}

}  // namespace iop::sweep
