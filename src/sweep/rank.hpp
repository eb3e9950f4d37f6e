// Ranking and reporting: turn a campaign store into the paper's
// configuration-selection answer (Table XII, generalized).
//
// Cells are grouped per (model, fault scenario) — the axes a deployment
// question holds fixed — and ranked by estimated Time_io ascending (eq. 1);
// ties and context get the weight-normalized effective bandwidth
// (total weight / Time_io).  The top-ranked candidate of each group is the
// configuration the paper's methodology selects.
//
// Fault-plan cells aggregate first: each configuration's seeded replicas
// collapse into one entry ranked by its *median* (degraded) Time_io, so a
// single unlucky seed cannot flip the selection.  Replicas whose run died
// at phase level (retries exhausted, no failover) count against the entry
// and drop it to the bottom when no seed survived.
//
// Every table carries a "dev sat" column: the peak per-phase bandwidth
// over the configuration's aggregate ideal device bandwidth.  Candidates
// at >= 90% are flagged PINNED — they may win on Time_io while running a
// device at its limit, with no headroom left.
#pragma once

#include <string>
#include <vector>

#include "sweep/executor.hpp"

namespace iop::sweep {

struct RankedCell {
  const CellOutcome* cell = nullptr;  ///< representative (median) cell
  std::size_t rank = 0;   ///< 1-based within its group
  bool selected = false;  ///< rank 1 and not failed
  double timeIo = 0;      ///< median Time_io across the entry's seeds
  std::size_t seeds = 1;    ///< replicas aggregated into this entry
  std::size_t okSeeds = 1;  ///< replicas that completed
  bool anyComputed = false;  ///< at least one replica freshly evaluated
};

struct RankGroup {
  std::string title;  ///< "model [dd=.. dn=..] [fault=..]"
  bool faulted = false;             ///< group carries seeded replicas
  std::vector<RankedCell> entries;  ///< Time_io ascending, failures last
};

/// Group and rank a sweep's cells.  Order of groups follows canonical
/// campaign order of their first cell.
std::vector<RankGroup> rankOutcome(const ResolvedCampaign& campaign,
                                   const SweepOutcome& outcome);

/// Render the ranked report (one table per group): rank, config, Time_io,
/// effective bandwidth, device saturation, IOR runs (or seeds ok),
/// cache/computed/failed status.
std::string renderReport(const ResolvedCampaign& campaign,
                         const SweepOutcome& outcome);

}  // namespace iop::sweep
