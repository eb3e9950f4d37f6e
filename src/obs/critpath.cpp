#include "obs/critpath.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>
#include <unordered_map>

namespace iop::obs {

namespace {

std::string fmtSec(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

std::string fmtMb(double bytes) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.2f", bytes / 1.0e6);
  return buf;
}

/// Counting-sort grouping (CSR): group g's values are
/// values[start[g] .. start[g + 1]), in the order the items were visited.
struct Groups {
  std::vector<std::int64_t> start;
  std::vector<std::int64_t> values;

  std::size_t size() const noexcept { return start.size() - 1; }
  const std::int64_t* begin(std::size_t g) const {
    return values.data() + start[g];
  }
  const std::int64_t* end(std::size_t g) const {
    return values.data() + start[g + 1];
  }
};

/// Group items 0..n-1 by `key(i)` (in [0, groups); negative = skip),
/// storing `value(i)` for each.
template <class Key, class Value>
Groups groupBy(std::size_t groups, std::size_t n, Key key, Value value) {
  Groups g;
  g.start.assign(groups + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t k = key(i);
    if (k >= 0) ++g.start[static_cast<std::size_t>(k) + 1];
  }
  for (std::size_t k = 0; k < groups; ++k) g.start[k + 1] += g.start[k];
  g.values.resize(static_cast<std::size_t>(g.start[groups]));
  // Fill with start[k] as group k's cursor; afterwards start[k] holds the
  // end of group k, so shifting right by one restores the offsets.
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t k = key(i);
    if (k >= 0) {
      std::int64_t& cursor = g.start[static_cast<std::size_t>(k)];
      g.values[static_cast<std::size_t>(cursor++)] = value(i);
    }
  }
  for (std::size_t k = groups; k > 0; --k) g.start[k] = g.start[k - 1];
  g.start[0] = 0;
  return g;
}

}  // namespace

double CriticalPathResult::totalSeconds() const noexcept {
  double s = 0;
  for (const auto& seg : segments) s += seg.seconds();
  return s;
}

double CriticalPathResult::gapSeconds() const noexcept {
  double s = 0;
  for (const auto& seg : segments) {
    if (seg.isGap()) s += seg.seconds();
  }
  return s;
}

CriticalPathResult computeCriticalPath(const EdgeRecorder& rec,
                                       double makespan) {
  CriticalPathResult out;
  out.makespan = makespan;
  const auto& acts = rec.activities();
  const std::size_t n = acts.size();
  auto act = [&](std::int64_t id) -> const Activity& {
    return acts[static_cast<std::size_t>(id)];
  };
  auto self = [](std::size_t i) { return static_cast<std::int64_t>(i); };

  // Predecessor candidates of an activity, from the four edge sources:
  // its children (grouped by cause, ascending id), the links into it
  // (sorted by succ) and at most one sequence predecessor (seqPred).
  const Groups children = groupBy(
      n, n, [&](std::size_t i) { return acts[i].cause; }, self);
  std::vector<CausalLink> linksIn(rec.links().begin(), rec.links().end());
  std::sort(linksIn.begin(), linksIn.end(),
            [](const CausalLink& a, const CausalLink& b) {
              return a.succ < b.succ;
            });
  // Program order: root activities owned by one rank, grouped by rank.
  std::vector<std::int64_t> roots;
  int maxRank = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (acts[i].cause < 0 && acts[i].rank >= 0) {
      roots.push_back(self(i));
      maxRank = std::max(maxRank, acts[i].rank);
    }
  }
  const Groups rankRoots = groupBy(
      static_cast<std::size_t>(maxRank + 1), roots.size(),
      [&](std::size_t r) -> std::int64_t { return act(roots[r]).rank; },
      [&](std::size_t r) { return roots[r]; });

  // Sequence predecessor within a group — siblings sharing one cause
  // (sequential chunk loops), or one rank's roots: the latest-ending
  // non-overlapping earlier member, by binary search over the group's
  // closed members in (end, id) order.  A group is sorted the first time
  // the walk asks; most never are.
  using ByEnd = std::vector<std::pair<double, std::int64_t>>;
  std::unordered_map<std::size_t, ByEnd> sortedSiblings;
  std::unordered_map<std::size_t, ByEnd> sortedRoots;
  auto sortedGroup = [&](std::unordered_map<std::size_t, ByEnd>& cache,
                         const Groups& groups,
                         std::size_t g) -> const ByEnd& {
    auto [it, fresh] = cache.try_emplace(g);
    if (fresh) {
      for (const std::int64_t* id = groups.begin(g); id != groups.end(g);
           ++id) {
        if (act(*id).closed()) it->second.emplace_back(act(*id).end, *id);
      }
      std::sort(it->second.begin(), it->second.end());
    }
    return it->second;
  };
  auto seqPred = [&](std::int64_t id) -> std::int64_t {
    const Activity& a = act(id);
    const ByEnd* group = nullptr;
    if (a.cause >= 0) {
      group = &sortedGroup(sortedSiblings, children,
                           static_cast<std::size_t>(a.cause));
    } else if (a.rank >= 0) {
      group = &sortedGroup(sortedRoots, rankRoots,
                           static_cast<std::size_t>(a.rank));
    } else {
      return -1;
    }
    auto it = std::upper_bound(
        group->begin(), group->end(),
        std::make_pair(a.begin, std::numeric_limits<std::int64_t>::max()));
    while (it != group->begin()) {
      --it;
      if (it->second != id) return it->second;  // skip a zero-length self
    }
    return -1;
  };

  // Chain head: the latest-ending closed activity not past the makespan,
  // preferring rank-owned work (ranks define the application's end).
  const double lim = makespan + 1e-12;
  std::int64_t head = -1;
  bool headRankOwned = false;
  for (std::size_t i = 0; i < n; ++i) {
    const Activity& a = acts[i];
    if (!a.closed() || a.end > lim) continue;
    const bool ro = a.rank >= 0;
    if (head >= 0) {
      const Activity& h = act(head);
      if (headRankOwned && !ro) continue;
      // Ids ascend, so an equal end always moves the head forward.
      if (ro == headRankOwned && a.end < h.end) continue;
    }
    head = self(i);
    headRankOwned = ro;
  }

  // Backward walk, tiling [0, makespan] from the right.
  std::vector<BlameSegment> segs;  // built back-to-front
  double cursor = makespan;
  auto pushGap = [&](double from, const char* label) {
    if (from < cursor) {
      BlameSegment g;
      g.begin = from;
      g.end = cursor;
      g.label = label;
      segs.push_back(std::move(g));
      cursor = from;
    }
  };

  if (head < 0) {
    pushGap(0, "startup");
  } else {
    std::int64_t cur = head;
    // Monotonic (end, id) key that guarantees termination: it only moves
    // when the walk steps to a predecessor, never when it climbs to a
    // parent, so every candidate must be strictly earlier than the most
    // recent real step.
    double keyEnd = act(cur).end;
    std::int64_t keyId = cur;
    pushGap(keyEnd, "finalize");
    auto pushSeg = [&](std::int64_t id, double from) {
      const double segStart = std::min(cursor, from);
      if (segStart < cursor) {
        const Activity& a = act(id);
        BlameSegment s;
        s.begin = segStart;
        s.end = cursor;
        s.activity = id;
        s.kind = a.kind;
        s.rank = a.rank;
        s.label = rec.labelText(a.label);
        segs.push_back(std::move(s));
        cursor = segStart;
      }
    };
    for (;;) {
      const Activity& a = act(cur);
      // The latest (end, id) candidate strictly before the key; the
      // order candidates are visited in cannot change the pick.
      std::int64_t best = -1;
      auto consider = [&](std::int64_t p) {
        const Activity& ap = act(p);
        if (!ap.closed()) return;
        if (ap.end > keyEnd || (ap.end == keyEnd && p >= keyId)) return;
        if (best >= 0) {
          const Activity& ab = act(best);
          if (ap.end < ab.end || (ap.end == ab.end && p < best)) return;
        }
        best = p;
      };
      const auto c = static_cast<std::size_t>(cur);
      for (const std::int64_t* p = children.begin(c); p != children.end(c);
           ++p) {
        consider(*p);
      }
      for (auto l = std::lower_bound(linksIn.begin(), linksIn.end(), cur,
                                     [](const CausalLink& link,
                                        std::int64_t succ) {
                                       return link.succ < succ;
                                     });
           l != linksIn.end() && l->succ == cur; ++l) {
        consider(l->pred);
      }
      if (const std::int64_t p = seqPred(cur); p >= 0) consider(p);
      if (best < 0) {
        // Nothing precedes `a` itself — blame it down to its start, then
        // climb to the activity it serves: whatever precedes the parent
        // (program order, earlier siblings) also precedes this child.
        pushSeg(cur, a.begin);
        if (a.cause >= 0) {
          cur = a.cause;
          continue;
        }
        pushGap(0, "startup");
        break;
      }
      const double predEnd = act(best).end;
      pushSeg(cur, std::max(a.begin, predEnd));
      pushGap(predEnd, "compute");
      cur = best;
      keyEnd = predEnd;
      keyId = best;
    }
  }

  std::reverse(segs.begin(), segs.end());
  out.segments = std::move(segs);
  for (const auto& s : out.segments) {
    const std::string cat = s.isGap() ? s.label : actKindName(s.kind);
    out.byCategory[cat] += s.seconds();
    if (!s.isGap()) {
      out.byLabel[s.label] += s.seconds();
      out.byRank[s.rank] += s.seconds();
    }
  }
  return out;
}

double BlameTable::attributedIoSeconds() const noexcept {
  double s = 0;
  for (const auto& r : rows) s += r.attrSeconds;
  return s;
}

double BlameTable::estimateSeconds() const noexcept {
  // Round-trip through the attributed bandwidths on purpose: the identity
  // estimate == attributed time is what --blame reports and tests check.
  double s = 0;
  for (const auto& r : rows) {
    if (r.attrBandwidth > 0) {
      s += static_cast<double>(r.phase.weightBytes) / r.attrBandwidth;
    }
  }
  return s;
}

BlameTable attributePhases(const CriticalPathResult& path,
                           const std::vector<PhaseWindow>& phases) {
  BlameTable table;
  table.makespan = path.makespan;
  table.rows.reserve(phases.size());
  for (const auto& p : phases) {
    PhaseBlame row;
    row.phase = p;
    table.rows.push_back(std::move(row));
  }

  // Elementary intervals over all window boundaries.  Phase windows may
  // overlap (repetitions of one phase interleaved with another), so each
  // instant is owned by the *smallest* covering window — the most
  // specific phase — breaking ties by lower phase id.
  std::vector<double> bounds;
  bounds.reserve(phases.size() * 2);
  for (const auto& p : phases) {
    bounds.push_back(p.begin);
    bounds.push_back(p.end);
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  auto ownerOf = [&](double t0, double t1) -> int {
    const double mid = 0.5 * (t0 + t1);
    int best = -1;
    double bestSpan = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const PhaseWindow& p = phases[i];
      if (p.begin <= mid && mid < p.end) {
        const double span = p.end - p.begin;
        if (span < bestSpan) {
          bestSpan = span;
          best = static_cast<int>(i);
        }
      }
    }
    return best;
  };

  for (const auto& s : path.segments) {
    if (s.isGap()) {
      table.gapSeconds += s.seconds();
      continue;
    }
    double cur = s.begin;
    while (cur < s.end) {
      auto it = std::upper_bound(bounds.begin(), bounds.end(), cur);
      const double next = it == bounds.end() ? s.end : std::min(*it, s.end);
      if (next <= cur) break;  // defensive; bounds are strictly increasing
      const int owner = ownerOf(cur, next);
      if (owner >= 0) {
        PhaseBlame& row = table.rows[static_cast<std::size_t>(owner)];
        row.attrSeconds += next - cur;
        row.byCategory[actKindName(s.kind)] += next - cur;
      } else {
        table.outsideSeconds += next - cur;
      }
      cur = next;
    }
  }

  for (auto& row : table.rows) {
    if (row.attrSeconds > 0) {
      row.attrBandwidth =
          static_cast<double>(row.phase.weightBytes) / row.attrSeconds;
    }
  }
  return table;
}

std::string renderCriticalPath(const CriticalPathResult& path) {
  std::ostringstream out;
  out << "critical path: " << path.segments.size() << " segments, "
      << fmtSec(path.totalSeconds()) << " s of " << fmtSec(path.makespan)
      << " s makespan\n";
  out << "  by category:\n";
  for (const auto& [cat, sec] : path.byCategory) {
    char pct[16];
    std::snprintf(pct, sizeof pct, "%5.1f%%",
                  path.makespan > 0 ? 100.0 * sec / path.makespan : 0.0);
    out << "    " << pct << "  " << fmtSec(sec) << " s  " << cat << "\n";
  }
  if (!path.byLabel.empty()) {
    // Top contributors by label, largest first.
    std::vector<std::pair<std::string, double>> labels(path.byLabel.begin(),
                                                       path.byLabel.end());
    std::sort(labels.begin(), labels.end(),
              [](const auto& a, const auto& b) {
                if (a.second != b.second) return a.second > b.second;
                return a.first < b.first;
              });
    out << "  by component:\n";
    const std::size_t top = std::min<std::size_t>(labels.size(), 10);
    for (std::size_t i = 0; i < top; ++i) {
      out << "    " << fmtSec(labels[i].second) << " s  " << labels[i].first
          << "\n";
    }
  }
  if (!path.byRank.empty()) {
    out << "  by rank:\n";
    for (const auto& [rank, sec] : path.byRank) {
      out << "    rank " << rank << ": " << fmtSec(sec) << " s\n";
    }
  }
  return out.str();
}

std::string renderBlameTable(const BlameTable& table) {
  std::ostringstream out;
  out << "phase blame table (critical-path attribution):\n";
  out << "  id  label          weight MB   T_attr s    BW_attr MB/s\n";
  for (const auto& row : table.rows) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-3d %-14s %10s  %10s  %12s\n",
                  row.phase.id, row.phase.label.c_str(),
                  fmtMb(static_cast<double>(row.phase.weightBytes)).c_str(),
                  fmtSec(row.attrSeconds).c_str(),
                  row.attrBandwidth > 0 ? fmtMb(row.attrBandwidth).c_str()
                                        : "-");
    out << line;
  }
  out << "  attributed I/O time  " << fmtSec(table.attributedIoSeconds())
      << " s\n";
  out << "  eq.1-2 from BW_attr  " << fmtSec(table.estimateSeconds())
      << " s\n";
  out << "  critical gap time    " << fmtSec(table.gapSeconds) << " s\n";
  out << "  outside phases       " << fmtSec(table.outsideSeconds) << " s\n";
  out << "  residual             " << fmtSec(table.residualSeconds())
      << " s (makespan " << fmtSec(table.makespan) << " s)\n";
  return out.str();
}

}  // namespace iop::obs
