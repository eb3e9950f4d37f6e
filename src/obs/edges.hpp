// Dependency-edge recording between simulated events.
//
// The trace layer (recorder.hpp) answers "what happened when"; this layer
// answers "what waited on what".  Instrumented seams record *activities*
// — an MPI-IO operation, a collective, a network transfer, a page-cache
// service, a disk request — each carrying the id of the activity that
// caused it (the storage and MPI layers thread an explicit `cause`
// parameter down the call chain, because ambient context does not survive
// coroutine suspension).  Cross-rank dependencies that the cause chain
// cannot express — a rendezvous releasing all members once the last one
// arrived — are recorded as explicit links.
//
// Activity ids are assigned in recording order (an id is the activity's
// index), so for a deterministic simulation the recorded graph is itself
// deterministic.  Recording appends one plain struct: the label is an id
// into the recorder's string table, which a seam resolves once per hub
// with label() and consumers turn back into text with labelText().
// Like the other obs sinks, the recorder is passive: it never touches the
// engine RNG and never schedules anything, so attaching it cannot perturb
// a run (the A/B test in tests/obs_test.cpp pins this).
//
// The graph is consumed post-run by the critical-path engine
// (critpath.hpp).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "obs/column.hpp"
#include "obs/strings.hpp"

namespace iop::obs {

/// No causal parent: a root activity (rank program order applies) or a
/// background process (page-cache flusher writes).
inline constexpr std::int64_t kNoCause = -1;

/// Id of an activity label in an EdgeRecorder's string table.
using LabelId = StrId;

enum class ActKind : std::uint8_t {
  MpiIo = 0,   ///< one MPI-IO call on one rank
  Collective,  ///< barrier / bcast / allreduce / rendezvous arrival
  Network,     ///< one NIC-to-NIC transfer
  Cache,       ///< one page-cache service (server side)
  Disk,        ///< one disk request, queueing included
  Other,
};

const char* actKindName(ActKind kind);

struct Activity {
  double begin = 0;
  double end = -1;  ///< < begin while still open
  std::uint64_t bytes = 0;
  /// Parent activity id.  32 bits: a recorder holds at most 2^31
  /// activities (80 GB of them), and the struct stays 40 bytes.
  std::int32_t cause = kNoCause;
  int rank = -1;  ///< owning MPI rank; -1 for device/server-side work
  LabelId label = 0;  ///< op name or device description (labelText())
  ActKind kind = ActKind::Other;

  bool closed() const noexcept { return end >= begin; }
};

/// Explicit cross-chain dependency: `succ` could not proceed before `pred`
/// reached the linked point (rendezvous member arrival -> releasing op).
struct CausalLink {
  std::int64_t pred = -1;
  std::int64_t succ = -1;
};

class EdgeRecorder {
 public:
  static constexpr std::int64_t kMaxActivities = std::int64_t{1} << 31;

  /// Id of `text` in this recorder's label table (interned on first use).
  LabelId label(std::string_view text) { return labels_.intern(text); }
  const std::string& labelText(LabelId id) const { return labels_.str(id); }

  /// Open an activity; returns its id (pass as `cause` to downstream work).
  std::int64_t begin(ActKind kind, int rank, LabelId label, double at,
                     std::uint64_t bytes = 0,
                     std::int64_t cause = kNoCause) {
    const auto id = static_cast<std::int64_t>(activities_.size());
    if (id == kMaxActivities) [[unlikely]] {
      throw std::length_error("obs: edge recorder is full");
    }
    Activity& a = activities_.emplace_back();
    a.begin = at;
    a.end = at - 1;  // open
    a.bytes = bytes;
    a.cause = cause >= 0 && cause < id ? static_cast<std::int32_t>(cause)
                                       : static_cast<std::int32_t>(kNoCause);
    a.rank = rank;
    a.label = label;
    a.kind = kind;
    return id;
  }

  /// Close an activity.  Ignores invalid ids (callers may hold kNoCause).
  void end(std::int64_t id, double at) noexcept {
    if (id < 0 || id >= static_cast<std::int64_t>(activities_.size())) {
      return;
    }
    Activity& a = activities_[static_cast<std::size_t>(id)];
    a.end = at < a.begin ? a.begin : at;
  }

  /// Zero-duration activity (e.g. a rendezvous arrival marker).
  std::int64_t instant(ActKind kind, int rank, LabelId label, double at,
                       std::int64_t cause = kNoCause) {
    const std::int64_t id = begin(kind, rank, label, at, 0, cause);
    end(id, at);
    return id;
  }

  /// Record an explicit dependency between two recorded activities.
  void link(std::int64_t pred, std::int64_t succ);

  const Column<Activity>& activities() const noexcept {
    return activities_;
  }
  const std::vector<CausalLink>& links() const noexcept { return links_; }
  std::size_t size() const noexcept { return activities_.size(); }

 private:
  StringTable labels_;
  Column<Activity> activities_;
  std::vector<CausalLink> links_;
};

}  // namespace iop::obs
