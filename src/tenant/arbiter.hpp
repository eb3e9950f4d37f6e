// Start-time fair queueing (SFQ) arbitration for one I/O server under
// multi-tenant load.
//
// Each request is tagged with a start tag S = max(V, F_prev(job)) and a
// finish tag F = S + bytes / weight(job); queued requests dispatch in
// (F, arrival-seq) order and the virtual time V advances to the start tag
// of each dispatched request.  Over a backlogged interval each job
// therefore receives device time proportional to its QoS weight —
// weighted fair queueing without per-job queues.
//
// Timing transparency: the arbiter only constrains requests while two or
// more *distinct* jobs have requests in flight on the server.  A lone
// job's traffic — including its own intra-job parallelism (striped slices,
// parallel ranks) — is granted immediately, so a 1-job tenant run is
// bit-identical to the same app simulated solo (pinned by
// tenant_test.cpp's SoloEquivalence).  The arbiter draws no random
// numbers: given the same request sequence it makes the same decisions.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "storage/server.hpp"
#include "tenant/conflict.hpp"

namespace iop::tenant {

class WfqArbiter final : public storage::ServerArbiter {
 public:
  /// `weights[j]` is job j's QoS share (> 0).  `slots` is the number of
  /// concurrent requests admitted while jobs are contending.  `conflict`
  /// (optional) receives interference accounting under `serverName`.
  WfqArbiter(sim::Engine& engine, std::string serverName,
             std::vector<double> weights, int slots,
             ConflictAnalyzer* conflict);

  sim::Task<void> admit(int job, std::uint64_t bytes, bool isWrite,
                        std::int64_t cause) override;
  void release(int job) override;

  std::uint64_t immediateGrants() const noexcept { return immediate_; }
  std::uint64_t queuedGrants() const noexcept { return queued_; }

 private:
  struct Waiter {
    Waiter(sim::Engine& engine, int job, double startTag, double finishTag,
           std::uint64_t seq, double enqueuedAt)
        : job(job), startTag(startTag), finishTag(finishTag), seq(seq),
          enqueuedAt(enqueuedAt), granted(engine) {}
    int job;
    double startTag;
    double finishTag;
    std::uint64_t seq;
    double enqueuedAt;
    sim::Event granted;
    std::int64_t obsAct = -1;
  };

  /// Distinct jobs with requests in flight (queued or in service).
  int distinctActive() const noexcept { return distinct_; }
  void noteActive(int job);    ///< request arrived
  void noteInactive(int job);  ///< request finished service
  void dispatchWaiters(int culprit);

  sim::Engine& engine_;
  std::string server_;
  std::vector<double> weights_;
  int slots_;
  ConflictAnalyzer* conflict_;

  std::deque<Waiter*> queue_;  ///< waiters live on their admit() frames
  std::vector<int> activeCount_;  ///< in-flight requests per job
  int distinct_ = 0;
  int inService_ = 0;
  double virtualTime_ = 0;
  std::vector<double> lastFinish_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t immediate_ = 0;
  std::uint64_t queued_ = 0;
  double overlapStart_ = 0;

  struct ObsHandles {
    obs::LabelId wait = 0;  ///< edge label "tenant.wait <server>"
  };
  obs::HubCache<ObsHandles> obs_;
};

}  // namespace iop::tenant
