#include "mpi/comm.hpp"

#include <cmath>
#include <stdexcept>

#include "mpi/rank.hpp"
#include "obs/hub.hpp"

namespace iop::mpi {

namespace {

/// Span + wait-time histogram for one completed collective on `rank`.
/// Runs after the rendezvous, so the duration includes the wait for the
/// slowest member — the "barrier/collective wait" cost centre.
void observeCollective(Rank& rank, MpiOp op, double entry) {
  obs::Hub* o = rank.engine().obs();
  if (o == nullptr) return;
  Rank::ObsHandles& h = rank.obsHandles(*o);
  const double now = rank.engine().now();
  if (o->trace != nullptr) {
    o->trace->span(obs::TrackKind::Rank, rank.obsTrack(*o),
                   h.opName[static_cast<std::size_t>(op)], h.collCat, entry,
                   now);
  }
  if (o->metrics != nullptr) {
    if (h.collectiveWait == nullptr) {
      h.collectiveWait = &o->metrics->histogram(
          "mpi.collective_wait_seconds", obs::latencyBucketsSeconds());
      h.collectives = &o->metrics->counter("mpi.collectives");
    }
    h.collectiveWait->observe(now - entry);
    h.collectives->add(1);
  }
}

/// Open a Collective activity on `rank` for the dependency-edge graph.
std::int64_t beginCollective(Rank& rank, MpiOp op, std::uint64_t bytes) {
  obs::Hub* o = rank.engine().obs();
  if (o == nullptr || o->edges == nullptr) return -1;
  return o->edges->begin(
      obs::ActKind::Collective, rank.id(),
      rank.obsHandles(*o).opLabel[static_cast<std::size_t>(op)],
      rank.engine().now(), bytes);
}

void endCollective(Rank& rank, std::int64_t act) {
  if (act < 0) return;
  if (obs::Hub* o = rank.engine().obs();
      o != nullptr && o->edges != nullptr) {
    o->edges->end(act, rank.engine().now());
  }
}

/// Pure-delay collective cost body (barrier/bcast/allreduce trees).
class DelayBody final : public CollectiveBody {
 public:
  DelayBody(sim::Engine& engine, double seconds)
      : engine_(engine), seconds_(seconds) {}

  sim::Task<void> run() override { return delayTask(engine_, seconds_); }

 private:
  static sim::Task<void> delayTask(sim::Engine& engine, double seconds) {
    co_await engine.delay(seconds);
  }

  sim::Engine& engine_;
  double seconds_;
};

}  // namespace

Comm::Comm(sim::Engine& engine, std::vector<int> rankIds, double linkLatency)
    : engine_(engine), rankIds_(std::move(rankIds)),
      linkLatency_(linkLatency) {
  if (rankIds_.empty()) throw std::invalid_argument("empty communicator");
  for (int id : rankIds_) seqOfRank_[id] = 0;
}

Comm::Slot& Comm::slot(std::uint64_t seq) {
  auto& s = slots_[seq];
  if (!s.cv) s.cv = std::make_unique<sim::CondVar>(engine_);
  return s;
}

void Comm::retire(std::uint64_t seq, Slot& s) {
  if (++s.released == size()) slots_.erase(seq);
}

double Comm::treeCost(std::uint64_t bytes) const noexcept {
  const double depth = std::ceil(std::log2(std::max(2, size())));
  // Latency term per tree level plus pipelined payload serialization at a
  // nominal in-network rate.
  return depth * (linkLatency_ + 5.0e-6) +
         static_cast<double>(bytes) / 1.0e9 * depth;
}

sim::Task<void> Comm::rendezvous(Rank& rank, CollectiveBody* body,
                                 std::int64_t cause) {
  auto it = seqOfRank_.find(rank.id());
  if (it == seqOfRank_.end()) {
    throw std::logic_error("rank not a member of this communicator");
  }
  const std::uint64_t seq = it->second++;
  Slot& s = slot(seq);
  obs::Hub* o = engine_.obs();
  obs::EdgeRecorder* er = o != nullptr ? o->edges : nullptr;
  if (++s.arrived == size()) {
    // The release (and the body's cost) depends on every member having
    // arrived: link each recorded arrival to this rank's activity.
    if (er != nullptr && cause >= 0) {
      for (std::int64_t a : s.arrivals) er->link(a, cause);
    }
    if (body != nullptr) co_await body->run();
    s.done = true;
    s.cv->notifyAll();
  } else {
    if (er != nullptr && cause >= 0) {
      s.arrivals.push_back(er->instant(obs::ActKind::Collective, rank.id(),
                                       rank.obsHandles(*o).arrive,
                                       engine_.now(), cause));
    }
    while (!s.done) co_await s.cv->wait();
  }
  retire(seq, s);
}

sim::Task<void> Comm::barrier(Rank& rank) {
  rank.noteCommEvent(MpiOp::Barrier, false);
  const double entry = engine_.now();
  const std::int64_t act = beginCollective(rank, MpiOp::Barrier, 0);
  DelayBody body(engine_, treeCost(0));
  co_await rendezvous(rank, &body, act);
  endCollective(rank, act);
  observeCollective(rank, MpiOp::Barrier, entry);
}

sim::Task<void> Comm::bcast(Rank& rank, std::uint64_t bytes) {
  rank.noteCommEvent(MpiOp::Bcast, false);
  const double entry = engine_.now();
  const std::int64_t act = beginCollective(rank, MpiOp::Bcast, bytes);
  DelayBody body(engine_, treeCost(bytes));
  co_await rendezvous(rank, &body, act);
  endCollective(rank, act);
  observeCollective(rank, MpiOp::Bcast, entry);
}

sim::Task<void> Comm::allreduce(Rank& rank, std::uint64_t bytes) {
  rank.noteCommEvent(MpiOp::Allreduce, false);
  const double entry = engine_.now();
  const std::int64_t act = beginCollective(rank, MpiOp::Allreduce, bytes);
  DelayBody body(engine_, 2 * treeCost(bytes));
  co_await rendezvous(rank, &body, act);
  endCollective(rank, act);
  observeCollective(rank, MpiOp::Allreduce, entry);
}

}  // namespace iop::mpi
