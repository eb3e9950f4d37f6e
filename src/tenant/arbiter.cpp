#include "tenant/arbiter.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/hub.hpp"

namespace iop::tenant {

WfqArbiter::WfqArbiter(sim::Engine& engine, std::string serverName,
                       std::vector<double> weights, int slots,
                       ConflictAnalyzer* conflict)
    : engine_(engine),
      server_(std::move(serverName)),
      weights_(std::move(weights)),
      slots_(slots),
      conflict_(conflict),
      activeCount_(weights_.size(), 0),
      lastFinish_(weights_.size(), 0.0) {
  if (weights_.empty()) {
    throw std::invalid_argument("arbiter needs at least one job weight");
  }
  for (double w : weights_) {
    if (!(w > 0)) throw std::invalid_argument("job weights must be > 0");
  }
  if (slots_ < 1) throw std::invalid_argument("arbiter slots must be >= 1");
}

void WfqArbiter::noteActive(int job) {
  if (++activeCount_[static_cast<std::size_t>(job)] == 1) {
    ++distinct_;
    if (distinct_ == 2) overlapStart_ = engine_.now();
  }
}

void WfqArbiter::noteInactive(int job) {
  if (--activeCount_[static_cast<std::size_t>(job)] == 0) {
    --distinct_;
    if (distinct_ == 1 && conflict_ != nullptr) {
      conflict_->noteOverlap(server_, engine_.now() - overlapStart_);
    }
  }
}

sim::Task<void> WfqArbiter::admit(int job, std::uint64_t bytes, bool isWrite,
                                  std::int64_t cause) {
  (void)isWrite;
  if (job < 0 || static_cast<std::size_t>(job) >= weights_.size()) {
    throw std::invalid_argument("tenant-job tag out of range");
  }
  const auto j = static_cast<std::size_t>(job);
  noteActive(job);
  const double start = std::max(virtualTime_, lastFinish_[j]);
  const double finish = start + static_cast<double>(bytes) / weights_[j];
  lastFinish_[j] = finish;
  // A lone tenant is never constrained (its own parallelism included);
  // under contention, cap concurrent service at `slots`.
  if (distinct_ <= 1 || inService_ < slots_) {
    ++inService_;
    virtualTime_ = std::max(virtualTime_, start);
    ++immediate_;
    co_return;
  }
  Waiter waiter(engine_, job, start, finish, nextSeq_++, engine_.now());
  obs::Hub* hub = engine_.obs();
  if (hub != nullptr && hub->edges != nullptr) {
    const ObsHandles& h =
        obs_.get(engine_.obsEpoch(), [&](ObsHandles& fresh) {
          fresh.wait = hub->edges->label("tenant.wait " + server_);
        });
    waiter.obsAct = hub->edges->begin(obs::ActKind::Other, /*rank=*/-1,
                                      h.wait, engine_.now(), bytes, cause);
  }
  queue_.push_back(&waiter);
  co_await waiter.granted.wait();
  if (waiter.obsAct >= 0 && hub != nullptr && hub->edges != nullptr) {
    hub->edges->end(waiter.obsAct, engine_.now());
  }
  ++queued_;
}

void WfqArbiter::release(int job) {
  --inService_;
  noteInactive(job);
  dispatchWaiters(job);
}

void WfqArbiter::dispatchWaiters(int culprit) {
  // Dispatch in (finish tag, arrival seq) order while a slot is free —
  // or unconditionally once a single tenant remains (back to the
  // unconstrained regime).
  while (!queue_.empty() && (inService_ < slots_ || distinct_ <= 1)) {
    auto best = queue_.begin();
    for (auto it = std::next(queue_.begin()); it != queue_.end(); ++it) {
      if ((*it)->finishTag < (*best)->finishTag ||
          ((*it)->finishTag == (*best)->finishTag &&
           (*it)->seq < (*best)->seq)) {
        best = it;
      }
    }
    Waiter* waiter = *best;
    queue_.erase(best);
    ++inService_;
    virtualTime_ = std::max(virtualTime_, waiter->startTag);
    if (conflict_ != nullptr) {
      conflict_->noteWait(server_, waiter->job, culprit,
                          engine_.now() - waiter->enqueuedAt);
    }
    waiter->granted.set();
  }
}

}  // namespace iop::tenant
