#include "storage/disk.hpp"

#include <stdexcept>

#include "obs/hub.hpp"

namespace iop::storage {

bool Disk::isSequential(std::uint64_t offset) const noexcept {
  if (!touched_) return true;  // first access: treat as positioned
  return offset >= lastEnd_ && offset - lastEnd_ <= params_.seqWindow;
}

double Disk::serviceTime(std::uint64_t offset, std::uint64_t size,
                         IoOp op) const noexcept {
  const double bw =
      op == IoOp::Read ? params_.seqReadBw : params_.seqWriteBw;
  double t = params_.perRequestOverhead + static_cast<double>(size) / bw;
  if (!isSequential(offset)) t += params_.positionTime;
  return t * degradation_;
}

void Disk::setDegradation(double factor) {
  if (factor < 1.0) {
    throw std::invalid_argument("degradation factor must be >= 1");
  }
  degradation_ = factor;
}

Disk::ObsHandles& Disk::obsHandles(obs::Hub& hub) {
  return obs_.get(engine_.obsEpoch(), [&](ObsHandles& h) {
    if (hub.edges != nullptr) h.label = hub.edges->label(params_.name);
    if (hub.trace != nullptr) {
      h.read = hub.trace->name("read");
      h.write = hub.trace->name("write");
      h.cat = hub.trace->name("disk");
    }
  });
}

sim::Task<void> Disk::access(std::uint64_t offset, std::uint64_t size,
                             IoOp op, std::int64_t cause) {
  std::int64_t act = -1;
  if (obs::Hub* o = engine_.obs(); o != nullptr) {
    ObsHandles& h = obsHandles(*o);
    // Depth seen by this request on arrival: waiters + the one in service.
    const int depth = arm_.queueLength() + arm_.inUse();
    if (o->metrics != nullptr) {
      if (h.queueDepth == nullptr) {
        h.queueDepth =
            &o->metrics->histogram("disk.queue_depth", obs::depthBuckets());
      }
      h.queueDepth->observe(static_cast<double>(depth));
    }
    if (depth >= 64 && !queueWarned_ && o->wantsLog(obs::LogLevel::Warn)) {
      queueWarned_ = true;
      o->log->warn("disk", "queue_saturated",
                   "\"disk\":\"" +
                       obs::TraceRecorder::jsonEscape(params_.name) +
                       "\",\"depth\":" + std::to_string(depth) +
                       ",\"sim_time\":" + std::to_string(engine_.now()));
    }
    if (o->edges != nullptr) {
      // The activity opens at arrival, so queue wait is inside it — the
      // critical path sees the latency the *request* experienced.
      act = o->edges->begin(obs::ActKind::Disk, -1, h.label, engine_.now(),
                            size, cause);
    }
  }
  co_await arm_.acquire();
  // Fault injection: consult the port before each attempt.  The null-port
  // fast path takes the first branch immediately with slowFactor 1.0 —
  // no RNG draws, no extra awaits, bit-identical to an uninstrumented run.
  double slow = 1.0;
  if (fault_ != nullptr) {
    int attempt = 0;
    for (;;) {
      const FaultVerdict verdict = fault_->onAttempt(engine_.now(), op, size);
      if (verdict.kind == FaultVerdict::Kind::Ok) {
        slow = verdict.slowFactor;
        break;
      }
      const RetryPolicy& policy = fault_->policy();
      // A down device burns the full per-attempt timeout; a transient
      // error fails fast after the controller overhead.
      const double cost = verdict.kind == FaultVerdict::Kind::Down
                              ? policy.timeoutSec
                              : params_.perRequestOverhead * degradation_;
      if (attempt >= policy.maxRetries) {
        ++counters_.faultEvents;
        co_await engine_.delay(cost);
        arm_.release();
        fault_->noteExhausted(engine_.now());
        if (obs::Hub* o = engine_.obs(); o != nullptr && o->edges != nullptr) {
          o->edges->end(act, engine_.now());
        }
        throw IoFault(params_.name,
                      "disk " + params_.name + ": I/O error after " +
                          std::to_string(attempt + 1) + " attempts");
      }
      const double stall =
          cost + backoffDelay(policy, attempt, fault_->backoffDraw());
      ++counters_.retryEvents;
      co_await engine_.delay(stall);
      fault_->noteRetry(engine_.now(), stall);
      ++attempt;
    }
  }
  // Evaluate sequentiality after queueing: the arm position is whatever the
  // previous request left behind.
  const double t = serviceTime(offset, size, op);
  if (!isSequential(offset)) ++counters_.positionEvents;
  lastEnd_ = offset + size;
  touched_ = true;
  if (op == IoOp::Read) {
    ++counters_.readOps;
    counters_.bytesRead += size;
  } else {
    ++counters_.writeOps;
    counters_.bytesWritten += size;
  }
  const double start = engine_.now();
  co_await engine_.delay(t * slow);
  arm_.release();
  if (obs::Hub* o = engine_.obs(); o != nullptr) {
    ObsHandles& h = obsHandles(*o);
    const bool read = op == IoOp::Read;
    if (o->edges != nullptr) o->edges->end(act, engine_.now());
    if (o->metrics != nullptr) {
      obs::Counter*& bytes = read ? h.bytesRead : h.bytesWritten;
      if (bytes == nullptr) {
        bytes = &o->metrics->counter(read ? "disk.bytes_read"
                                          : "disk.bytes_written");
      }
      bytes->add(static_cast<double>(size));
    }
    if (o->trace != nullptr) {
      if (h.track < 0) {
        h.track = o->trace->track(obs::TrackKind::Device, params_.name);
      }
      o->trace->span(obs::TrackKind::Device, h.track,
                     read ? h.read : h.write, h.cat, start, engine_.now(),
                     obs::TraceArgs().withOffset(offset).withBytes(size));
    }
  }
}

}  // namespace iop::storage
