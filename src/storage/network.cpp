#include "storage/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/hub.hpp"
#include "storage/disk.hpp"  // IoOp definition for fault-port attempts

namespace iop::storage {

void Node::setDegradation(double factor) {
  if (factor < 1.0) {
    throw std::invalid_argument("degradation factor must be >= 1");
  }
  degradation_ = factor;
}

LinkParams gigabitEthernet() {
  // 1 Gb/s line rate; ~117 MB/s effective after TCP/IP framing.
  return LinkParams{117.0e6, 60.0e-6, 30.0e-6};
}

LinkParams infiniband20G() {
  // DDR 4x Infiniband: 20 Gb/s signalling, ~1.9 GB/s effective payload.
  return LinkParams{1.9e9, 4.0e-6, 2.0e-6};
}

namespace {

/// Edge label of transfers src -> dst, interned once per hub and peer
/// (node ids are dense indices into their Topology).
obs::LabelId linkLabel(Node::ObsHandles& h, obs::EdgeRecorder& edges,
                       const Node& src, const Node& dst) {
  const auto peer = static_cast<std::size_t>(dst.id());
  if (peer >= h.linkLabels.size()) {
    h.linkLabels.resize(peer + 1, Node::kUnresolved);
  }
  obs::LabelId& label = h.linkLabels[peer];
  if (label == Node::kUnresolved) {
    label = edges.label(src.name() + "->" + dst.name());
  }
  return label;
}

}  // namespace

sim::Task<void> transfer(sim::Engine& engine, Node& src, Node& dst,
                         std::uint64_t bytes, std::int64_t cause) {
  std::int64_t act = -1;
  if (obs::Hub* o = engine.obs(); o != nullptr) {
    Node::ObsHandles& h = src.obsHandles(engine.obsEpoch());
    const bool loopback = &src == &dst;
    if (o->metrics != nullptr) {
      obs::Counter*& counter = loopback ? h.loopbackBytes : h.bytes;
      if (counter == nullptr) {
        counter = &o->metrics->counter(loopback ? "net.loopback_bytes"
                                                : "net.bytes");
      }
      counter->add(static_cast<double>(bytes));
    }
    if (o->edges != nullptr && !loopback) {
      act = o->edges->begin(obs::ActKind::Network, -1,
                            linkLabel(h, *o->edges, src, dst), engine.now(),
                            bytes, cause);
    }
  }
  if (&src == &dst) {
    // Loopback: a memory copy at a generous in-node rate.
    co_await engine.delay(static_cast<double>(bytes) / 4.0e9);
    co_return;
  }
  co_await src.tx().acquire();
  co_await dst.rx().acquire();
  // Fault injection: either endpoint's port can fail or slow the transfer.
  // With both ports null (the default) this loop body never runs and the
  // path below is bit-identical to an uninstrumented build.
  double slow = 1.0;
  if (src.faultPort() != nullptr || dst.faultPort() != nullptr) {
    int attempt = 0;
    for (;;) {
      FaultVerdict worst{};
      FaultPort* blame = nullptr;
      Node* blameNode = nullptr;
      for (Node* endpoint : {&src, &dst}) {
        FaultPort* port = endpoint->faultPort();
        if (port == nullptr) continue;
        const FaultVerdict v =
            port->onAttempt(engine.now(), IoOp::Write, bytes);
        worst.slowFactor = std::max(worst.slowFactor, v.slowFactor);
        if (static_cast<int>(v.kind) > static_cast<int>(worst.kind)) {
          worst.kind = v.kind;
          blame = port;
          blameNode = endpoint;
        }
      }
      if (worst.kind == FaultVerdict::Kind::Ok) {
        slow = worst.slowFactor;
        break;
      }
      const RetryPolicy& policy = blame->policy();
      const double cost = worst.kind == FaultVerdict::Kind::Down
                              ? policy.timeoutSec
                              : src.link().perMessageOverhead;
      if (attempt >= policy.maxRetries) {
        co_await engine.delay(cost);
        dst.rx().release();
        src.tx().release();
        blame->noteExhausted(engine.now());
        if (act >= 0) {
          if (obs::Hub* o = engine.obs();
              o != nullptr && o->edges != nullptr) {
            o->edges->end(act, engine.now());
          }
        }
        throw IoFault(blameNode->name(),
                      "nic " + blameNode->name() + ": transfer " +
                          src.name() + "->" + dst.name() + " failed after " +
                          std::to_string(attempt + 1) + " attempts");
      }
      const double stall =
          cost + backoffDelay(policy, attempt, blame->backoffDraw());
      co_await engine.delay(stall);
      blame->noteRetry(engine.now(), stall);
      ++attempt;
    }
  }
  const double bw = std::min(src.link().bandwidth, dst.link().bandwidth);
  // A degraded endpoint slows the whole transfer (the path runs at the
  // slowest NIC); loopback copies never touch a NIC and stay unscaled.
  const double degrade =
      std::max(src.degradation(), dst.degradation()) * slow;
  const double t = (src.link().latency + src.link().perMessageOverhead +
                    dst.link().perMessageOverhead +
                    static_cast<double>(bytes) / bw) *
                   degrade;
  co_await engine.delay(t);
  dst.rx().release();
  src.tx().release();
  if (act >= 0) {
    if (obs::Hub* o = engine.obs(); o != nullptr && o->edges != nullptr) {
      o->edges->end(act, engine.now());
    }
  }
}

}  // namespace iop::storage
