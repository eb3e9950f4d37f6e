// Cluster nodes and the interconnect model.
//
// Each node has a NIC with separate transmit and receive FCFS channels; a
// transfer occupies src.tx and dst.rx for latency + size/bandwidth.  The
// switch fabric is assumed non-blocking (true for the paper's GbE and
// Infiniband clusters at these scales): endpoint NICs are the bottleneck.
// Acquisition is always tx before rx, which makes cycles — and therefore
// deadlock — impossible.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/faults.hpp"

namespace iop::storage {

struct LinkParams {
  double bandwidth = 117.0e6;       ///< bytes/s effective (1 GbE w/ TCP)
  double latency = 60.0e-6;         ///< s one-way
  double perMessageOverhead = 30.0e-6;  ///< s protocol/stack cost
};

/// Preset: 1 Gb Ethernet with TCP overheads (the paper's Aohyper/config C).
LinkParams gigabitEthernet();

/// Preset: 20 Gb/s Infiniband (the paper's Finisterrae).
LinkParams infiniband20G();

class Node {
 public:
  Node(sim::Engine& engine, int id, std::string name, LinkParams link)
      : id_(id),
        name_(std::move(name)),
        link_(link),
        tx_(engine, 1),
        rx_(engine, 1) {}

  int id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }
  const LinkParams& link() const noexcept { return link_; }
  sim::Resource& tx() noexcept { return tx_; }
  sim::Resource& rx() noexcept { return rx_; }

  /// Fault injection: scale every transfer touching this NIC by `factor`
  /// (>= 1; throws below).  Mirrors Disk::setDegradation so regression
  /// gates can cover transfer-bound configurations (--degrade-net).
  void setDegradation(double factor);
  double degradation() const noexcept { return degradation_; }

  /// Fault injection: consult `port` before every transfer touching this
  /// NIC (null detaches; the default).  Crash windows and stragglers from
  /// a fault plan arrive through here.
  void setFaultPort(FaultPort* port) noexcept { fault_ = port; }
  FaultPort* faultPort() const noexcept { return fault_; }

  /// What transfer() records for traffic sent from this node, resolved
  /// once per attached hub (`epoch` = sim::Engine::obsEpoch()).
  struct ObsHandles {
    obs::Counter* bytes = nullptr;          ///< "net.bytes", at first use
    obs::Counter* loopbackBytes = nullptr;  ///< "net.loopback_bytes"
    /// Edge label "<this>-><peer>" by peer id; kUnresolved until used.
    std::vector<obs::LabelId> linkLabels;
  };
  static constexpr obs::LabelId kUnresolved = ~obs::LabelId{0};
  ObsHandles& obsHandles(std::uint64_t epoch) {
    return obs_.get(epoch, [](ObsHandles&) {});
  }

 private:
  int id_;
  std::string name_;
  LinkParams link_;
  sim::Resource tx_;
  sim::Resource rx_;
  double degradation_ = 1.0;
  FaultPort* fault_ = nullptr;
  obs::HubCache<ObsHandles> obs_;
};

/// Point-to-point transfer of `bytes` from src to dst.  Same-node transfers
/// cost only a memory copy.  `cause` is the obs::EdgeRecorder activity
/// that issued the transfer (-1 = none); it threads causal dependency
/// edges through the storage stack for critical-path analysis.
sim::Task<void> transfer(sim::Engine& engine, Node& src, Node& dst,
                         std::uint64_t bytes, std::int64_t cause = -1);

}  // namespace iop::storage
