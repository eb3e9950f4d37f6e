// Rotational/solid-state disk model.
//
// A Disk is a single-arm FCFS server.  A request pays:
//   perRequestOverhead                        (controller + command setup)
//   + positionTime  if not sequential w.r.t. the previous request's end
//   + size / bandwidth(op)                    (media transfer)
//
// Sequential detection uses the last accessed end offset with a small
// tolerance window (read-ahead hides small forward jumps).  Counters mirror
// what Linux exposes via /proc/diskstats so the iostat-style monitor
// (src/monitor) can report sectors/s and %util like the paper's Figure 8.
#pragma once

#include <cstdint>
#include <string>

#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/faults.hpp"

namespace iop::storage {

enum class IoOp { Read, Write };

/// "sector" in the iostat sense.
inline constexpr std::uint64_t kSectorBytes = 512;

struct DiskParams {
  std::string name = "disk";
  double seqReadBw = 100.0e6;   ///< bytes/s sustained sequential read
  double seqWriteBw = 95.0e6;   ///< bytes/s sustained sequential write
  double positionTime = 8.0e-3; ///< s, average seek + rotational latency
  double perRequestOverhead = 0.1e-3;  ///< s, command/controller overhead
  std::uint64_t seqWindow = 512 * 1024;  ///< forward jump still "sequential"
};

/// Cumulative activity counters (monotonic, like /proc/diskstats).
struct DiskCounters {
  std::uint64_t readOps = 0;
  std::uint64_t writeOps = 0;
  std::uint64_t bytesRead = 0;
  std::uint64_t bytesWritten = 0;
  std::uint64_t positionEvents = 0;  ///< requests that paid a seek
  std::uint64_t retryEvents = 0;     ///< failed attempts that were retried
  std::uint64_t faultEvents = 0;     ///< requests that exhausted retries

  std::uint64_t sectorsRead() const noexcept {
    return bytesRead / kSectorBytes;
  }
  std::uint64_t sectorsWritten() const noexcept {
    return bytesWritten / kSectorBytes;
  }
};

class Disk {
 public:
  Disk(sim::Engine& engine, DiskParams params)
      : engine_(engine), params_(std::move(params)), arm_(engine, 1) {}

  /// Perform one request; suspends for queueing + service time.  `cause`
  /// is the obs activity that issued the request (-1 = background work,
  /// e.g. cache write-back); used for critical-path dependency edges.
  sim::Task<void> access(std::uint64_t offset, std::uint64_t size, IoOp op,
                         std::int64_t cause = -1);

  /// Pure service time (no queueing) the next `access` with these arguments
  /// would take; used by tests and by analytic peak estimation.
  double serviceTime(std::uint64_t offset, std::uint64_t size,
                     IoOp op) const noexcept;

  const DiskCounters& counters() const noexcept { return counters_; }
  const DiskParams& params() const noexcept { return params_; }

  /// Busy-time integral (seconds of arm activity) up to `asOf`; the monitor
  /// differentiates this for %util.
  double busyIntegral(sim::Time asOf) const { return arm_.busyIntegral(asOf); }

  /// Degradation injection: scale service times by `factor` (>= 1) from
  /// now on — a failing/remapping drive, a rebuilding RAID member, or a
  /// contended virtualized disk.  1 restores full speed.
  void setDegradation(double factor);
  double degradation() const noexcept { return degradation_; }

  /// Fault injection: consult `port` before every attempt (null detaches;
  /// the default).  The port outlives the disk's workload — it is owned by
  /// the fault::FaultInjector attached to the cluster.
  void setFaultPort(FaultPort* port) noexcept { fault_ = port; }
  FaultPort* faultPort() const noexcept { return fault_; }

 private:
  bool isSequential(std::uint64_t offset) const noexcept;

  sim::Engine& engine_;
  DiskParams params_;
  sim::Resource arm_;
  DiskCounters counters_;
  std::uint64_t lastEnd_ = 0;
  bool touched_ = false;
  double degradation_ = 1.0;
  FaultPort* fault_ = nullptr;
  bool queueWarned_ = false;  ///< saturation warning fired once per disk

  /// What access() records with, resolved once per attached hub.
  struct ObsHandles {
    obs::LabelId label = 0;  ///< edge label: the disk's name
    obs::NameId read = 0;
    obs::NameId write = 0;
    obs::NameId cat = 0;
    int track = -1;  ///< registered at the first completed request
    obs::Histogram* queueDepth = nullptr;  ///< created at first use
    obs::Counter* bytesRead = nullptr;
    obs::Counter* bytesWritten = nullptr;
  };
  ObsHandles& obsHandles(obs::Hub& hub);
  obs::HubCache<ObsHandles> obs_;
};

}  // namespace iop::storage
