// iostat-style device monitor (the paper runs `iostat -x -p 1` on each I/O
// node; Figure 8 plots sectors/s and %util per disk over time).
//
// A DeviceMonitor samples cumulative disk counters every `interval`
// simulated seconds and reports per-interval rates.  Start it before the
// workload, stop it after; the sampling loop wakes once more after stop()
// and exits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "storage/disk.hpp"

namespace iop::monitor {

struct DiskSample {
  double sectorsReadPerSec = 0;
  double sectorsWrittenPerSec = 0;
  double utilization = 0;  ///< 0..1 busy fraction of the interval
};

struct Sample {
  double time = 0;  ///< end of the sampling interval
  std::vector<DiskSample> disks;
};

class DeviceMonitor {
 public:
  DeviceMonitor(sim::Engine& engine, std::vector<storage::Disk*> disks,
                double interval = 1.0);

  /// Spawn the sampling process (idempotent).
  void start();

  /// Ask the sampler to exit at its next wake-up.
  void stop() noexcept { stopRequested_ = true; }

  const std::vector<Sample>& samples() const noexcept { return samples_; }
  const std::vector<storage::Disk*>& disks() const noexcept {
    return disks_;
  }

  /// CSV: time,disk,sectors_r/s,sectors_w/s,util%
  std::string renderCsv() const;

  /// Peak utilization seen on any disk (Fig. 8's "about 100%" check).
  double peakUtilization() const;

 private:
  sim::Task<void> samplerLoop();
  void observeSample(const Sample& sample);

  sim::Engine& engine_;
  std::vector<storage::Disk*> disks_;
  double interval_;
  bool started_ = false;
  bool stopRequested_ = false;

  struct Baseline {
    std::uint64_t bytesRead = 0;
    std::uint64_t bytesWritten = 0;
    double busyIntegral = 0;
  };
  std::vector<Baseline> baselines_;
  std::vector<Sample> samples_;

  /// What observeSample() records, resolved once per attached hub; the
  /// per-disk tracks and gauges are created at a disk's first sample.
  struct ObsHandles {
    obs::NameId readRate = 0;
    obs::NameId writeRate = 0;
    obs::NameId util = 0;
    std::vector<int> tracks;  ///< per disk; -1 until first sample
    std::vector<obs::Gauge*> peaks;
    obs::Counter* samples = nullptr;
  };
  obs::HubCache<ObsHandles> obs_;
};

}  // namespace iop::monitor
