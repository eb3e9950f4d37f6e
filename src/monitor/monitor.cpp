#include "monitor/monitor.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "obs/hub.hpp"

namespace iop::monitor {

DeviceMonitor::DeviceMonitor(sim::Engine& engine,
                             std::vector<storage::Disk*> disks,
                             double interval)
    : engine_(engine), disks_(std::move(disks)), interval_(interval) {
  if (interval_ <= 0) throw std::invalid_argument("interval must be > 0");
  baselines_.resize(disks_.size());
}

void DeviceMonitor::start() {
  if (started_) return;
  started_ = true;
  for (std::size_t i = 0; i < disks_.size(); ++i) {
    baselines_[i].bytesRead = disks_[i]->counters().bytesRead;
    baselines_[i].bytesWritten = disks_[i]->counters().bytesWritten;
    baselines_[i].busyIntegral = disks_[i]->busyIntegral(engine_.now());
  }
  engine_.spawn(samplerLoop());
}

sim::Task<void> DeviceMonitor::samplerLoop() {
  while (!stopRequested_) {
    co_await engine_.delay(interval_);
    Sample sample;
    sample.time = engine_.now();
    sample.disks.resize(disks_.size());
    for (std::size_t i = 0; i < disks_.size(); ++i) {
      const auto& c = disks_[i]->counters();
      const double busy = disks_[i]->busyIntegral(engine_.now());
      auto& base = baselines_[i];
      auto& ds = sample.disks[i];
      ds.sectorsReadPerSec =
          static_cast<double>(c.bytesRead - base.bytesRead) /
          storage::kSectorBytes / interval_;
      ds.sectorsWrittenPerSec =
          static_cast<double>(c.bytesWritten - base.bytesWritten) /
          storage::kSectorBytes / interval_;
      ds.utilization = (busy - base.busyIntegral) / interval_;
      base.bytesRead = c.bytesRead;
      base.bytesWritten = c.bytesWritten;
      base.busyIntegral = busy;
    }
    observeSample(sample);
    samples_.push_back(std::move(sample));
  }
}

/// Mirror one iostat sample into the observability layer: the Fig.-8 data
/// appears as counter tracks on the same device tracks that carry the disk
/// request spans, plus peak-utilization metrics.
void DeviceMonitor::observeSample(const Sample& sample) {
  obs::Hub* o = engine_.obs();
  if (o == nullptr) return;
  ObsHandles& h = obs_.get(engine_.obsEpoch(), [&](ObsHandles& fresh) {
    if (o->trace != nullptr) {
      fresh.readRate = o->trace->name("sectors_r/s");
      fresh.writeRate = o->trace->name("sectors_w/s");
      fresh.util = o->trace->name("util %");
    }
    fresh.tracks.assign(disks_.size(), -1);
    fresh.peaks.assign(disks_.size(), nullptr);
  });
  for (std::size_t i = 0; i < disks_.size(); ++i) {
    const auto& ds = sample.disks[i];
    if (o->trace != nullptr) {
      // Same (kind, name) key as the disk's own spans -> same track.
      if (h.tracks[i] < 0) {
        h.tracks[i] = o->trace->track(obs::TrackKind::Device,
                                      disks_[i]->params().name);
      }
      o->trace->counterSample(obs::TrackKind::Device, h.tracks[i],
                              h.readRate, sample.time,
                              ds.sectorsReadPerSec);
      o->trace->counterSample(obs::TrackKind::Device, h.tracks[i],
                              h.writeRate, sample.time,
                              ds.sectorsWrittenPerSec);
      o->trace->counterSample(obs::TrackKind::Device, h.tracks[i], h.util,
                              sample.time, ds.utilization * 100.0);
    }
    if (o->metrics != nullptr) {
      if (h.peaks[i] == nullptr) {
        h.peaks[i] = &o->metrics->gauge(
            "monitor." + disks_[i]->params().name + ".peak_utilization");
      }
      if (ds.utilization > h.peaks[i]->value()) {
        h.peaks[i]->set(ds.utilization);
      }
    }
  }
  if (o->metrics != nullptr) {
    if (h.samples == nullptr) {
      h.samples = &o->metrics->counter("monitor.samples");
    }
    h.samples->add(1);
  }
}

std::string DeviceMonitor::renderCsv() const {
  std::ostringstream out;
  out << "time,disk,sectors_r_per_s,sectors_w_per_s,util_pct\n";
  char buf[160];
  for (const auto& sample : samples_) {
    for (std::size_t i = 0; i < sample.disks.size(); ++i) {
      const auto& ds = sample.disks[i];
      std::snprintf(buf, sizeof buf, "%.1f,%s,%.0f,%.0f,%.1f\n", sample.time,
                    disks_[i]->params().name.c_str(), ds.sectorsReadPerSec,
                    ds.sectorsWrittenPerSec, ds.utilization * 100.0);
      out << buf;
    }
  }
  return out.str();
}

double DeviceMonitor::peakUtilization() const {
  double peak = 0;
  for (const auto& sample : samples_) {
    for (const auto& ds : sample.disks) {
      peak = std::max(peak, ds.utilization);
    }
  }
  return peak;
}

}  // namespace iop::monitor
