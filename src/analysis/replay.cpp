#include "analysis/replay.hpp"

#include <algorithm>

#include "obs/profiler.hpp"

namespace iop::analysis {

ReplayPlanEntry planReplay(const core::IOModel& model,
                           const core::Phase& phase,
                           const std::string& mount) {
  ReplayPlanEntry entry;
  entry.phaseId = phase.id;

  const auto meta = model.metadataFor(phase.idF);

  ior::IorParams& p = entry.params;
  p.mount = mount;
  p.segments = 1;                                        // s = 1
  p.np = phase.np();                                     // NP = np(ph)
  // b = weight per process = rep * sum of the cycle's request sizes;
  // t = rs.  For multi-op cycles rs is per op (equal in our workloads).
  std::uint64_t rsMax = 0;
  for (const auto& op : phase.ops) {
    rsMax = std::max(rsMax, op.rsBytes);
    if (op.isWrite()) {
      entry.hasWrite = true;
    } else {
      entry.hasRead = true;
    }
  }
  p.transferSize = rsMax;                                // t = rs
  p.blockSize = phase.rep * rsMax;                       // b = rep * rs
  p.uniqueFilePerProc = meta.accessType == "Unique";     // -F
  p.collective = phase.anyCollective();                  // -c
  if (meta.accessMode == "Random") {
    p.accessMode = ior::AccessMode::Random;
  } else {
    p.accessMode = ior::AccessMode::Sequential;
    entry.accessModeFallback = meta.accessMode == "Strided";
  }
  p.doWrite = entry.hasWrite || entry.hasRead;  // reads need data in place
  p.doRead = entry.hasRead;
  return entry;
}

Replayer::Key Replayer::keyOf(const ReplayPlanEntry& entry) noexcept {
  const ior::IorParams& p = entry.params;
  return Key{p.blockSize,  p.transferSize,      p.segments,
             p.np,         p.uniqueFilePerProc, p.collective,
             p.accessMode, entry.hasWrite,      entry.hasRead};
}

PhaseBandwidth Replayer::measure(const core::IOModel& model,
                                 const core::Phase& phase) {
  IOP_PROFILE_SCOPE("replay.measure");
  auto entry = planReplay(model, phase, mount_);
  const Key key = keyOf(entry);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;

  auto cluster = builder_();
  ++runs_;
  auto result = ior::runIor(cluster, entry.params);

  PhaseBandwidth bw;
  if (entry.hasWrite) bw.writeBandwidth = result.writeBandwidth;
  if (entry.hasRead) bw.readBandwidth = result.readBandwidth;
  if (entry.hasWrite && entry.hasRead) {
    bw.characterized = (bw.writeBandwidth + bw.readBandwidth) / 2.0;
  } else if (entry.hasWrite) {
    bw.characterized = bw.writeBandwidth;
  } else {
    bw.characterized = bw.readBandwidth;
  }
  cache_.emplace(key, bw);
  return bw;
}

Estimate estimateIoTime(const core::IOModel& model, Replayer& replayer) {
  Estimate estimate;
  for (const auto& phase : model.phases()) {
    PhaseEstimate pe;
    pe.phaseId = phase.id;
    pe.familyId = phase.familyId;
    pe.weightBytes = phase.weightBytes;
    pe.bandwidthCH = replayer.measure(model, phase).characterized;
    pe.timeCH = pe.bandwidthCH > 0
                    ? static_cast<double>(pe.weightBytes) / pe.bandwidthCH
                    : 0;
    estimate.totalTimeSec += pe.timeCH;
    estimate.phases.push_back(pe);
  }
  return estimate;
}

std::vector<Estimate::FamilyRow> Estimate::familyRows() const {
  std::vector<FamilyRow> rows;
  int currentFamily = -1;
  for (const auto& pe : phases) {
    if (rows.empty() || pe.familyId != currentFamily) {
      currentFamily = pe.familyId;
      rows.push_back(FamilyRow{pe.phaseId, pe.phaseId, 0, 0});
    }
    rows.back().lastPhase = pe.phaseId;
    rows.back().weightBytes += pe.weightBytes;
    rows.back().timeCH += pe.timeCH;
  }
  return rows;
}

}  // namespace iop::analysis
