// Solid-state device model.
//
// Unlike the rotational Disk, an SSD pays no positioning time: random and
// sequential access cost the same.  Internal parallelism is modeled as
// `channels` independent flash channels striped at `channelStripe` —
// large requests engage all channels, small ones a single channel — and
// steady-state garbage collection shows up as a write-amplification
// factor on the media time of writes.
//
// Useful for what-if studies on top of the paper's methodology: replace a
// configuration's RAID with an SSD and re-estimate an application's I/O
// time from its unchanged model (bench/tabx_ssd_whatif).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "storage/blockdev.hpp"
#include "storage/disk.hpp"

namespace iop::storage {

struct SsdParams {
  std::string name = "ssd";
  double readBandwidth = 500.0e6;   ///< bytes/s, all channels combined
  double writeBandwidth = 430.0e6;
  double readLatency = 60.0e-6;     ///< per-request, s
  double writeLatency = 25.0e-6;
  int channels = 4;
  std::uint64_t channelStripe = 64ULL << 10;
  /// Steady-state GC write amplification (media bytes per payload byte).
  double writeAmplification = 1.3;
};

class Ssd final : public BlockDevice {
 public:
  Ssd(sim::Engine& engine, SsdParams params);

  sim::Task<void> access(std::uint64_t offset, std::uint64_t size,
                         IoOp op, std::int64_t cause = -1) override;
  void collectDisks(std::vector<Disk*>& out) override;
  double idealBandwidth(IoOp op) const noexcept override;
  std::string describe() const override;

  const SsdParams& params() const noexcept { return params_; }

 private:
  sim::Engine& engine_;
  SsdParams params_;
  /// Flash channels reuse the Disk machinery with zero positioning time;
  /// their counters make the monitor and conservation checks work
  /// unchanged.
  std::vector<std::unique_ptr<Disk>> channels_;
};

}  // namespace iop::storage
