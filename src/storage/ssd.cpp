#include "storage/ssd.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/sync.hpp"

namespace iop::storage {

Ssd::Ssd(sim::Engine& engine, SsdParams params)
    : engine_(engine), params_(std::move(params)) {
  if (params_.channels < 1) {
    throw std::invalid_argument("SSD needs at least one channel");
  }
  if (params_.channelStripe == 0) {
    throw std::invalid_argument("channel stripe must be > 0");
  }
  if (params_.writeAmplification < 1.0) {
    throw std::invalid_argument("write amplification must be >= 1");
  }
  for (int c = 0; c < params_.channels; ++c) {
    DiskParams dp;
    dp.name = params_.name + "-ch" + std::to_string(c);
    dp.seqReadBw = params_.readBandwidth / params_.channels;
    dp.seqWriteBw = params_.writeBandwidth / params_.channels /
                    params_.writeAmplification;
    dp.positionTime = 0;  // no seeks: random == sequential
    dp.perRequestOverhead = 0;  // charged once per request below
    channels_.push_back(std::make_unique<Disk>(engine, dp));
  }
}

sim::Task<void> Ssd::access(std::uint64_t offset, std::uint64_t size,
                            IoOp op, std::int64_t cause) {
  // Per-request controller latency, then the payload striped over the
  // flash channels (aggregated per channel, like a RAID0 row).
  co_await engine_.delay(op == IoOp::Read ? params_.readLatency
                                          : params_.writeLatency);
  const std::size_t n = channels_.size();
  struct Slice {
    std::uint64_t firstOffset = 0;
    std::uint64_t bytes = 0;
    bool touched = false;
  };
  std::vector<Slice> slices(n);
  std::uint64_t cursor = offset;
  const std::uint64_t end = offset + size;
  while (cursor < end) {
    const std::uint64_t stripe = cursor / params_.channelStripe;
    const std::uint64_t within = cursor % params_.channelStripe;
    const std::uint64_t chunk =
        std::min(end - cursor, params_.channelStripe - within);
    auto& slice = slices[static_cast<std::size_t>(stripe % n)];
    if (!slice.touched) {
      slice.firstOffset = (stripe / n) * params_.channelStripe + within;
      slice.touched = true;
    }
    slice.bytes += chunk;
    cursor += chunk;
  }
  std::vector<sim::Task<void>> ops;
  for (std::size_t c = 0; c < n; ++c) {
    if (slices[c].touched) {
      ops.push_back(channels_[c]->access(slices[c].firstOffset,
                                         slices[c].bytes, op, cause));
    }
  }
  co_await sim::whenAll(engine_, std::move(ops));
}

void Ssd::collectDisks(std::vector<Disk*>& out) {
  for (auto& c : channels_) out.push_back(c.get());
}

double Ssd::idealBandwidth(IoOp op) const noexcept {
  return op == IoOp::Read
             ? params_.readBandwidth
             : params_.writeBandwidth / params_.writeAmplification;
}

std::string Ssd::describe() const {
  return "ssd(" + params_.name + ", " + std::to_string(params_.channels) +
         " channels)";
}

}  // namespace iop::storage
