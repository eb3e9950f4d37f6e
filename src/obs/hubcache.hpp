// Per-component cache of what the component resolved against the attached
// obs::Hub (track ids, name and label ids, instrument handles), keyed to
// sim::Engine::obsEpoch().  Kept apart from hub.hpp so that sim::Engine,
// which caches its own handles, need not include the recorders.
#pragma once

#include <cstdint>

namespace iop::obs {

/// Handles one component resolved against the attached hub.  `get()`
/// returns them as resolved for `epoch` (sim::Engine::obsEpoch()); when
/// the epoch has moved on since, it value-initializes them and runs
/// `resolve(handles)` first.  Whatever must appear in the output only
/// once used (tracks, metrics) is left for the caller to create lazily.
template <class Handles>
class HubCache {
 public:
  template <class Resolve>
  Handles& get(std::uint64_t epoch, Resolve&& resolve) {
    if (epoch != epoch_) [[unlikely]] {
      handles_ = Handles{};
      resolve(handles_);
      epoch_ = epoch;
    }
    return handles_;
  }

 private:
  std::uint64_t epoch_ = 0;  ///< engine epochs start at 1
  Handles handles_{};
};

}  // namespace iop::obs
