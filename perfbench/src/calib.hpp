// Host-speed calibration for the pipeline benchmark's timings.
//
// On a shared host the same pass can take 1.3-1.8 times as long from one
// minute to the next while other tenants load the machine's caches and
// memory.  The slowdown is host-wide (every core moves together) and
// lasts seconds to minutes, so no statistic over one run's repeats can
// remove it.  A fixed probe with the simulator's access pattern -- a
// discrete-event kernel popping and pushing a binary heap of pending
// events and touching a random object per event -- slows down with it.
// Untraced passes run the probe before and after every step; each
// step's host seconds are then scaled by kProbeReferenceSeconds / (the
// probe's time around the step), which gives the step's time on the host
// in the state where the probe takes kProbeReferenceSeconds: a
// "reference second".  The probe is the benchmark's own code, so a change
// to the program under test leaves it alone; every step starts after a
// probe, with the probe's data in the caches, on both sides of a
// comparison.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Name of the spans a SpanLog records around each probe run.
inline constexpr const char* kProbeSpan = "calib.probe";

/// The probe's time on the host it was tuned on, in a quiet stretch.
inline constexpr double kProbeReferenceSeconds = 0.005;

/// A discrete-event kernel on fixed data: a heap of 65536 pending
/// events, each event touching one of 1 Mi 8-byte objects (8 MiB).
class SpeedProbe {
 public:
  SpeedProbe();
  /// One probe: kEvents events, each popped, applied and replaced.
  void run();

 private:
  struct Event {
    double time;
    std::uint32_t object;
    bool operator<(const Event& o) const { return time > o.time; }
  };
  static constexpr std::size_t kEvents = 20000;
  std::vector<Event> heap_;  ///< std::push_heap order, earliest on top
  std::vector<std::uint64_t> objects_;
  std::mt19937_64 rng_;
};

/// For each span, kProbeReferenceSeconds over the probe's time around
/// it: the mean of the probe spans within it; when there are none, of
/// the nearest probe span that ended before it started and the nearest
/// one that started after it ended (either one alone when the other is
/// missing).  Probe spans get 0.  All 1 when the log holds no probe.
std::vector<double> speedFactors(const std::vector<Span>& spans);

}  // namespace perfbench
