#include "calib.hpp"

#include <algorithm>

namespace perfbench {

SpeedProbe::SpeedProbe()
    : objects_(std::size_t{1} << 20), rng_(12345) {  // fixed data
  std::uniform_real_distribution<double> when(0.0, 1.0);
  for (std::uint32_t i = 0; i < 65536; ++i) {
    heap_.push_back(Event{when(rng_), static_cast<std::uint32_t>(
                                          rng_() % objects_.size())});
    std::push_heap(heap_.begin(), heap_.end());
  }
}

void SpeedProbe::run() {
  std::uniform_real_distribution<double> delay(0.0, 1.0);
  for (std::size_t i = 0; i < kEvents; ++i) {
    std::pop_heap(heap_.begin(), heap_.end());
    const Event e = heap_.back();
    heap_.pop_back();
    const std::uint64_t state = ++objects_[e.object];
    heap_.push_back(Event{e.time + delay(rng_),
                          static_cast<std::uint32_t>(
                              (e.object * 2654435761u + state) %
                              objects_.size())});
    std::push_heap(heap_.begin(), heap_.end());
  }
}

std::vector<double> speedFactors(const std::vector<Span>& spans) {
  struct Probe {
    double start, end, seconds;
  };
  std::vector<Probe> probes;
  for (const Span& s : spans) {
    if (s.name == kProbeSpan) probes.push_back({s.start, s.end, s.end - s.start});
  }
  std::vector<double> factors(spans.size(), 1.0);
  if (probes.empty()) return factors;

  // Probes are recorded in start order and never overlap.
  auto endsBefore = [&probes](double t) {  // last probe with end <= t
    auto it = std::upper_bound(
        probes.begin(), probes.end(), t,
        [](double v, const Probe& p) { return v < p.end; });
    return it == probes.begin() ? nullptr : &*(it - 1);
  };
  auto startsAfter = [&probes](double t) {  // first probe with start >= t
    auto it = std::lower_bound(
        probes.begin(), probes.end(), t,
        [](const Probe& p, double v) { return p.start < v; });
    return it == probes.end() ? nullptr : &*it;
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.name == kProbeSpan) {
      factors[i] = 0;
      continue;
    }
    const Probe* next = startsAfter(s.start);
    if (next != nullptr && next->end <= s.end) {
      // The span encloses probes (the pass, a stage, a sweep probing
      // between cells): the mean of those.
      double sum = 0;
      int n = 0;
      for (const Probe* p = next; p != probes.data() + probes.size() &&
                                  p->end <= s.end;
           ++p) {
        sum += p->seconds;
        ++n;
      }
      factors[i] = kProbeReferenceSeconds * n / sum;
      continue;
    }
    const Probe* before = endsBefore(s.start);
    const Probe* after = startsAfter(s.end);
    double around = 0;
    if (before != nullptr && after != nullptr) {
      around = (before->seconds + after->seconds) / 2;
    } else {
      around = (before != nullptr ? before : after)->seconds;
    }
    factors[i] = kProbeReferenceSeconds / around;
  }
  return factors;
}

}  // namespace perfbench
