// The pipeline benchmark's workloads: the paper's estimate-and-validate
// pipeline at paper scale, and a what-if campaign whose winner is
// validated by a plain and an observed run.
//
// Load model: batch and closed-loop.  One process runs one workload;
// every operation starts after the previous one returns.  Only the
// campaign's sweep uses worker threads, never more than the host's cores.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "spans.hpp"

namespace perfbench {

/// What one pass produced besides its spans: per-layer counts and the
/// simulated-statistics fingerprint.
struct PassResult {
  double cells = 0;            ///< (model, target) estimates produced
  double errorMaxPct = 0;      ///< worst eq. 6-7 error (simulated time)
  std::uint64_t orderDigest = 0;  ///< fold of every owned engine's digest
  std::map<std::string, double> counts;
};

/// Everything a workload touches while it runs.
struct Context {
  SpanLog spans;
  std::uint64_t seed = 1;          ///< engine seed for configs::makeConfig
  std::filesystem::path workDir;   ///< scratch space (trace files, store)
  int jobs = 1;                    ///< sweep worker threads
  CheckLog checks;
  PassResult pass;                 ///< the pass being measured

  void count(const std::string& name, double value) {
    pass.counts[name] += value;
  }
};

/// Timings of repeated warm re-estimates.
struct WarmTiming {
  double cellsPerCall = 0;
  std::vector<double> callSeconds;  ///< one sample per timed call
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build configurations, warm caches and take reference runs.  Called
  /// several times; must leave the workload ready for pass().
  virtual void setUp(Context& ctx) = 0;
  /// One pass of the timed work: the estimate stage, then the validate
  /// stage.  Fills ctx.pass.
  virtual void pass(Context& ctx) = 0;
  /// Re-estimate the last pass's cells with every cache warm.  Timed
  /// apart from the pass.
  virtual WarmTiming warm(Context& ctx) = 0;
};

/// nullptr for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name);

}  // namespace perfbench
