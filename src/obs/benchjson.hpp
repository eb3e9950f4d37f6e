// iop-bench/1 JSON parsing, shared by every consumer of BENCH_*.json
// documents (the capture archive and the trend engine's series
// extraction, which iop-diff's bench comparison goes through too).
//
// The schema is the one bench::writeBenchJson and the micro-benchmarks
// write: one top-level object with a "schema" string equal to
// "iop-bench/1" and a "results" array of flat objects holding
// string/number fields (docs/OBSERVABILITY.md, "Bench JSON").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iop::obs {

struct BenchEntry {
  std::string name;
  std::int64_t iterations = 0;
  double nsPerOp = 0;          ///< 0 = not measured
  double bytesPerSecond = 0;   ///< 0 = not measured
};

/// Parse an iop-bench/1 document.  Throws std::invalid_argument on a
/// schema mismatch or malformed JSON.
std::vector<BenchEntry> parseBenchJson(const std::string& text);

}  // namespace iop::obs
