// Run captures: the persisted per-run summary that iop-diff compares.
//
// A capture is a small, versioned file holding the identity of a run
// (app, np, configuration), its makespan, the per-phase measured times and
// bandwidths, and the full metrics CSV (so histogram shapes travel with
// it).  Produced by `iop-stats --capture-out`, consumed by `iop-diff` and
// archived per-commit by the capture archive (obs/archive.hpp).
//
// Captures are written in one format, v2 (columnar binary, self-contained
// — varint + delta + RLE + label dictionary + front-coded metrics CSV, one
// FNV-1a64 checksum per block so torn or bit-flipped files are detected,
// never mis-parsed; see capturev2.cpp for the exact layout).  Doubles
// travel as raw IEEE-754 bits, so read-back is bit-exact.
//
// Builds before v2 wrote v1, line-oriented text ('#'-free, labels last so
// they may hold spaces), and campaign stores and archives still hold such
// files, so parse()/load() sniff the first line and read either:
//   iop-capture v1
//   app <name>
//   np <n>
//   config <name>
//   makespan <seconds>
//   phases <count>
//   phase <id> <familyId> <weightBytes> <ioSeconds> <bandwidth> <label...>
//   metrics <lineCount>
//   <raw metrics CSV lines>
//   end
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace iop::obs {

struct CapturePhase {
  int id = 0;
  int familyId = 0;
  std::uint64_t weightBytes = 0;
  double ioSeconds = 0;   ///< measured I/O time of the phase
  double bandwidth = 0;   ///< weight / ioSeconds (bytes/s)
  std::string label;      ///< "W"/"R"/"W-R" plus file id
};

/// The encoding serialize() writes: v2, the only one.  Kept as the
/// spelling of serialize()'s argument for callers that name it.
enum class CaptureFormat { V2 };

struct RunCapture {
  std::string app;
  int np = 0;
  std::string config;
  double makespan = 0;
  std::vector<CapturePhase> phases;
  std::string metricsCsv;  ///< may be empty when metrics were off

  /// The v2 encoding of the capture.
  std::string serialize(CaptureFormat = CaptureFormat::V2) const;
  void save(const std::string& path) const;  ///< writes serialize()

  /// Version-sniffing parse of a whole file's bytes: reads v2 and v1
  /// (throws std::runtime_error on anything else).
  static RunCapture parse(const std::string& bytes);
  static RunCapture load(const std::string& path);  ///< parse() of a file
};

namespace detail {
/// v2 codec internals (capturev2.cpp); use RunCapture::parse/serialize.
std::string encodeCaptureV2(const RunCapture& cap);
RunCapture decodeCaptureV2(const std::string& bytes);
}  // namespace detail

}  // namespace iop::obs
