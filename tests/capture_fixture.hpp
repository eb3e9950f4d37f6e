// A small run capture shared by the capture tests, and the same capture as
// the v1 text that builds before v2 wrote (nothing writes v1 any more,
// but stores and archives still hold such files, so the reader is kept
// and tested against this literal).
#pragma once

#include "obs/capture.hpp"

namespace iop::fixture {

inline obs::RunCapture sampleCapture() {
  obs::RunCapture cap;
  cap.app = "btio";
  cap.np = 4;
  cap.config = "Configuration A";
  cap.makespan = 31.25;
  obs::CapturePhase p;
  p.id = 1;
  p.familyId = 2;
  p.weightBytes = 1048576;
  p.ioSeconds = 0.5;
  p.bandwidth = 2097152;
  p.label = "W f1 with \"quotes\" and spaces";
  cap.phases.push_back(p);
  cap.metricsCsv =
      "disk.queue_depth,histogram,le_1,3\n"
      "disk.queue_depth,histogram,le_inf,1\n";
  return cap;
}

/// sampleCapture() in the v1 text encoding.
inline constexpr const char* kSampleCaptureV1 =
    "iop-capture v1\n"
    "app btio\n"
    "np 4\n"
    "config Configuration A\n"
    "makespan 31.25\n"
    "phases 1\n"
    "phase 1 2 1048576 0.5 2097152 W f1 with \"quotes\" and spaces\n"
    "metrics 2\n"
    "disk.queue_depth,histogram,le_1,3\n"
    "disk.queue_depth,histogram,le_inf,1\n"
    "end\n";

}  // namespace iop::fixture
