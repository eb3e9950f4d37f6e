// iop-diff: compare two run captures (iop-stats --capture-out) or two
// BENCH_*.json documents (iop-bench/1) — the kind is read from the file
// contents — and report every metric that moved by more than
// --threshold-pct, plus changed phases and histogram shapes for captures.
// The verdict is the trend rule's with one prior point
// (docs/OBSERVABILITY.md).  Exits 1 when regressions were found, so CI
// can gate on it, and 2 on usage errors or a capture/bench mix:
//
//   iop-stats --app btio --class A --np 4 --capture-out base.cap
//   iop-stats --app btio --class A --np 4 --capture-out head.cap
//   iop-diff base.cap head.cap --threshold-pct 5
//   iop-diff --align=similarity old-model.cap new-model.cap
//   iop-diff BENCH_core.base.json BENCH_core.json
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/benchjson.hpp"
#include "obs/capture.hpp"
#include "obs/diff.hpp"
#include "toolkit.hpp"
#include "util/args.hpp"

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::invalid_argument("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Captures start with their "iop-capture" magic; bench documents are
/// JSON objects.
bool isCapture(const std::string& bytes) {
  if (bytes.rfind("iop-capture", 0) == 0) return true;
  const auto first = bytes.find_first_not_of(" \t\r\n");
  if (first != std::string::npos && bytes[first] == '{') return false;
  throw std::invalid_argument(
      "input is neither a run capture nor an iop-bench/1 JSON document");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace iop;
  util::Args args;
  args.addOption("threshold-pct",
                 "relative change (%) flagged on any metric (default 5 for "
                 "captures, 10 for bench JSON)");
  args.addOption("align",
                 "capture phase matching: id (default) | similarity "
                 "(renumbering-tolerant, by label and weight)");
  tools::addLogOption(args);
  try {
    args.parse(argc, argv);
    if (args.helpRequested() || args.positional().size() != 2) {
      std::printf("%s",
                  args.usage("iop-diff <before> <after>",
                             "Diff two run captures or two bench JSON "
                             "files; non-zero exit when the second run "
                             "regressed.")
                      .c_str());
      return args.helpRequested() ? 0 : 2;
    }
    obs::Logger log(tools::toolLogLevel(args));
    const std::string bytesA = readFile(args.positional()[0]);
    const std::string bytesB = readFile(args.positional()[1]);
    const bool captures = isCapture(bytesA);
    if (captures != isCapture(bytesB)) {
      throw std::invalid_argument(
          "cannot compare a run capture with a bench JSON document");
    }
    obs::DiffOptions options;
    options.thresholdPct = args.getDouble("threshold-pct", captures ? 5 : 10);
    options.align = obs::parseAlignMode(args.getOr("align", "id"));
    obs::DiffResult result;
    if (captures) {
      const auto before = obs::RunCapture::parse(bytesA);
      const auto after = obs::RunCapture::parse(bytesB);
      if (before.app != after.app || before.np != after.np) {
        log.warn("diff", "identity_mismatch",
                 "\"before\":\"" + obs::TraceRecorder::jsonEscape(
                                       before.app + "/" +
                                       std::to_string(before.np)) +
                     "\",\"after\":\"" +
                     obs::TraceRecorder::jsonEscape(
                         after.app + "/" + std::to_string(after.np)) +
                     "\"");
      }
      result = obs::diffCaptures(before, after, options);
    } else {
      result = obs::diffBench(obs::parseBenchJson(bytesA),
                              obs::parseBenchJson(bytesB), options);
    }
    std::printf("%s", result.render().c_str());
    log.info("diff", "complete",
             "\"findings\":" + std::to_string(result.findings()) +
                 ",\"regressions\":" +
                 std::to_string(result.regressions()));
    return result.regressions() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iop-diff: %s\n", e.what());
    return 2;
  }
}
