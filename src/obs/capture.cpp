#include "obs/capture.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace iop::obs {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::runtime_error("capture: " + what);
}

std::string expectLine(std::istream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) bad(std::string("truncated before ") + what);
  return line;
}

/// "key rest" -> rest, checking the key.
std::string keyed(const std::string& line, const std::string& key) {
  if (line.size() < key.size() + 1 || line.compare(0, key.size(), key) != 0 ||
      line[key.size()] != ' ') {
    bad("expected '" + key + " ...', got '" + line + "'");
  }
  return line.substr(key.size() + 1);
}

/// The v1 text reader, for captures written before v2.
RunCapture readV1(std::istream& in) {
  RunCapture cap;
  if (expectLine(in, "header") != "iop-capture v1") {
    bad("not an iop-capture v1 file");
  }
  cap.app = keyed(expectLine(in, "app"), "app");
  cap.np = std::stoi(keyed(expectLine(in, "np"), "np"));
  cap.config = keyed(expectLine(in, "config"), "config");
  cap.makespan = std::stod(keyed(expectLine(in, "makespan"), "makespan"));
  const int nPhases =
      std::stoi(keyed(expectLine(in, "phases"), "phases"));
  for (int i = 0; i < nPhases; ++i) {
    std::istringstream row(keyed(expectLine(in, "phase"), "phase"));
    CapturePhase p;
    if (!(row >> p.id >> p.familyId >> p.weightBytes >> p.ioSeconds >>
          p.bandwidth)) {
      bad("malformed phase row");
    }
    std::getline(row, p.label);
    if (!p.label.empty() && p.label.front() == ' ') p.label.erase(0, 1);
    cap.phases.push_back(std::move(p));
  }
  const int nMetrics =
      std::stoi(keyed(expectLine(in, "metrics"), "metrics"));
  std::string csv;
  for (int i = 0; i < nMetrics; ++i) {
    csv += expectLine(in, "metrics line");
    csv += "\n";
  }
  cap.metricsCsv = std::move(csv);
  if (expectLine(in, "end") != "end") bad("missing end marker");
  return cap;
}

}  // namespace

std::string RunCapture::serialize(CaptureFormat) const {
  return detail::encodeCaptureV2(*this);
}

void RunCapture::save(const std::string& path) const {
  std::ofstream file(path, std::ios::binary);
  if (!file) bad("cannot open output " + path);
  file << serialize();
  if (!file) bad("failed writing " + path);
}

RunCapture RunCapture::parse(const std::string& bytes) {
  // Both formats begin with a sniffable "iop-capture vN\n" line.
  if (bytes.rfind("iop-capture v2\n", 0) == 0) {
    return detail::decodeCaptureV2(bytes);
  }
  std::istringstream in(bytes);
  return readV1(in);
}

RunCapture RunCapture::load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) bad("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse(buffer.str());
}

}  // namespace iop::obs
