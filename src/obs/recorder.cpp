#include "obs/recorder.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace iop::obs {

namespace {

const char* processName(TrackKind kind) {
  switch (kind) {
    case TrackKind::Rank: return "mpi ranks";
    case TrackKind::Device: return "storage devices";
    case TrackKind::Profiler: return "analysis profiler (wall clock)";
    case TrackKind::Sim: return "simulation engine";
    case TrackKind::Worker: return "sweep workers (wall clock)";
  }
  return "?";
}

/// Render a double the way the rest of the repo renders times: enough
/// precision to round-trip microsecond timestamps, no locale surprises.
std::string renderNumber(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

std::string TraceRecorder::jsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  const auto* s = reinterpret_cast<const unsigned char*>(raw.data());
  const std::size_t n = raw.size();
  for (std::size_t i = 0; i < n;) {
    const unsigned char c = s[i];
    if (c < 0x80) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (c < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
          } else {
            out += static_cast<char>(c);
          }
      }
      ++i;
      continue;
    }
    // Non-ASCII: pass through only well-formed UTF-8 (the output must be a
    // valid JSON document even for hostile track/span names); anything
    // else — stray continuation bytes, overlong encodings, surrogates,
    // truncated sequences, Latin-1 bytes — becomes U+FFFD.
    std::size_t len = 0;
    std::uint32_t cp = 0;
    if ((c & 0xe0) == 0xc0) {
      len = 2;
      cp = c & 0x1fu;
    } else if ((c & 0xf0) == 0xe0) {
      len = 3;
      cp = c & 0x0fu;
    } else if ((c & 0xf8) == 0xf0) {
      len = 4;
      cp = c & 0x07u;
    }
    bool ok = len > 0 && i + len <= n;
    for (std::size_t k = 1; ok && k < len; ++k) {
      if ((s[i + k] & 0xc0) != 0x80) {
        ok = false;
      } else {
        cp = (cp << 6) | (s[i + k] & 0x3fu);
      }
    }
    if (ok) {
      ok = (len == 2 && cp >= 0x80) || (len == 3 && cp >= 0x800) ||
           (len == 4 && cp >= 0x10000);
      if (cp > 0x10ffff || (cp >= 0xd800 && cp <= 0xdfff)) ok = false;
    }
    if (ok) {
      out.append(raw, i, len);
      i += len;
    } else {
      out += "\xef\xbf\xbd";  // U+FFFD replacement character
      ++i;
    }
  }
  return out;
}

int TraceRecorder::track(TrackKind kind, const std::string& name) {
  const int pid = static_cast<int>(kind);
  auto key = std::make_pair(pid, name);
  auto it = trackIds_.find(key);
  if (it != trackIds_.end()) return it->second;
  const int tid = nextTid_[pid]++;
  trackIds_.emplace(std::move(key), tid);
  tracks_.push_back(Track{kind, tid, name});
  return tid;
}

int TraceRecorder::rankTrack(int rank) {
  return track(TrackKind::Rank, "rank " + std::to_string(rank));
}

void TraceRecorder::attachJson(TraceEvent& ev, std::string argsJson) {
  if (argsJson.empty()) return;
  ev.args = TraceEvent::kJson;
  argWords_.push_back(jsonArgs_.size());
  jsonArgs_.push_back(std::move(argsJson));
}

void TraceRecorder::span(TrackKind kind, int tid, const std::string& name,
                         const std::string& cat, double beginSec,
                         double endSec, std::string argsJson) {
  span(kind, tid, this->name(name), this->name(cat), beginSec, endSec);
  attachJson(events_.back(), std::move(argsJson));
}

void TraceRecorder::instant(TrackKind kind, int tid, const std::string& name,
                            const std::string& cat, double atSec,
                            std::string argsJson) {
  instant(kind, tid, this->name(name), this->name(cat), atSec);
  attachJson(events_.back(), std::move(argsJson));
}

void TraceRecorder::renderArgs(std::ostream& out, const TraceEvent& ev,
                               std::size_t word) const {
  out << ",\"args\":{";
  if (ev.args == TraceEvent::kJson) {
    out << jsonArgs_[argWords_[word]];
  } else {
    const char* sep = "";
    auto field = [&](std::uint8_t bit, const char* key) {
      if ((ev.args & bit) == 0) return;
      out << sep << '"' << key << "\":";
      if (bit == TraceArgs::kFile) {
        out << static_cast<std::int64_t>(argWords_[word++]);
      } else {
        out << argWords_[word++];
      }
      sep = ",";
    };
    field(TraceArgs::kFile, "file");
    field(TraceArgs::kOffset, "offset");
    field(TraceArgs::kBytes, "bytes");
    field(TraceArgs::kTick, "tick");
  }
  out << "}";
}

void TraceRecorder::writeJson(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  // Metadata first: name the process groups and the tracks inside them.
  std::vector<int> namedPids;
  for (const auto& t : tracks_) {
    const int pid = static_cast<int>(t.kind);
    if (std::find(namedPids.begin(), namedPids.end(), pid) ==
        namedPids.end()) {
      namedPids.push_back(pid);
      comma();
      out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
          << ",\"tid\":0,\"args\":{\"name\":\""
          << jsonEscape(processName(t.kind)) << "\"}}";
    }
    comma();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":" << t.tid << ",\"args\":{\"name\":\""
        << jsonEscape(t.name) << "\"}}";
  }

  // Data events in timestamp order (stable sort keeps same-ts events in
  // recording order, which for a deterministic sim is itself
  // deterministic).  Args words sit in recording order, so each event's
  // first word is a running count taken before the sort.
  struct Ordered {
    const TraceEvent* ev;
    std::size_t word;
  };
  std::vector<Ordered> ordered;
  ordered.reserve(events_.size());
  std::size_t word = 0;
  for (const auto& ev : events_) {
    ordered.push_back({&ev, word});
    word += ev.args == TraceEvent::kJson ? 1 : std::popcount(ev.args);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const Ordered& a, const Ordered& b) {
                     return a.ev->tsUs < b.ev->tsUs;
                   });
  // Each interned name is escaped once, not once per event.
  std::vector<std::string> escaped(names_.size());
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    escaped[i] = jsonEscape(names_.str(static_cast<NameId>(i)));
  }
  for (const auto& [ev, firstWord] : ordered) {
    comma();
    out << "{\"name\":\"" << escaped[ev->name] << "\",\"cat\":\""
        << escaped[ev->cat] << "\",\"ph\":\""
        << static_cast<char>(ev->phase)
        << "\",\"pid\":" << static_cast<int>(ev->pid)
        << ",\"tid\":" << ev->tid << ",\"ts\":" << renderNumber(ev->tsUs);
    if (ev->phase == EventPhase::Complete) {
      out << ",\"dur\":" << renderNumber(ev->durUs);
    }
    if (ev->phase == EventPhase::Instant) {
      out << ",\"s\":\"t\"";  // thread-scoped instant
    }
    if (ev->phase == EventPhase::Counter) {
      out << ",\"args\":{\"value\":" << renderNumber(ev->durUs) << "}";
    } else if (ev->args != 0) {
      renderArgs(out, *ev, firstWord);
    }
    out << "}";
  }
  out << "\n]}\n";
}

void TraceRecorder::saveJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file) {
    throw std::runtime_error("obs: cannot open trace output " + path);
  }
  writeJson(file);
}

}  // namespace iop::obs
