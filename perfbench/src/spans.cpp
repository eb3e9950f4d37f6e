#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <utility>

namespace perfbench {

SpanLog::SpanLog(std::size_t maxDepth)
    : maxDepth_(maxDepth), epoch_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void SpanLog::setProbe(std::function<void()> probe, const char* name,
                       std::size_t depth) {
  probe_ = std::move(probe);
  probeName_ = name;
  probeDepth_ = depth;
}

void SpanLog::maybeProbe() {
  if (stack_.size() == probeDepth_) probeNow();
}

void SpanLog::probeNow() {
  if (!probe_) return;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{probeName_, stack_.empty() ? -1 : stack_.back(),
                        now(), 0});
  probe_();
  spans_[static_cast<std::size_t>(id)].end = now();
}

int SpanLog::open(const char* name) {
  if (stack_.size() >= maxDepth_) return -1;
  maybeProbe();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, stack_.empty() ? -1 : stack_.back(), now(), 0});
  stack_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (id < 0) return;
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("SpanLog::close: span is not the innermost one");
  }
  stack_.pop_back();
  spans_[static_cast<std::size_t>(id)].end = now();
  maybeProbe();
}

std::vector<double> selfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = lo;  // end of the covered prefix so far
    for (auto [b, e] : kids) {
      b = std::max(b, reach);
      e = std::min(e, hi);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::string layerOf(const std::string& spanName) {
  return spanName.substr(0, spanName.find('.'));
}

std::map<std::string, double> selfSecondsByLayer(
    const std::vector<Span>& spans) {
  const auto self = selfSeconds(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[layerOf(spans[i].name)] += self[i];
  }
  return out;
}

std::map<std::string, double> totalSecondsByName(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += s.end - s.start;
  return out;
}

std::string spansJson(const std::vector<Span>& spans) {
  const auto self = selfSeconds(spans);
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "%s\n {\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                  "\"start\":%.9f,\"end\":%.9f,\"self\":%.9f}",
                  i == 0 ? "" : ",", i, spans[i].name.c_str(),
                  spans[i].parent, spans[i].start, spans[i].end, self[i]);
    out += buf;
  }
  out += "\n]";
  return out;
}

}  // namespace perfbench
