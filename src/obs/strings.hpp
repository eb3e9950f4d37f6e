// Interned strings for the obs recorders.
//
// Recording must be an append of plain data, so the recorders never store
// a std::string per event.  Each recorder owns one StringTable; a name is
// resolved to a dense id once (by the instrumented component, when it
// first meets a hub) and events carry the id.  Output code turns ids back
// into text when a file is written.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace iop::obs {

/// Dense id of an interned string: 0, 1, 2, ... in first-intern order.
using StrId = std::uint32_t;

class StringTable {
 public:
  StringTable() = default;
  // The map's keys view into strings_; a copy would dangle.
  StringTable(const StringTable&) = delete;
  StringTable& operator=(const StringTable&) = delete;
  // A moved deque keeps its elements where they are, so the views hold.
  StringTable(StringTable&&) = default;
  StringTable& operator=(StringTable&&) = default;

  /// Id of `text`, adding it on first sight.
  StrId intern(std::string_view text) {
    const auto it = ids_.find(text);
    if (it != ids_.end()) return it->second;
    const auto id = static_cast<StrId>(strings_.size());
    const std::string& stored = strings_.emplace_back(text);
    ids_.emplace(std::string_view(stored), id);
    return id;
  }

  const std::string& str(StrId id) const { return strings_.at(id); }
  std::size_t size() const noexcept { return strings_.size(); }

 private:
  std::deque<std::string> strings_;  ///< deque: stable element addresses
  std::unordered_map<std::string_view, StrId> ids_;
};

}  // namespace iop::obs
