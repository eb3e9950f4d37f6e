#include "storage/cache.hpp"

#include <algorithm>

#include "obs/hub.hpp"

namespace iop::storage {

PageCache::PageCache(sim::Engine& engine, BlockDevice& device,
                     CacheParams params)
    : engine_(engine),
      device_(device),
      params_(params),
      dirtyCv_(engine),
      spaceCv_(engine),
      idleCv_(engine) {
  if (params_.enabled && !params_.writeThrough) {
    engine_.spawn(flusherLoop());
  }
}

sim::Task<void> PageCache::flusherLoop() {
  for (;;) {
    while (dirty_.empty() && !shutdown_) {
      co_await dirtyCv_.wait();
    }
    if (dirty_.empty() && shutdown_) break;

    // Elevator sweep: continue from the last flushed offset so contiguous
    // regions drain as large sequential device writes.
    const auto pick = dirty_.firstIntervalAtOrAfter(flushCursor_);
    const std::uint64_t offset = pick->first;
    const std::uint64_t take =
        std::min(pick->second - pick->first, params_.flushChunk);
    dirty_.erase(offset, offset + take);
    flushCursor_ = offset + take;

    flushInFlight_ = take;
    bool faulted = false;
    try {
      co_await device_.access(offset, take, IoOp::Write);
    } catch (const IoFault& e) {
      // The device-level retry loop is already exhausted: the device is
      // gone for good.  Drop the dirty data (it is unrecoverable), mark
      // the cache failed, and wake everyone so blocked writers and
      // flushAll() waiters observe the error instead of hanging forever.
      faulted = true;
      failed_ = true;
      failedTarget_ = e.target();
      failedWhat_ = std::string(e.what()) + " (write-back flush lost " +
                    std::to_string(dirtyBytes()) + " dirty bytes)";
    }
    flushInFlight_ = 0;
    if (faulted) {
      dirty_.clear();
      obsSampleDirty();
      spaceCv_.notifyAll();
      idleCv_.notifyAll();
      break;
    }
    obsSampleDirty();
    spaceCv_.notifyAll();
    if (dirtyBytes() == 0) idleCv_.notifyAll();
  }
}

void PageCache::throwFailed() const {
  throw IoFault(failedTarget_, failedWhat_);
}

PageCache::ObsHandles& PageCache::obsHandles(obs::Hub& hub) {
  return obs_.get(engine_.obsEpoch(), [&](ObsHandles& h) {
    if (hub.edges != nullptr) {
      h.label = hub.edges->label("cache " + device_.describe());
    }
    if (hub.trace != nullptr) h.dirty = hub.trace->name("dirty bytes");
  });
}

/// Throttled "dirty bytes" counter track: shows the write-back backlog that
/// makes device activity outlast the application's I/O phases (Fig. 8).
void PageCache::obsSampleDirty() {
  obs::Hub* o = engine_.obs();
  if (o == nullptr || o->trace == nullptr) return;
  ObsHandles& h = obsHandles(*o);
  if (engine_.now() < h.nextSample && dirtyBytes() != 0) return;
  if (h.track < 0) {
    h.track = o->trace->track(obs::TrackKind::Device,
                              "cache " + device_.describe());
  }
  o->trace->counterSample(obs::TrackKind::Device, h.track, h.dirty,
                          engine_.now(), static_cast<double>(dirtyBytes()));
  h.nextSample = engine_.now() + 0.1;
}

/// Open a Cache activity covering the caller-visible portion of a request
/// (memcpy, dirty throttling, synchronous device waits).  Background flusher
/// work is deliberately outside: it has no single requester.
std::int64_t PageCache::obsBegin(std::uint64_t bytes, std::int64_t cause) {
  obs::Hub* o = engine_.obs();
  if (o == nullptr || o->edges == nullptr) return -1;
  return o->edges->begin(obs::ActKind::Cache, -1, obsHandles(*o).label,
                         engine_.now(), bytes, cause);
}

void PageCache::obsEnd(std::int64_t act) {
  if (act < 0) return;
  if (obs::Hub* o = engine_.obs(); o != nullptr && o->edges != nullptr) {
    o->edges->end(act, engine_.now());
  }
}

void PageCache::obsNoteRead(std::uint64_t hitBytes, std::uint64_t missBytes) {
  obs::Hub* o = engine_.obs();
  if (o == nullptr || o->metrics == nullptr) return;
  ObsHandles& h = obsHandles(*o);
  if (h.hitBytes == nullptr) {
    h.hitBytes = &o->metrics->counter("cache.read_hit_bytes");
    h.missBytes = &o->metrics->counter("cache.read_miss_bytes");
  }
  h.hitBytes->add(static_cast<double>(hitBytes));
  h.missBytes->add(static_cast<double>(missBytes));
  const double hits = h.hitBytes->value();
  const double misses = h.missBytes->value();
  if (hits + misses > 0) {
    if (h.hitRatio == nullptr) {
      h.hitRatio = &o->metrics->gauge("cache.read_hit_ratio");
    }
    h.hitRatio->set(hits / (hits + misses));
  }
}

void PageCache::evictIfNeeded() {
  while (resident_.totalBytes() > params_.sizeBytes && !fifo_.empty()) {
    auto [b, e] = fifo_.front();
    fifo_.pop_front();
    resident_.erase(b, e);
  }
}

sim::Task<void> PageCache::write(std::uint64_t offset, std::uint64_t size,
                                 std::int64_t cause) {
  const std::int64_t act = obsBegin(size, cause);
  const std::int64_t down = act >= 0 ? act : cause;
  if (failed_) {
    obsEnd(act);
    throwFailed();
  }
  if (!params_.enabled) {
    try {
      co_await device_.access(offset, size, IoOp::Write, down);
    } catch (...) {
      obsEnd(act);
      throw;
    }
    obsEnd(act);
    co_return;
  }
  co_await engine_.delay(static_cast<double>(size) / params_.memBandwidth);
  if (params_.writeThrough) {
    try {
      co_await device_.access(offset, size, IoOp::Write, down);
    } catch (...) {
      obsEnd(act);
      throw;
    }
    resident_.insert(offset, offset + size);
    fifo_.emplace_back(offset, offset + size);
    evictIfNeeded();
    obsEnd(act);
    co_return;
  }
  while (dirtyBytes() + size > dirtyLimit()) {
    co_await spaceCv_.wait();
    if (failed_) {
      obsEnd(act);
      throwFailed();
    }
  }
  dirty_.insert(offset, offset + size);
  resident_.insert(offset, offset + size);
  fifo_.emplace_back(offset, offset + size);
  evictIfNeeded();
  obsSampleDirty();
  dirtyCv_.notifyAll();
  obsEnd(act);
}

sim::Task<void> PageCache::read(std::uint64_t offset, std::uint64_t size,
                                std::int64_t cause) {
  const std::int64_t act = obsBegin(size, cause);
  const std::int64_t down = act >= 0 ? act : cause;
  if (failed_) {
    obsEnd(act);
    throwFailed();
  }
  if (!params_.enabled) {
    try {
      co_await device_.access(offset, size, IoOp::Read, down);
    } catch (...) {
      obsEnd(act);
      throw;
    }
    obsEnd(act);
    co_return;
  }
  const std::uint64_t end = offset + size;
  auto gaps = resident_.gaps(offset, end);
  std::uint64_t missBytes = 0;
  for (const auto& [b, e] : gaps) missBytes += e - b;
  readHitBytes_ += size - missBytes;
  readMissBytes_ += missBytes;
  obsNoteRead(size - missBytes, missBytes);

  if (!gaps.empty()) {
    // If the request is mostly uncached, fetch it as one spanning device
    // read (read coalescing); otherwise fetch each gap.
    try {
      if (missBytes * 4 >= size * 3) {
        const std::uint64_t b = gaps.front().first;
        const std::uint64_t e = gaps.back().second;
        co_await device_.access(b, e - b, IoOp::Read, down);
      } else {
        std::vector<sim::Task<void>> fetches;
        for (const auto& [b, e] : gaps) {
          fetches.push_back(device_.access(b, e - b, IoOp::Read, down));
        }
        co_await sim::whenAll(engine_, std::move(fetches));
      }
    } catch (...) {
      obsEnd(act);
      throw;
    }
    for (const auto& [b, e] : gaps) {
      resident_.insert(b, e);
      fifo_.emplace_back(b, e);
    }
    evictIfNeeded();
  }
  // Copy-out of the full request at memory speed.
  co_await engine_.delay(static_cast<double>(size) / params_.memBandwidth);
  obsEnd(act);
}

sim::Task<void> PageCache::flushAll() {
  if (!params_.enabled) co_return;
  if (failed_) throwFailed();
  dirtyCv_.notifyAll();
  while (dirtyBytes() > 0) {
    co_await idleCv_.wait();
    if (failed_) throwFailed();  // fsync reports the lost write-back (EIO)
  }
}

void PageCache::dropClean() {
  resident_.clear();
  fifo_.clear();
}

void PageCache::shutdown() {
  shutdown_ = true;
  dirtyCv_.notifyAll();
}

}  // namespace iop::storage
