// Write-back page cache fronting a block device.
//
// Writes are absorbed at memory speed until the dirty limit, then throttle
// to the background flusher's drain rate — this is what lets an NFS server
// accept a burst at network speed while its disks trail behind, the effect
// visible in the paper's Figure 8 (device activity extending beyond the
// application's I/O phases).  Reads hit resident intervals at memory speed
// and go to the device for the gaps.
//
// Lifecycle: the constructor spawns a flusher process; call shutdown() once
// the workload is finished (Topology::shutdown does this) so the flusher
// drains and exits, letting Engine::run() complete.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <utility>

#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/blockdev.hpp"
#include "util/intervals.hpp"

namespace iop::storage {

struct CacheParams {
  bool enabled = true;
  /// Write-through: every write goes to the device synchronously (PVFS2's
  /// trove sync behaviour); reads still hit resident data.
  bool writeThrough = false;
  std::uint64_t sizeBytes = 768ULL << 20;   ///< resident capacity
  double memBandwidth = 2.5e9;              ///< bytes/s copy speed
  double dirtyLimitFraction = 0.4;          ///< of sizeBytes
  std::uint64_t flushChunk = 4ULL << 20;    ///< background write size
};

class PageCache {
 public:
  PageCache(sim::Engine& engine, BlockDevice& device, CacheParams params);

  /// Buffered write: memcpy cost + dirty-throttling; device writes happen
  /// in the background.  `cause` is the obs activity the write serves
  /// (-1 = none); background flusher writes stay causeless.
  sim::Task<void> write(std::uint64_t offset, std::uint64_t size,
                        std::int64_t cause = -1);

  /// Buffered read: resident bytes at memory speed, gaps from the device.
  sim::Task<void> read(std::uint64_t offset, std::uint64_t size,
                       std::int64_t cause = -1);

  /// Block until all dirty data reached the device (fsync semantics).
  sim::Task<void> flushAll();

  /// Tell the flusher to exit once drained.  Idempotent.
  void shutdown();

  /// Drop clean resident data (echo 3 > drop_caches); dirty data is
  /// unaffected.  Used between benchmark passes to defeat reuse.
  void dropClean();

  std::uint64_t dirtyBytes() const noexcept {
    return dirty_.totalBytes() + flushInFlight_;
  }
  std::uint64_t residentBytes() const noexcept {
    return resident_.totalBytes();
  }
  const CacheParams& params() const noexcept { return params_; }

  /// Cumulative accounting for tests/reports.
  std::uint64_t readHitBytes() const noexcept { return readHitBytes_; }
  std::uint64_t readMissBytes() const noexcept { return readMissBytes_; }

  /// True once the backing device exhausted its retries under fault
  /// injection; every subsequent write/read/flush throws IoFault.
  bool failed() const noexcept { return failed_; }

 private:
  sim::Task<void> flusherLoop();
  void evictIfNeeded();
  std::uint64_t dirtyLimit() const noexcept {
    return static_cast<std::uint64_t>(
        params_.dirtyLimitFraction * static_cast<double>(params_.sizeBytes));
  }

  sim::Engine& engine_;
  BlockDevice& device_;
  CacheParams params_;

  util::IntervalSet resident_;
  // FIFO of inserted intervals for eviction.
  std::deque<std::pair<std::uint64_t, std::uint64_t>> fifo_;

  // Dirty byte ranges pending background writes.  An interval set (not a
  // FIFO) so that interleaved small writes from many clients coalesce into
  // the per-region contiguous runs a real page cache flushes; the flusher
  // sweeps offsets in elevator order, which keeps RAID5 rows full.
  util::IntervalSet dirty_;
  std::uint64_t flushCursor_ = 0;
  std::uint64_t flushInFlight_ = 0;

  sim::CondVar dirtyCv_;   // flusher waits for work
  sim::CondVar spaceCv_;   // writers wait for dirty space
  sim::CondVar idleCv_;    // flushAll waits for full drain

  bool shutdown_ = false;

  // Set when the flusher's device write exhausted its retries: the cache
  // is permanently broken, dirty data is lost, and foreground requests
  // surface the stored error instead of touching the dead device.
  bool failed_ = false;
  std::string failedTarget_;
  std::string failedWhat_;

  [[noreturn]] void throwFailed() const;

  std::uint64_t readHitBytes_ = 0;
  std::uint64_t readMissBytes_ = 0;

  void obsNoteRead(std::uint64_t hitBytes, std::uint64_t missBytes);
  void obsSampleDirty();
  std::int64_t obsBegin(std::uint64_t bytes, std::int64_t cause);
  void obsEnd(std::int64_t act);
  /// What the obs hooks record with, resolved once per attached hub.
  struct ObsHandles {
    obs::LabelId label = 0;  ///< edge label "cache <device>"
    obs::NameId dirty = 0;   ///< "dirty bytes" counter series
    int track = -1;          ///< registered at the first dirty sample
    double nextSample = 0;   ///< throttle for the dirty-bytes track
    obs::Counter* hitBytes = nullptr;  ///< created at first use
    obs::Counter* missBytes = nullptr;
    obs::Gauge* hitRatio = nullptr;
  };
  ObsHandles& obsHandles(obs::Hub& hub);
  obs::HubCache<ObsHandles> obs_;
};

}  // namespace iop::storage
