// An I/O node: the node's CPU, a page cache, and a block device.
//
// Filesystem models route requests here after the network hop; iozone-style
// device benchmarks drive a server directly (local filesystem level).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/blockdev.hpp"
#include "storage/cache.hpp"
#include "storage/network.hpp"

namespace iop::storage {

struct ServerParams {
  double cpuPerRequest = 40.0e-6;  ///< s of CPU per I/O request
  CacheParams cache;
};

class IoServer {
 public:
  IoServer(sim::Engine& engine, Node& node,
           std::unique_ptr<BlockDevice> device, ServerParams params)
      : engine_(engine),
        node_(node),
        params_(params),
        device_(std::move(device)),
        cache_(engine, *device_, params.cache),
        cpu_(engine, 1) {}

  /// Service a write request landing on this server (post-network).
  /// `cause` is the obs activity the request serves (-1 = none); it is
  /// forwarded down through the cache to the device for dependency edges.
  sim::Task<void> handleWrite(std::uint64_t offset, std::uint64_t size,
                              std::int64_t cause = -1);

  /// Service a read request landing on this server (post-network).
  sim::Task<void> handleRead(std::uint64_t offset, std::uint64_t size,
                             std::int64_t cause = -1);

  /// Cheap metadata operation (open/close/stat).
  sim::Task<void> handleMetadata();

  /// fsync: push all dirty cache contents to the device.
  sim::Task<void> sync() { return cache_.flushAll(); }

  Node& node() noexcept { return node_; }
  BlockDevice& device() noexcept { return *device_; }
  PageCache& cache() noexcept { return cache_; }
  const ServerParams& params() const noexcept { return params_; }

  void shutdown() { cache_.shutdown(); }

 private:
  sim::Engine& engine_;
  Node& node_;
  ServerParams params_;
  std::unique_ptr<BlockDevice> device_;
  PageCache cache_;
  sim::Resource cpu_;
};

}  // namespace iop::storage
