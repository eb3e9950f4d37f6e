#include "storage/filesystem.hpp"

#include <algorithm>

#include "sim/sync.hpp"

namespace iop::storage {

double FileSystem::idealDeviceBandwidth(IoOp op) {
  double sum = 0;
  for (IoServer* s : dataServers()) sum += s->device().idealBandwidth(op);
  return sum;
}

std::uint64_t FileSystem::fileBase(int fileId) {
  auto [it, inserted] = fileBases_.emplace(fileId, nextBase_);
  if (inserted) nextBase_ += kFileWindow;
  return it->second;
}

// ---------------------------------------------------------------------- NFS

sim::Task<void> NfsFS::write(Node& client, int fileId, std::uint64_t offset,
                             std::uint64_t size, std::int64_t cause) {
  const std::uint64_t base = fileBase(fileId);
  std::uint64_t cursor = 0;
  while (cursor < size) {
    const std::uint64_t chunk = std::min(size - cursor, params_.rpcSize);
    co_await engine_.delay(params_.clientPerRpcOverhead);
    co_await transfer(engine_, client, server_.node(), chunk, cause);
    co_await server_.handleWrite(base + offset + cursor, chunk, cause);
    cursor += chunk;
  }
}

sim::Task<void> NfsFS::read(Node& client, int fileId, std::uint64_t offset,
                            std::uint64_t size, std::int64_t cause) {
  const std::uint64_t base = fileBase(fileId);
  std::uint64_t cursor = 0;
  while (cursor < size) {
    const std::uint64_t chunk = std::min(size - cursor, params_.rpcSize);
    co_await engine_.delay(params_.clientPerRpcOverhead);
    // Request RPC to the server, data response back.
    co_await transfer(engine_, client, server_.node(), 256, cause);
    co_await server_.handleRead(base + offset + cursor, chunk, cause);
    co_await transfer(engine_, server_.node(), client, chunk, cause);
    cursor += chunk;
  }
}

sim::Task<void> NfsFS::metadataOp(Node& client, std::int64_t cause) {
  co_await transfer(engine_, client, server_.node(), 256, cause);
  co_await server_.handleMetadata();
  co_await transfer(engine_, server_.node(), client, 256, cause);
}

std::string NfsFS::describe() const {
  return "nfs(server=" + server_.node().name() +
         ", dev=" + server_.device().describe() + ")";
}

// ------------------------------------------------------------------ Striped

StripedFS::StripedFS(sim::Engine& engine, std::vector<IoServer*> dataServers,
                     IoServer* metadataServer, Params params)
    : FileSystem(engine),
      dataServers_(std::move(dataServers)),
      metadataServer_(metadataServer),
      params_(params) {}

int StripedFS::effectiveStripeCount() const noexcept {
  const int n = static_cast<int>(dataServers_.size());
  if (params_.stripeCount <= 0 || params_.stripeCount > n) return n;
  return params_.stripeCount;
}

int StripedFS::firstServer(int fileId) const noexcept {
  return fileId % static_cast<int>(dataServers_.size());
}

sim::Task<void> StripedFS::striped(Node& client, int fileId,
                                   std::uint64_t offset, std::uint64_t size,
                                   IoOp op, std::int64_t cause) {
  const std::uint64_t base = fileBase(fileId);
  const int count = effectiveStripeCount();
  const int first = firstServer(fileId);
  const int total = static_cast<int>(dataServers_.size());

  struct Slice {
    std::uint64_t firstOffset = 0;
    std::uint64_t bytes = 0;
    bool touched = false;
  };
  std::vector<Slice> slices(static_cast<std::size_t>(count));

  std::uint64_t cursor = offset;
  const std::uint64_t end = offset + size;
  while (cursor < end) {
    const std::uint64_t stripe = cursor / params_.stripeUnit;
    const std::uint64_t within = cursor % params_.stripeUnit;
    const std::uint64_t chunk =
        std::min(end - cursor, params_.stripeUnit - within);
    const std::size_t idx =
        static_cast<std::size_t>(stripe % static_cast<std::uint64_t>(count));
    const std::uint64_t serverOffset =
        base + (stripe / static_cast<std::uint64_t>(count)) *
                   params_.stripeUnit +
        within;
    auto& slice = slices[idx];
    if (!slice.touched) {
      slice.firstOffset = serverOffset;
      slice.touched = true;
    }
    slice.bytes += chunk;
    cursor += chunk;
  }

  std::vector<sim::Task<void>> ops;
  for (std::size_t i = 0; i < slices.size(); ++i) {
    if (!slices[i].touched) continue;
    const std::size_t serverIdx = static_cast<std::size_t>(
        (first + static_cast<int>(i)) % total);
    ops.push_back(
        recovery_.policy != nullptr
            ? perServerWithFailover(client, serverIdx,
                                    slices[i].firstOffset, slices[i].bytes,
                                    op, cause)
            : perServer(client, *dataServers_[serverIdx],
                        slices[i].firstOffset, slices[i].bytes, op, cause));
  }
  co_await sim::whenAll(engine_, std::move(ops));
}

sim::Task<void> StripedFS::perServerWithFailover(
    Node& client, std::size_t serverIdx, std::uint64_t offset,
    std::uint64_t size, IoOp op, std::int64_t cause) {
  // Failover models replica redirection cost in *time* only: the slice's
  // server-local offsets are replayed verbatim on the replacement, which
  // keeps sequentiality modelling intact without tracking placement.
  const std::size_t total = dataServers_.size();
  std::size_t tried = 0;
  std::size_t idx = serverIdx;
  for (;;) {
    std::string failedNode;
    try {
      co_await perServer(client, *dataServers_[idx], offset, size, op,
                         cause);
      co_return;
    } catch (const IoFault&) {
      ++tried;
      if (!recovery_.policy->failover || tried >= total) throw;
      failedNode = dataServers_[idx]->node().name();
    }
    idx = (idx + 1) % total;
    if (recovery_.onFailover) {
      recovery_.onFailover(engine_.now(), failedNode,
                           dataServers_[idx]->node().name());
    }
  }
}

sim::Task<void> StripedFS::perServer(Node& client, IoServer& server,
                                     std::uint64_t offset, std::uint64_t size,
                                     IoOp op, std::int64_t cause) {
  std::uint64_t cursor = 0;
  while (cursor < size) {
    const std::uint64_t chunk = std::min(size - cursor, params_.rpcSize);
    co_await engine_.delay(params_.clientPerRpcOverhead);
    if (op == IoOp::Write) {
      co_await transfer(engine_, client, server.node(), chunk, cause);
      co_await server.handleWrite(offset + cursor, chunk, cause);
    } else {
      co_await transfer(engine_, client, server.node(), 256, cause);
      co_await server.handleRead(offset + cursor, chunk, cause);
      co_await transfer(engine_, server.node(), client, chunk, cause);
    }
    cursor += chunk;
  }
}

sim::Task<void> StripedFS::write(Node& client, int fileId,
                                 std::uint64_t offset, std::uint64_t size,
                                 std::int64_t cause) {
  return striped(client, fileId, offset, size, IoOp::Write, cause);
}

sim::Task<void> StripedFS::read(Node& client, int fileId,
                                std::uint64_t offset, std::uint64_t size,
                                std::int64_t cause) {
  return striped(client, fileId, offset, size, IoOp::Read, cause);
}

sim::Task<void> StripedFS::metadataOp(Node& client, std::int64_t cause) {
  IoServer* mds = metadataServer_ ? metadataServer_ : dataServers_.front();
  co_await transfer(engine_, client, mds->node(), 256, cause);
  co_await mds->handleMetadata();
  co_await transfer(engine_, mds->node(), client, 256, cause);
}

std::vector<IoServer*> StripedFS::servers() {
  std::vector<IoServer*> out = dataServers_;
  if (metadataServer_ != nullptr) {
    if (std::find(out.begin(), out.end(), metadataServer_) == out.end()) {
      out.push_back(metadataServer_);
    }
  }
  return out;
}

std::string StripedFS::describe() const {
  return "striped(" + std::to_string(dataServers_.size()) +
         " servers, stripe=" + std::to_string(params_.stripeUnit) +
         ", count=" + std::to_string(effectiveStripeCount()) + ")";
}

}  // namespace iop::storage
