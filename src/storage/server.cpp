#include "storage/server.hpp"

namespace iop::storage {

// The data path spells out its CPU hold (acquire, delay, release) instead
// of awaiting Resource::use, which would cost a coroutine frame per
// request for the same events.

sim::Task<void> IoServer::handleWrite(std::uint64_t offset,
                                      std::uint64_t size, std::int64_t cause) {
  co_await cpu_.acquire();
  co_await engine_.delay(params_.cpuPerRequest);
  cpu_.release();
  co_await cache_.write(offset, size, cause);
}

sim::Task<void> IoServer::handleRead(std::uint64_t offset, std::uint64_t size,
                                     std::int64_t cause) {
  co_await cpu_.acquire();
  co_await engine_.delay(params_.cpuPerRequest);
  cpu_.release();
  co_await cache_.read(offset, size, cause);
}

sim::Task<void> IoServer::handleMetadata() {
  return cpu_.use(params_.cpuPerRequest * 2);
}

}  // namespace iop::storage
