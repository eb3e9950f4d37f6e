#include "storage/server.hpp"

namespace iop::storage {

// The data path spells out its CPU hold (acquire, delay, release) instead
// of awaiting Resource::use, which would cost a coroutine frame per
// request for the same events.

sim::Task<void> IoServer::handleWrite(std::uint64_t offset,
                                      std::uint64_t size, std::int64_t cause,
                                      int job) {
  const bool gated = arbiter_ != nullptr && job >= 0;
  if (gated) co_await arbiter_->admit(job, size, /*isWrite=*/true, cause);
  try {
    co_await cpu_.acquire();
    co_await engine_.delay(params_.cpuPerRequest);
    cpu_.release();
    co_await cache_.write(offset, size, cause);
  } catch (...) {
    if (gated) arbiter_->release(job);
    throw;
  }
  if (gated) arbiter_->release(job);
}

sim::Task<void> IoServer::handleRead(std::uint64_t offset, std::uint64_t size,
                                     std::int64_t cause, int job) {
  const bool gated = arbiter_ != nullptr && job >= 0;
  if (gated) co_await arbiter_->admit(job, size, /*isWrite=*/false, cause);
  try {
    co_await cpu_.acquire();
    co_await engine_.delay(params_.cpuPerRequest);
    cpu_.release();
    co_await cache_.read(offset, size, cause);
  } catch (...) {
    if (gated) arbiter_->release(job);
    throw;
  }
  if (gated) arbiter_->release(job);
}

sim::Task<void> IoServer::handleMetadata() {
  return cpu_.use(params_.cpuPerRequest * 2);
}

}  // namespace iop::storage
