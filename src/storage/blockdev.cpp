#include "storage/blockdev.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/sync.hpp"

namespace iop::storage {

namespace {

/// Aggregated per-member slice of a striped request.
struct MemberSlice {
  std::uint64_t firstOffset = 0;  ///< member-local offset of first chunk
  std::uint64_t bytes = 0;
  bool touched = false;
};

}  // namespace

// ---------------------------------------------------------------- SingleDisk

sim::Task<void> SingleDisk::access(std::uint64_t offset, std::uint64_t size,
                                   IoOp op, std::int64_t cause) {
  return disk_.access(offset, size, op, cause);
}

void SingleDisk::collectDisks(std::vector<Disk*>& out) {
  out.push_back(&disk_);
}

double SingleDisk::idealBandwidth(IoOp op) const noexcept {
  return op == IoOp::Read ? disk_.params().seqReadBw
                          : disk_.params().seqWriteBw;
}

std::string SingleDisk::describe() const {
  return "disk(" + disk_.params().name + ")";
}

// --------------------------------------------------------------------- Raid0

Raid0::Raid0(sim::Engine& engine, std::vector<DiskParams> members,
             std::uint64_t stripeUnit)
    : engine_(engine), stripeUnit_(stripeUnit) {
  if (members.size() < 2) {
    throw std::invalid_argument("Raid0 needs at least 2 members");
  }
  if (stripeUnit_ == 0) throw std::invalid_argument("stripe unit must be > 0");
  for (auto& p : members) {
    disks_.push_back(std::make_unique<Disk>(engine, std::move(p)));
  }
}

sim::Task<void> Raid0::access(std::uint64_t offset, std::uint64_t size,
                              IoOp op, std::int64_t cause) {
  const std::size_t n = disks_.size();
  std::vector<MemberSlice> slices(n);
  std::uint64_t cursor = offset;
  const std::uint64_t end = offset + size;
  while (cursor < end) {
    const std::uint64_t stripe = cursor / stripeUnit_;
    const std::uint64_t within = cursor % stripeUnit_;
    const std::uint64_t chunk =
        std::min(end - cursor, stripeUnit_ - within);
    const std::size_t member = static_cast<std::size_t>(stripe % n);
    const std::uint64_t memberOffset =
        (stripe / n) * stripeUnit_ + within;
    auto& slice = slices[member];
    if (!slice.touched) {
      slice.firstOffset = memberOffset;
      slice.touched = true;
    }
    slice.bytes += chunk;
    cursor += chunk;
  }
  std::vector<sim::Task<void>> ops;
  for (std::size_t m = 0; m < n; ++m) {
    if (slices[m].touched) {
      ops.push_back(disks_[m]->access(slices[m].firstOffset,
                                      slices[m].bytes, op, cause));
    }
  }
  co_await sim::whenAll(engine_, std::move(ops));
}

void Raid0::collectDisks(std::vector<Disk*>& out) {
  for (auto& d : disks_) out.push_back(d.get());
}

double Raid0::idealBandwidth(IoOp op) const noexcept {
  double sum = 0;
  for (const auto& d : disks_) {
    sum += op == IoOp::Read ? d->params().seqReadBw : d->params().seqWriteBw;
  }
  return sum;
}

std::string Raid0::describe() const {
  return "raid0(" + std::to_string(disks_.size()) +
         " disks, stripe=" + std::to_string(stripeUnit_) + ")";
}

// --------------------------------------------------------------------- Raid5

Raid5::Raid5(sim::Engine& engine, std::vector<DiskParams> members,
             std::uint64_t stripeUnit)
    : engine_(engine), stripeUnit_(stripeUnit) {
  if (members.size() < 3) {
    throw std::invalid_argument("Raid5 needs at least 3 members");
  }
  if (stripeUnit_ == 0) throw std::invalid_argument("stripe unit must be > 0");
  for (auto& p : members) {
    disks_.push_back(std::make_unique<Disk>(engine, std::move(p)));
  }
}

sim::Task<void> Raid5::access(std::uint64_t offset, std::uint64_t size,
                              IoOp op, std::int64_t cause) {
  const std::size_t n = disks_.size();
  const std::uint64_t rowWidth = stripeWidth();

  if (op == IoOp::Read) {
    // Parity rotates, so all members hold data; aggregate per member like
    // RAID0 but with the parity disk skipped in each row.
    std::vector<MemberSlice> slices(n);
    std::uint64_t cursor = offset;
    const std::uint64_t end = offset + size;
    while (cursor < end) {
      const std::uint64_t chunkIdx = cursor / stripeUnit_;
      const std::uint64_t within = cursor % stripeUnit_;
      const std::uint64_t chunk =
          std::min(end - cursor, stripeUnit_ - within);
      const std::uint64_t row = chunkIdx / (n - 1);
      const std::size_t parityDisk = static_cast<std::size_t>(row % n);
      std::size_t member =
          static_cast<std::size_t>(chunkIdx % (n - 1));
      if (member >= parityDisk) ++member;  // skip parity slot in this row
      const std::uint64_t memberOffset = row * stripeUnit_ + within;
      auto& slice = slices[member];
      if (!slice.touched) {
        slice.firstOffset = memberOffset;
        slice.touched = true;
      }
      slice.bytes += chunk;
      cursor += chunk;
    }
    std::vector<sim::Task<void>> ops;
    for (std::size_t m = 0; m < n; ++m) {
      if (slices[m].touched) {
        ops.push_back(disks_[m]->access(slices[m].firstOffset,
                                        slices[m].bytes, IoOp::Read,
                                        cause));
      }
    }
    co_await sim::whenAll(engine_, std::move(ops));
    co_return;
  }

  // Write: split into head partial row, full rows, tail partial row.
  const std::uint64_t end = offset + size;
  std::vector<sim::Task<void>> ops;

  std::uint64_t cursor = offset;
  // Head partial row.
  if (cursor % rowWidth != 0) {
    const std::uint64_t rowEnd =
        (cursor / rowWidth + 1) * rowWidth;
    const std::uint64_t partEnd = std::min(end, rowEnd);
    ops.push_back(writePartial(cursor, partEnd - cursor, cause));
    cursor = partEnd;
  }
  // Full rows.
  if (cursor < end) {
    const std::uint64_t fullRows = (end - cursor) / rowWidth;
    if (fullRows > 0) {
      const std::uint64_t firstRow = cursor / rowWidth;
      // Every member (data + parity) writes fullRows * stripeUnit bytes,
      // contiguous on the member.
      for (std::size_t m = 0; m < n; ++m) {
        ops.push_back(disks_[m]->access(firstRow * stripeUnit_,
                                        fullRows * stripeUnit_, IoOp::Write,
                                        cause));
      }
      cursor += fullRows * rowWidth;
    }
  }
  // Tail partial row.
  if (cursor < end) {
    ops.push_back(writePartial(cursor, end - cursor, cause));
  }
  co_await sim::whenAll(engine_, std::move(ops));
}

sim::Task<void> Raid5::writePartial(std::uint64_t offset,
                                    std::uint64_t size, std::int64_t cause) {
  // Read-modify-write within a single row: each touched data chunk pays a
  // read + write on its member; the row's parity member pays a
  // stripe-unit read + write.
  const std::size_t n = disks_.size();
  const std::uint64_t row = offset / stripeWidth();
  const std::size_t parityDisk = static_cast<std::size_t>(row % n);

  auto rmw = [](Disk& disk, std::uint64_t off, std::uint64_t bytes,
                std::int64_t cause) -> sim::Task<void> {
    co_await disk.access(off, bytes, IoOp::Read, cause);
    co_await disk.access(off, bytes, IoOp::Write, cause);
  };

  std::vector<sim::Task<void>> ops;
  std::uint64_t cursor = offset;
  const std::uint64_t end = offset + size;
  while (cursor < end) {
    const std::uint64_t chunkIdx = cursor / stripeUnit_;
    const std::uint64_t within = cursor % stripeUnit_;
    const std::uint64_t chunk = std::min(end - cursor, stripeUnit_ - within);
    std::size_t member = static_cast<std::size_t>(chunkIdx % (n - 1));
    if (member >= parityDisk) ++member;
    const std::uint64_t memberOffset = row * stripeUnit_ + within;
    ops.push_back(rmw(*disks_[member], memberOffset, chunk, cause));
    cursor += chunk;
  }
  ops.push_back(
      rmw(*disks_[parityDisk], row * stripeUnit_, stripeUnit_, cause));
  co_await sim::whenAll(engine_, std::move(ops));
}

void Raid5::collectDisks(std::vector<Disk*>& out) {
  for (auto& d : disks_) out.push_back(d.get());
}

double Raid5::idealBandwidth(IoOp op) const noexcept {
  double sum = 0;
  for (const auto& d : disks_) {
    sum += op == IoOp::Read ? d->params().seqReadBw : d->params().seqWriteBw;
  }
  if (op == IoOp::Write) {
    // Parity bytes don't carry payload.
    sum *= static_cast<double>(disks_.size() - 1) / disks_.size();
  }
  return sum;
}

std::string Raid5::describe() const {
  return "raid5(" + std::to_string(disks_.size()) +
         " disks, stripe=" + std::to_string(stripeUnit_) + ")";
}

// -------------------------------------------------------------------- Concat

Concat::Concat(sim::Engine& engine, std::vector<DiskParams> members,
               std::uint64_t memberSpan)
    : engine_(engine), memberSpan_(memberSpan) {
  if (members.empty()) throw std::invalid_argument("Concat needs members");
  if (memberSpan_ == 0) throw std::invalid_argument("member span must be > 0");
  for (auto& p : members) {
    disks_.push_back(std::make_unique<Disk>(engine, std::move(p)));
  }
}

sim::Task<void> Concat::access(std::uint64_t offset, std::uint64_t size,
                               IoOp op, std::int64_t cause) {
  std::vector<sim::Task<void>> ops;
  std::uint64_t cursor = offset;
  const std::uint64_t end = offset + size;
  while (cursor < end) {
    std::size_t member = static_cast<std::size_t>(cursor / memberSpan_);
    if (member >= disks_.size()) member %= disks_.size();  // wrap (sparse)
    const std::uint64_t memberOffset = cursor % memberSpan_;
    const std::uint64_t chunk =
        std::min(end - cursor, memberSpan_ - memberOffset);
    ops.push_back(disks_[member]->access(memberOffset, chunk, op, cause));
    cursor += chunk;
  }
  co_await sim::whenAll(engine_, std::move(ops));
}

void Concat::collectDisks(std::vector<Disk*>& out) {
  for (auto& d : disks_) out.push_back(d.get());
}

double Concat::idealBandwidth(IoOp op) const noexcept {
  // A single stream engages one member at a time.
  double best = 0;
  for (const auto& d : disks_) {
    best = std::max(best, op == IoOp::Read ? d->params().seqReadBw
                                           : d->params().seqWriteBw);
  }
  return best;
}

std::string Concat::describe() const {
  return "jbod(" + std::to_string(disks_.size()) + " disks)";
}

}  // namespace iop::storage
