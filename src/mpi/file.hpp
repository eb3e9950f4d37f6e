// Simulated MPI-IO file handle.
//
// Supports the call surface the paper's traced applications use:
//   * file views (MPI_File_set_view): displacement + etype + a strided
//     filetype (block/stride in etypes) — offsets passed to read/write
//     calls are in etype units relative to the view, like real MPI-IO;
//   * explicit-offset ops: read_at/write_at and their collective _all
//     variants (NAS BT-IO subtype FULL);
//   * individual-file-pointer ops: seek + read/write (MADbench2);
//   * shared or unique (per-process) access types.
//
// Collective ops implement two-phase I/O: ranks rendezvous, data is
// shuffled to cb_nodes aggregator nodes, aggregators merge the pieces into
// contiguous extents and issue large filesystem requests — the mechanism
// that makes BT-IO FULL efficient and that the phase replay with IOR "-c"
// mirrors.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mpi/extent.hpp"
#include "mpi/rank.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/filesystem.hpp"

namespace iop::mpi {

/// Shared state of one logical file (one per open path, shared by all rank
/// handles of that file): the collective-I/O communicator bookkeeping and
/// contribution buffers live here.
class SharedFileState;

/// Handle for a non-blocking operation (MPI_Request).  wait() suspends
/// until the operation completes; destroying an un-waited Request is an
/// error surfaced at engine teardown (the op keeps running detached).
class Request {
 public:
  Request(sim::Engine& engine, std::shared_ptr<sim::Latch> done)
      : engine_(&engine), done_(std::move(done)) {}

  /// MPI_Wait.
  sim::Task<void> wait() {
    auto done = done_;
    co_await done->wait();
  }

  bool test() const noexcept { return done_->pending() == 0; }

 private:
  sim::Engine* engine_;
  std::shared_ptr<sim::Latch> done_;
};

class File {
 public:
  File(Rank& rank, std::shared_ptr<SharedFileState> shared, int fsFileId);

  /// MPI_File_set_view: disp in bytes, etype in bytes, filetype as a
  /// (block, stride) pair in etypes.  block == stride means contiguous.
  /// Local call (no tick bump, matching its zero-communication cost here).
  void setView(std::uint64_t dispBytes, std::uint64_t etypeBytes,
               std::uint64_t filetypeBlock, std::uint64_t filetypeStride);

  /// MPI_File_seek (individual file pointer), offset in etypes.
  void seek(std::uint64_t offsetEtypes) { pointer_ = offsetEtypes; }
  std::uint64_t pointer() const noexcept { return pointer_; }

  // Explicit-offset operations; offset in etypes relative to the view.
  sim::Task<void> writeAt(std::uint64_t offsetEtypes, std::uint64_t bytes);
  sim::Task<void> readAt(std::uint64_t offsetEtypes, std::uint64_t bytes);
  sim::Task<void> writeAtAll(std::uint64_t offsetEtypes, std::uint64_t bytes);
  sim::Task<void> readAtAll(std::uint64_t offsetEtypes, std::uint64_t bytes);

  // Non-blocking explicit-offset operations (MPI_File_iwrite_at /
  // MPI_File_iread_at): the transfer proceeds in the background; overlap
  // it with computation and complete it with Request::wait().
  Request iwriteAt(std::uint64_t offsetEtypes, std::uint64_t bytes);
  Request ireadAt(std::uint64_t offsetEtypes, std::uint64_t bytes);

  // Individual-file-pointer operations (advance the pointer).
  sim::Task<void> write(std::uint64_t bytes);
  sim::Task<void> read(std::uint64_t bytes);
  sim::Task<void> writeAll(std::uint64_t bytes);
  sim::Task<void> readAll(std::uint64_t bytes);

  /// MPI_File_close.  Collective in MPI; here per-rank metadata cost.
  sim::Task<void> close();

  /// Map a view-relative etype range to physical byte extents (visible for
  /// tests; coalesces contiguous tiles).
  std::vector<Extent> mapToExtents(std::uint64_t offsetEtypes,
                                   std::uint64_t bytes) const;

  int fsFileId() const noexcept { return fsFileId_; }
  int logicalFileId() const noexcept;

 private:
  enum class OpKind { Read, Write };

  sim::Task<void> independentOp(OpKind kind, std::uint64_t offsetEtypes,
                                std::uint64_t bytes, MpiOp op);
  Request nonBlockingOp(OpKind kind, std::uint64_t offsetEtypes,
                        std::uint64_t bytes, MpiOp op);
  sim::Task<void> collectiveOp(OpKind kind, std::uint64_t offsetEtypes,
                               std::uint64_t bytes, MpiOp op);
  void emitTrace(OpKind kind, MpiOp op, std::uint64_t offsetEtypes,
                 std::uint64_t bytes, std::uint64_t tick, double entry);
  /// Open the MpiIo edge activity of one call (-1 when unobserved).
  std::int64_t beginActivity(MpiOp op, double entry, std::uint64_t bytes);
  void endActivity(std::int64_t act);
  void updateMeta(bool collective, bool explicitOffset);

  Rank& rank_;
  std::shared_ptr<SharedFileState> shared_;
  int fsFileId_;

  // Current view.
  std::uint64_t viewDisp_ = 0;
  std::uint64_t etype_ = 1;
  std::uint64_t ftBlock_ = 1;
  std::uint64_t ftStride_ = 1;

  std::uint64_t pointer_ = 0;  ///< individual file pointer, etypes
};

}  // namespace iop::mpi
