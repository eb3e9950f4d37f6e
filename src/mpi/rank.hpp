// A simulated MPI process.
//
// Ranks are coroutines scheduled by the discrete-event engine.  Each rank
// carries the paper's logical clock: `tick` increments on every MPI event
// (communication or I/O), independent of simulated wall time — exactly the
// ordering token PAS2P uses and the phase analysis depends on.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "obs/hub.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "storage/network.hpp"

namespace iop::mpi {

class Comm;
class File;
class Runtime;
class TraceSink;

enum class AccessType { Shared, Unique };

/// The MPI calls the rank records.  Each one's trace name and edge label
/// are resolved once per hub, in Rank::ObsHandles.
enum class MpiOp : std::uint8_t {
  Send,
  Recv,
  FileOpen,
  FileClose,
  Barrier,
  Bcast,
  Allreduce,
  FileWriteAt,
  FileReadAt,
  FileWriteAtAll,
  FileReadAtAll,
  FileIwriteAt,
  FileIreadAt,
  FileWrite,
  FileRead,
  FileWriteAll,
  FileReadAll,
};
inline constexpr std::size_t kMpiOpCount =
    static_cast<std::size_t>(MpiOp::FileReadAll) + 1;

/// The MPI function name of `op` ("MPI_File_write_at", ...).
const char* mpiOpName(MpiOp op) noexcept;

class Rank {
 public:
  Rank(Runtime& runtime, int id, storage::Node& node);
  Rank(const Rank&) = delete;
  Rank& operator=(const Rank&) = delete;

  int id() const noexcept { return id_; }
  int np() const noexcept;
  sim::Engine& engine() noexcept;
  storage::Node& node() noexcept { return node_; }
  Runtime& runtime() noexcept { return runtime_; }
  Comm& world() noexcept;

  std::uint64_t tick() const noexcept { return tick_; }

  /// Busy-work / computation: advances simulated time, NOT the tick
  /// (the paper's MADbench2 "busy-work" is invisible to the MPI trace).
  sim::Task<void> compute(double seconds);

  /// Convenience collectives on the world communicator.
  sim::Task<void> barrier();
  sim::Task<void> bcast(std::uint64_t bytes);
  sim::Task<void> allreduce(std::uint64_t bytes);

  /// Point-to-point: blocking send/recv of `bytes` (matched by source, in
  /// order — MPI's non-overtaking guarantee for a single "tag" stream).
  /// The payload moves over the node NICs like any other transfer.
  sim::Task<void> send(int destRank, std::uint64_t bytes);
  sim::Task<void> recv(int sourceRank, std::uint64_t bytes);

  /// Open a file.  Shared: one file for all ranks (every rank must call).
  /// Unique: one file per rank ("-F" in IOR terms).
  /// Bumps the tick and charges the filesystem metadata cost.
  sim::Task<std::shared_ptr<File>> open(const std::string& mount,
                                        const std::string& path,
                                        AccessType accessType);

  /// --- internal hooks (used by Comm/File) ---
  std::uint64_t bumpTick() noexcept { return ++tick_; }
  /// Record a non-I/O MPI event.  `obsInstant` is false when the caller
  /// emits its own richer span for the event (collectives in Comm).
  void noteCommEvent(MpiOp op, bool obsInstant = true);
  TraceSink* traceSink() noexcept;

  /// What the MPI seams record for this rank, resolved once per attached
  /// hub.  Tracks and instruments are created at their first use.
  struct ObsHandles {
    int track = -1;
    obs::NameId ioCat = 0;    ///< "mpi.io"
    obs::NameId collCat = 0;  ///< "mpi.coll"
    obs::NameId commCat = 0;  ///< "mpi.comm"
    obs::LabelId arrive = 0;  ///< rendezvous arrival edge label
    std::array<obs::NameId, kMpiOpCount> opName{};    ///< by MpiOp
    std::array<obs::LabelId, kMpiOpCount> opLabel{};  ///< by MpiOp
    obs::Counter* bytesWritten = nullptr;
    obs::Counter* bytesRead = nullptr;
    obs::Counter* collectives = nullptr;
    obs::Histogram* opSeconds = nullptr;
    obs::Histogram* collectiveWait = nullptr;
  };
  ObsHandles& obsHandles(obs::Hub& hub);
  /// This rank's Chrome-trace track under `hub` (needs hub.trace).
  int obsTrack(obs::Hub& hub);

 private:
  Runtime& runtime_;
  int id_;
  storage::Node& node_;
  std::uint64_t tick_ = 0;
  obs::HubCache<ObsHandles> obs_;
};

}  // namespace iop::mpi
