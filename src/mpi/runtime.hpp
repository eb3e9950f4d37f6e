// Simulated MPI runtime: SPMD launch of np rank-coroutines over a storage
// topology, the world communicator, the shared-file registry, and the
// collective-buffering hints.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/extent.hpp"
#include "mpi/rank.hpp"
#include "mpi/tracehook.hpp"
#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/topology.hpp"

namespace iop::mpi {

class File;

/// ROMIO-style hints controlling two-phase collective I/O and data
/// sieving.
struct IoHints {
  bool collectiveBuffering = true;  ///< false = "SIMPLE" subtype behaviour
  int cbNodes = 0;                  ///< aggregator count; 0 = one per node
  std::uint64_t cbBufferSize = 16ULL << 20;
  /// Data sieving for fragmented independent requests: access the
  /// spanning region in one pass instead of one filesystem request per
  /// fragment.  ROMIO defaults: enabled for reads, disabled for writes
  /// (write sieving is a read-modify-write and loses against
  /// write-behind caching unless fragments are tiny and dense).
  bool dataSievingReads = true;
  bool dataSievingWrites = false;
  std::uint64_t sieveBufferSize = 4ULL << 20;
};

/// One contribution to a collective I/O operation.
struct Contribution {
  storage::Node* node = nullptr;
  std::vector<Extent> extents;
  std::uint64_t bytes = 0;
};

/// State shared by all rank handles of one logical file.
class SharedFileState {
 public:
  SharedFileState(int logicalId, std::string path, AccessType accessType,
                  storage::FileSystem& fs, int np)
      : logicalId_(logicalId), path_(std::move(path)),
        accessType_(accessType), fs_(&fs) {
    meta_.fileId = logicalId;
    meta_.path = path_;
    meta_.shared = accessType == AccessType::Shared;
    meta_.np = np;
  }

  int logicalId() const noexcept { return logicalId_; }
  AccessType accessType() const noexcept { return accessType_; }
  storage::FileSystem& fs() noexcept { return *fs_; }
  FileMetaRecord& meta() noexcept { return meta_; }

  /// Accumulator for the in-flight collective op (safe because collectives
  /// on a file cannot overlap).
  std::vector<Contribution>& pending() noexcept { return pending_; }

 private:
  int logicalId_;
  std::string path_;
  AccessType accessType_;
  storage::FileSystem* fs_;
  FileMetaRecord meta_;
  std::vector<Contribution> pending_;
};

struct RuntimeOptions {
  int np = 1;
  /// Topology node indices usable as compute nodes; ranks are placed
  /// round-robin.  Must not be empty.
  std::vector<std::size_t> computeNodes;
  IoHints hints;
  TraceSink* sink = nullptr;
  /// Invoked (synchronously, inside the simulation) when the last rank
  /// finishes — e.g. to stop a DeviceMonitor so the engine can drain.
  std::function<void()> onAppComplete;
  /// Shut the topology down (stop cache flushers) when the app finishes.
  /// Disable when several Runtimes share one topology; the caller then
  /// shuts down after the last one completes (see Runtime::completed()).
  bool shutdownTopologyOnCompletion = true;
};

class Runtime {
 public:
  Runtime(storage::Topology& topology, RuntimeOptions options);
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;
  ~Runtime();

  using RankMain = std::function<sim::Task<void>(Rank&)>;

  /// Spawn all ranks plus a supervisor that records the makespan and shuts
  /// the topology down when the last rank finishes.
  void launch(RankMain main);

  /// launch + engine.run(); returns the application makespan in seconds
  /// (cache drain excluded).
  double runToCompletion(RankMain main);

  int np() const noexcept { return options_.np; }
  sim::Engine& engine() noexcept { return topology_.engine(); }
  storage::Topology& topology() noexcept { return topology_; }
  Comm& world() noexcept { return *world_; }
  TraceSink* sink() noexcept { return options_.sink; }
  const IoHints& hints() const noexcept { return options_.hints; }
  Rank& rank(int id) { return *ranks_.at(static_cast<std::size_t>(id)); }

  /// Application makespan (valid after the run completes).
  double appElapsed() const noexcept { return appElapsed_; }

  /// Set when the last rank finishes (for coordinating multiple Runtimes
  /// on one topology).
  sim::Event& completed() noexcept { return *completed_; }

  /// Create a sub-communicator (e.g. a MADbench2 gang).
  Comm& createComm(std::vector<int> rankIds);

  /// Open (or attach to) a logical file; called via Rank::open.
  std::shared_ptr<SharedFileState> fileState(const std::string& mount,
                                             const std::string& path,
                                             AccessType accessType);

  /// internal: supervisor hooks.
  void notifyAppComplete();
  bool shutdownOnCompletion() const noexcept;

  /// internal: point-to-point plumbing (see Rank::send / Rank::recv).
  sim::Task<void> deliverMessage(Rank& sender, int destRank,
                                 std::uint64_t bytes);
  sim::Task<void> awaitMessage(Rank& receiver, int sourceRank,
                               std::uint64_t bytes);

 private:
  storage::Topology& topology_;
  RuntimeOptions options_;
  std::unique_ptr<Comm> world_;
  std::unique_ptr<sim::Event> completed_;
  std::vector<std::unique_ptr<Rank>> ranks_;
  std::deque<Comm> extraComms_;
  std::map<std::string, std::shared_ptr<SharedFileState>> files_;
  struct PendingSend;
  using MessageChannel = sim::Channel<std::shared_ptr<PendingSend>>;
  std::map<std::pair<int, int>, std::unique_ptr<MessageChannel>>
      msgChannels_;
  MessageChannel& msgChannel(int src, int dst);
  int nextLogicalId_ = 1;
  double appElapsed_ = -1;
  RankMain mainFn_;  ///< kept alive for the duration of the run
};

}  // namespace iop::mpi
