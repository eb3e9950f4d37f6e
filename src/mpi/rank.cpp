#include "mpi/rank.hpp"

#include "mpi/comm.hpp"
#include "mpi/file.hpp"
#include "mpi/runtime.hpp"
#include "obs/hub.hpp"

namespace iop::mpi {

const char* mpiOpName(MpiOp op) noexcept {
  static constexpr const char* kNames[kMpiOpCount] = {
      "MPI_Send",
      "MPI_Recv",
      "MPI_File_open",
      "MPI_File_close",
      "MPI_Barrier",
      "MPI_Bcast",
      "MPI_Allreduce",
      "MPI_File_write_at",
      "MPI_File_read_at",
      "MPI_File_write_at_all",
      "MPI_File_read_at_all",
      "MPI_File_iwrite_at",
      "MPI_File_iread_at",
      "MPI_File_write",
      "MPI_File_read",
      "MPI_File_write_all",
      "MPI_File_read_all",
  };
  return kNames[static_cast<std::size_t>(op)];
}

Rank::Rank(Runtime& runtime, int id, storage::Node& node)
    : runtime_(runtime), id_(id), node_(node) {}

int Rank::np() const noexcept { return runtime_.np(); }

sim::Engine& Rank::engine() noexcept { return runtime_.engine(); }

Comm& Rank::world() noexcept { return runtime_.world(); }

sim::Task<void> Rank::compute(double seconds) {
  co_await engine().delay(seconds);
}

sim::Task<void> Rank::barrier() { return world().barrier(*this); }

sim::Task<void> Rank::bcast(std::uint64_t bytes) {
  return world().bcast(*this, bytes);
}

sim::Task<void> Rank::allreduce(std::uint64_t bytes) {
  return world().allreduce(*this, bytes);
}

sim::Task<void> Rank::send(int destRank, std::uint64_t bytes) {
  noteCommEvent(MpiOp::Send);
  return runtime_.deliverMessage(*this, destRank, bytes);
}

sim::Task<void> Rank::recv(int sourceRank, std::uint64_t bytes) {
  noteCommEvent(MpiOp::Recv);
  return runtime_.awaitMessage(*this, sourceRank, bytes);
}

void Rank::noteCommEvent(MpiOp op, bool obsInstant) {
  const std::uint64_t t = bumpTick();
  if (TraceSink* sink = traceSink()) {
    sink->onCommEvent(id_, t, mpiOpName(op), engine().now());
  }
  if (obsInstant) {
    if (obs::Hub* o = engine().obs(); o != nullptr && o->trace != nullptr) {
      const ObsHandles& h = obsHandles(*o);
      o->trace->instant(obs::TrackKind::Rank, obsTrack(*o),
                        h.opName[static_cast<std::size_t>(op)], h.commCat,
                        engine().now(), obs::TraceArgs().withTick(t));
    }
  }
}

Rank::ObsHandles& Rank::obsHandles(obs::Hub& hub) {
  return obs_.get(engine().obsEpoch(), [&](ObsHandles& h) {
    if (hub.trace != nullptr) {
      h.ioCat = hub.trace->name("mpi.io");
      h.collCat = hub.trace->name("mpi.coll");
      h.commCat = hub.trace->name("mpi.comm");
      for (std::size_t i = 0; i < kMpiOpCount; ++i) {
        h.opName[i] = hub.trace->name(mpiOpName(static_cast<MpiOp>(i)));
      }
    }
    if (hub.edges != nullptr) {
      h.arrive = hub.edges->label("arrive");
      for (std::size_t i = 0; i < kMpiOpCount; ++i) {
        h.opLabel[i] = hub.edges->label(mpiOpName(static_cast<MpiOp>(i)));
      }
    }
  });
}

int Rank::obsTrack(obs::Hub& hub) {
  ObsHandles& h = obsHandles(hub);
  if (h.track < 0) h.track = hub.trace->rankTrack(id_);
  return h.track;
}

TraceSink* Rank::traceSink() noexcept { return runtime_.sink(); }

sim::Task<std::shared_ptr<File>> Rank::open(const std::string& mount,
                                            const std::string& path,
                                            AccessType accessType) {
  noteCommEvent(MpiOp::FileOpen);
  auto state = runtime_.fileState(mount, path, accessType);
  // Unique access ("-F"): each rank gets its own extent namespace.
  const int fsFileId = accessType == AccessType::Shared
                           ? state->logicalId() * 100000
                           : state->logicalId() * 100000 + 1 + id_;
  co_await state->fs().metadataOp(node_);
  co_return std::make_shared<File>(*this, std::move(state), fsFileId);
}

}  // namespace iop::mpi
