#include "mpi/file.hpp"

#include <algorithm>
#include <stdexcept>

#include "mpi/comm.hpp"
#include "mpi/runtime.hpp"
#include "obs/hub.hpp"
#include "sim/sync.hpp"

namespace iop::mpi {

namespace {

/// Move contribution payloads between ranks and aggregators (phase one of
/// two-phase I/O).  Contribution i is owned by aggregator i % aggs.size().
sim::Task<void> shuffleTransfers(sim::Engine& eng,
                                 const std::vector<Contribution>& contribs,
                                 const std::vector<storage::Node*>& aggs,
                                 bool toAggregators, std::int64_t cause) {
  std::vector<sim::Task<void>> xfers;
  for (std::size_t i = 0; i < contribs.size(); ++i) {
    const auto& c = contribs[i];
    storage::Node* agg = aggs[i % aggs.size()];
    if (c.node == agg || c.bytes == 0) continue;
    if (toAggregators) {
      xfers.push_back(storage::transfer(eng, *c.node, *agg, c.bytes, cause));
    } else {
      xfers.push_back(storage::transfer(eng, *agg, *c.node, c.bytes, cause));
    }
  }
  co_await sim::whenAll(eng, std::move(xfers));
}

/// Issue a list of extents sequentially from one node (one aggregator's
/// share of phase two, or one rank's independent request list).
sim::Task<void> runExtentsFromNode(storage::FileSystem& fs,
                                   storage::Node& node,
                                   std::vector<Extent> extents,
                                   bool isWrite, std::int64_t cause) {
  for (const auto& e : extents) {
    if (isWrite) {
      co_await fs.write(node, e.fsFileId, e.offset, e.bytes, cause);
    } else {
      co_await fs.read(node, e.fsFileId, e.offset, e.bytes, cause);
    }
  }
}

/// The aggregation body executed by the last-arriving rank of a collective
/// I/O call: merge all contributions into contiguous extents, shuffle data
/// to the aggregator nodes, and issue large filesystem requests.
sim::Task<void> runTwoPhase(sim::Engine& eng, storage::FileSystem& fs,
                            const IoHints& hints,
                            std::vector<Contribution> contribs,
                            bool isWrite, std::int64_t cause) {
  if (!hints.collectiveBuffering) {
    // "SIMPLE" behaviour: everyone writes their own pieces, concurrently.
    std::vector<sim::Task<void>> ops;
    for (auto& c : contribs) {
      ops.push_back(
          runExtentsFromNode(fs, *c.node, c.extents, isWrite, cause));
    }
    co_await sim::whenAll(eng, std::move(ops));
    co_return;
  }

  // Merge every contribution's extents into maximal contiguous runs.
  std::vector<Extent> all;
  for (auto& c : contribs) {
    all.insert(all.end(), c.extents.begin(), c.extents.end());
  }
  std::sort(all.begin(), all.end(), [](const Extent& a, const Extent& b) {
    if (a.fsFileId != b.fsFileId) return a.fsFileId < b.fsFileId;
    return a.offset < b.offset;
  });
  std::vector<Extent> merged;
  for (const auto& e : all) {
    if (!merged.empty() && merged.back().fsFileId == e.fsFileId &&
        merged.back().offset + merged.back().bytes == e.offset) {
      merged.back().bytes += e.bytes;
    } else {
      merged.push_back(e);
    }
  }

  // Aggregator nodes: distinct compute nodes in rank order, capped by the
  // cb_nodes hint.
  std::vector<storage::Node*> aggs;
  for (const auto& c : contribs) {
    if (std::find(aggs.begin(), aggs.end(), c.node) == aggs.end()) {
      aggs.push_back(c.node);
    }
  }
  if (hints.cbNodes > 0 &&
      aggs.size() > static_cast<std::size_t>(hints.cbNodes)) {
    aggs.resize(static_cast<std::size_t>(hints.cbNodes));
  }

  // Phase two work split: cb-buffer-sized chunks round-robin over
  // aggregators; each aggregator issues its chunks in order.
  std::vector<std::vector<Extent>> perAgg(aggs.size());
  std::size_t next = 0;
  for (const auto& e : merged) {
    std::uint64_t cursor = 0;
    while (cursor < e.bytes) {
      const std::uint64_t chunk =
          std::min(e.bytes - cursor, hints.cbBufferSize);
      perAgg[next % aggs.size()].push_back(
          Extent{e.fsFileId, e.offset + cursor, chunk});
      ++next;
      cursor += chunk;
    }
  }

  // ROMIO pipelines the exchange and I/O of successive cb-buffer rounds,
  // so the shuffle overlaps the filesystem ops (an aggregator's NIC rx and
  // tx are separate channels); modeling them concurrently captures that.
  std::vector<sim::Task<void>> ops;
  ops.push_back(shuffleTransfers(eng, contribs, aggs, isWrite, cause));
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    if (perAgg[a].empty()) continue;
    ops.push_back(runExtentsFromNode(fs, *aggs[a], std::move(perAgg[a]),
                                     isWrite, cause));
  }
  co_await sim::whenAll(eng, std::move(ops));
}

}  // namespace

File::File(Rank& rank, std::shared_ptr<SharedFileState> shared, int fsFileId)
    : rank_(rank), shared_(std::move(shared)), fsFileId_(fsFileId) {}

int File::logicalFileId() const noexcept { return shared_->logicalId(); }

void File::setView(std::uint64_t dispBytes, std::uint64_t etypeBytes,
                   std::uint64_t filetypeBlock,
                   std::uint64_t filetypeStride) {
  if (etypeBytes == 0 || filetypeBlock == 0 ||
      filetypeStride < filetypeBlock) {
    throw std::invalid_argument("invalid file view");
  }
  viewDisp_ = dispBytes;
  etype_ = etypeBytes;
  ftBlock_ = filetypeBlock;
  ftStride_ = filetypeStride;
  pointer_ = 0;
  auto& meta = shared_->meta();
  meta.etypeBytes = etypeBytes;
  meta.viewDisp = dispBytes;
  meta.filetypeBlock = filetypeBlock;
  meta.filetypeStride = filetypeStride;
}

std::vector<Extent> File::mapToExtents(std::uint64_t offsetEtypes,
                                       std::uint64_t bytes) const {
  if (bytes % etype_ != 0) {
    throw std::invalid_argument(
        "request size must be a whole number of etypes");
  }
  std::vector<Extent> out;
  if (ftBlock_ == ftStride_) {
    out.push_back(
        Extent{fsFileId_, viewDisp_ + offsetEtypes * etype_, bytes});
    return out;
  }
  std::uint64_t e = offsetEtypes;
  std::uint64_t remaining = bytes / etype_;
  while (remaining > 0) {
    const std::uint64_t tile = e / ftBlock_;
    const std::uint64_t within = e % ftBlock_;
    const std::uint64_t take = std::min(remaining, ftBlock_ - within);
    const std::uint64_t physByte =
        viewDisp_ + (tile * ftStride_ + within) * etype_;
    if (!out.empty() &&
        out.back().offset + out.back().bytes == physByte) {
      out.back().bytes += take * etype_;
    } else {
      out.push_back(Extent{fsFileId_, physByte, take * etype_});
    }
    e += take;
    remaining -= take;
  }
  return out;
}

void File::emitTrace(OpKind kind, MpiOp op, std::uint64_t offsetEtypes,
                     std::uint64_t bytes, std::uint64_t tick, double entry) {
  if (TraceSink* sink = rank_.traceSink()) {
    IoCallRecord rec;
    rec.rank = rank_.id();
    rec.fileId = shared_->logicalId();
    rec.op = mpiOpName(op);
    rec.offsetUnits = offsetEtypes;
    rec.tick = tick;
    rec.requestBytes = bytes;
    rec.time = entry;
    rec.duration = rank_.engine().now() - entry;
    sink->onIoCall(rec);
  }
  // Same seam feeds the observability layer: one span per MPI-IO call on
  // the rank's track plus byte/latency metrics.
  if (obs::Hub* o = rank_.engine().obs(); o != nullptr) {
    Rank::ObsHandles& h = rank_.obsHandles(*o);
    const double now = rank_.engine().now();
    const bool isWrite = kind == OpKind::Write;
    if (o->trace != nullptr) {
      o->trace->span(obs::TrackKind::Rank, rank_.obsTrack(*o),
                     h.opName[static_cast<std::size_t>(op)], h.ioCat, entry,
                     now,
                     obs::TraceArgs()
                         .withFile(shared_->logicalId())
                         .withOffset(offsetEtypes)
                         .withBytes(bytes)
                         .withTick(tick));
    }
    if (o->metrics != nullptr) {
      obs::Counter*& counter = isWrite ? h.bytesWritten : h.bytesRead;
      if (counter == nullptr) {
        counter = &o->metrics->counter(isWrite ? "mpi.io.bytes_written"
                                               : "mpi.io.bytes_read");
      }
      counter->add(static_cast<double>(bytes));
      if (h.opSeconds == nullptr) {
        h.opSeconds = &o->metrics->histogram("mpi.io.op_seconds",
                                             obs::latencyBucketsSeconds());
      }
      h.opSeconds->observe(now - entry);
    }
  }
}

void File::updateMeta(bool collective, bool explicitOffset) {
  auto& meta = shared_->meta();
  meta.sawCollective = meta.sawCollective || collective;
  if (explicitOffset) {
    meta.sawExplicitOffsets = true;
  } else {
    meta.sawIndividualPointers = true;
  }
}

std::int64_t File::beginActivity(MpiOp op, double entry,
                                 std::uint64_t bytes) {
  obs::Hub* o = rank_.engine().obs();
  if (o == nullptr || o->edges == nullptr) return -1;
  return o->edges->begin(
      obs::ActKind::MpiIo, rank_.id(),
      rank_.obsHandles(*o).opLabel[static_cast<std::size_t>(op)], entry,
      bytes);
}

void File::endActivity(std::int64_t act) {
  if (act < 0) return;
  if (obs::Hub* o = rank_.engine().obs();
      o != nullptr && o->edges != nullptr) {
    o->edges->end(act, rank_.engine().now());
  }
}

sim::Task<void> File::independentOp(OpKind kind, std::uint64_t offsetEtypes,
                                    std::uint64_t bytes, MpiOp op) {
  const std::uint64_t tick = rank_.bumpTick();
  const double entry = rank_.engine().now();
  // Root of the dependency chain for this call: everything the storage
  // stack does on its behalf carries this id as (transitive) cause.
  const std::int64_t act = beginActivity(op, entry, bytes);
  auto extents = mapToExtents(offsetEtypes, bytes);
  auto& fs = shared_->fs();
  const IoHints& hints = rank_.runtime().hints();

  // ROMIO data sieving: a fragmented request touches the whole spanning
  // region in sieve-buffer passes — reads fetch the holes too; writes are
  // read-modify-write over the span.  Cheaper than hundreds of small
  // requests whenever the fragments are dense.
  const bool sieve = kind == OpKind::Write ? hints.dataSievingWrites
                                           : hints.dataSievingReads;
  if (sieve && extents.size() >= 2) {
    const std::uint64_t spanBegin = extents.front().offset;
    const std::uint64_t spanEnd =
        extents.back().offset + extents.back().bytes;
    std::uint64_t cursor = spanBegin;
    while (cursor < spanEnd) {
      const std::uint64_t chunk =
          std::min(spanEnd - cursor, hints.sieveBufferSize);
      co_await fs.read(rank_.node(), extents.front().fsFileId, cursor,
                       chunk, act);
      if (kind == OpKind::Write) {
        co_await fs.write(rank_.node(), extents.front().fsFileId, cursor,
                          chunk, act);
      }
      cursor += chunk;
    }
  } else {
    for (const auto& e : extents) {
      if (kind == OpKind::Write) {
        co_await fs.write(rank_.node(), e.fsFileId, e.offset, e.bytes, act);
      } else {
        co_await fs.read(rank_.node(), e.fsFileId, e.offset, e.bytes, act);
      }
    }
  }
  endActivity(act);
  emitTrace(kind, op, offsetEtypes, bytes, tick, entry);
}

namespace {

/// Two-phase aggregation body living in the calling rank's frame; run by
/// whichever rank arrives last at the rendezvous.
class TwoPhaseBody final : public CollectiveBody {
 public:
  TwoPhaseBody(sim::Engine& engine, SharedFileState& state,
               const IoHints& hints, bool isWrite, std::int64_t cause)
      : engine_(engine),
        state_(state),
        hints_(hints),
        isWrite_(isWrite),
        cause_(cause) {}

  sim::Task<void> run() override {
    std::vector<Contribution> contribs = std::move(state_.pending());
    state_.pending().clear();
    // Only the last-arriving rank's body runs, so `cause_` is its MPI-IO
    // activity — the one the rendezvous arrival links point at.
    return runTwoPhase(engine_, state_.fs(), hints_, std::move(contribs),
                       isWrite_, cause_);
  }

 private:
  sim::Engine& engine_;
  SharedFileState& state_;
  const IoHints& hints_;
  bool isWrite_;
  std::int64_t cause_;
};

}  // namespace

sim::Task<void> File::collectiveOp(OpKind kind, std::uint64_t offsetEtypes,
                                   std::uint64_t bytes, MpiOp op) {
  const std::uint64_t tick = rank_.bumpTick();
  const double entry = rank_.engine().now();
  const std::int64_t act = beginActivity(op, entry, bytes);

  Contribution contribution;
  contribution.node = &rank_.node();
  contribution.extents = mapToExtents(offsetEtypes, bytes);
  contribution.bytes = bytes;

  Runtime& rt = rank_.runtime();
  const bool isWrite = kind == OpKind::Write;

  // Contribute synchronously: execution is non-preemptive between awaits,
  // and collectives on a file cannot overlap, so pending() accumulates
  // exactly this collective's np contributions.
  shared_->pending().push_back(std::move(contribution));
  TwoPhaseBody body(rank_.engine(), *shared_, rt.hints(), isWrite, act);
  co_await rt.world().rendezvous(rank_, &body, act);

  endActivity(act);
  emitTrace(kind, op, offsetEtypes, bytes, tick, entry);
}

sim::Task<void> File::writeAt(std::uint64_t offsetEtypes,
                              std::uint64_t bytes) {
  updateMeta(false, true);
  return independentOp(OpKind::Write, offsetEtypes, bytes,
                       MpiOp::FileWriteAt);
}

sim::Task<void> File::readAt(std::uint64_t offsetEtypes,
                             std::uint64_t bytes) {
  updateMeta(false, true);
  return independentOp(OpKind::Read, offsetEtypes, bytes,
                       MpiOp::FileReadAt);
}

sim::Task<void> File::writeAtAll(std::uint64_t offsetEtypes,
                                 std::uint64_t bytes) {
  updateMeta(true, true);
  return collectiveOp(OpKind::Write, offsetEtypes, bytes,
                      MpiOp::FileWriteAtAll);
}

sim::Task<void> File::readAtAll(std::uint64_t offsetEtypes,
                                std::uint64_t bytes) {
  updateMeta(true, true);
  return collectiveOp(OpKind::Read, offsetEtypes, bytes,
                      MpiOp::FileReadAtAll);
}

namespace {

/// Background body of a non-blocking op: runs the independent operation
/// detached, then releases the Request's latch.
sim::Task<void> runNonBlocking(sim::Task<void> op,
                               std::shared_ptr<sim::Latch> done) {
  co_await std::move(op);
  done->countDown();
}

}  // namespace

Request File::nonBlockingOp(OpKind kind, std::uint64_t offsetEtypes,
                            std::uint64_t bytes, MpiOp op) {
  auto done = std::make_shared<sim::Latch>(rank_.engine(), 1);
  rank_.engine().spawn(runNonBlocking(
      independentOp(kind, offsetEtypes, bytes, op), done));
  return Request(rank_.engine(), std::move(done));
}

Request File::iwriteAt(std::uint64_t offsetEtypes, std::uint64_t bytes) {
  updateMeta(false, true);
  shared_->meta().sawNonBlocking = true;
  return nonBlockingOp(OpKind::Write, offsetEtypes, bytes,
                       MpiOp::FileIwriteAt);
}

Request File::ireadAt(std::uint64_t offsetEtypes, std::uint64_t bytes) {
  updateMeta(false, true);
  shared_->meta().sawNonBlocking = true;
  return nonBlockingOp(OpKind::Read, offsetEtypes, bytes,
                       MpiOp::FileIreadAt);
}

sim::Task<void> File::write(std::uint64_t bytes) {
  updateMeta(false, false);
  const std::uint64_t at = pointer_;
  pointer_ += bytes / etype_;
  return independentOp(OpKind::Write, at, bytes, MpiOp::FileWrite);
}

sim::Task<void> File::read(std::uint64_t bytes) {
  updateMeta(false, false);
  const std::uint64_t at = pointer_;
  pointer_ += bytes / etype_;
  return independentOp(OpKind::Read, at, bytes, MpiOp::FileRead);
}

sim::Task<void> File::writeAll(std::uint64_t bytes) {
  updateMeta(true, false);
  const std::uint64_t at = pointer_;
  pointer_ += bytes / etype_;
  return collectiveOp(OpKind::Write, at, bytes, MpiOp::FileWriteAll);
}

sim::Task<void> File::readAll(std::uint64_t bytes) {
  updateMeta(true, false);
  const std::uint64_t at = pointer_;
  pointer_ += bytes / etype_;
  return collectiveOp(OpKind::Read, at, bytes, MpiOp::FileReadAll);
}

sim::Task<void> File::close() {
  rank_.noteCommEvent(MpiOp::FileClose);
  co_await shared_->fs().metadataOp(rank_.node());
}

}  // namespace iop::mpi
