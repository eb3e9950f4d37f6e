#include "obs/edges.hpp"

namespace iop::obs {

const char* actKindName(ActKind kind) {
  switch (kind) {
    case ActKind::MpiIo: return "mpi-io";
    case ActKind::Collective: return "collective";
    case ActKind::Network: return "network";
    case ActKind::Cache: return "cache";
    case ActKind::Disk: return "disk";
    case ActKind::Other: return "other";
  }
  return "?";
}

void EdgeRecorder::link(std::int64_t pred, std::int64_t succ) {
  const auto n = static_cast<std::int64_t>(activities_.size());
  if (pred < 0 || succ < 0 || pred >= n || succ >= n || pred == succ) return;
  links_.push_back(CausalLink{pred, succ});
}

}  // namespace iop::obs
