// Campaign specifications: the what-if grid a sweep evaluates.
//
// A campaign file is the same directive-per-line text format as the
// cluster description files ('#' comments, whitespace tokens):
//
//   name btio-selection
//   model models/btio-D.model          # model-file axis entry
//   app btio np=4 class=C              # characterize-and-model axis entry
//   characterize A                     # config app entries are traced on
//   config C                           # candidate axis entry (repeatable)
//   config finisterrae
//   config-file clusters/ssd-nas.conf
//   degrade-disks 1 4                  # fault grid (default: 1)
//   degrade-net 1 2
//   faultplan none                     # fault axis entry (repeatable)
//   faultplan file=plans/flaky.plan    # seeded fault-injection plan
//   fault-seeds 3                      # replicas per faulted plan entry
//   multiop                            # exact-cycle multi-op replay
//
// Cells = models x configs x degrade-disks x degrade-net x faultplans
// (x seeds for faulted plan entries), in exactly that (declaration) order
// — the campaign's canonical cell order, which the executor commits
// results in regardless of worker count.  A campaign with no faultplan
// directive produces the exact same grid, keys and store bytes as before
// the fault axis existed.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "configs/configs.hpp"
#include "core/iomodel.hpp"
#include "fault/plan.hpp"
#include "obs/log.hpp"

namespace iop::sweep {

class SweepTelemetry;

/// Estimator identity folded into every cache key: bump when the replay /
/// estimation pipeline changes in a result-affecting way.
inline constexpr const char* kEstimatorVersion = "iop-estimate/2";
inline constexpr const char* kMultiOpEstimatorVersion =
    "iop-estimate-multiop/1";
/// Faulted cells replay the whole model synthetically (degraded.hpp)
/// instead of per-phase IOR mapping, so they carry their own version.
inline constexpr const char* kFaultEstimatorVersion = "iop-estimate-fault/1";

/// One model axis entry: either a saved model file or an application to
/// characterize on the campaign's characterize config.
struct ModelSource {
  std::string label;
  std::string path;  ///< model file (empty for app entries)
  std::string app;   ///< application name (empty for file entries)
  int np = 4;        ///< app entries: process count
  apps::AppParams params;

  bool fromApp() const noexcept { return !app.empty(); }
};

/// One candidate configuration: a paper config by name or a cluster file.
struct ConfigSource {
  std::string label;
  bool fromFile = false;
  std::string name = "A";  ///< paper configuration (when !fromFile)
  std::string path;        ///< cluster description file (when fromFile)
};

/// One fault axis entry: "none" (the healthy baseline) or a fault plan
/// file evaluated across `faultSeeds` seeded replicas.
struct FaultSource {
  std::string label = "none";
  std::string path;  ///< fault plan file (empty for the none entry)

  bool none() const noexcept { return path.empty(); }
};

struct CampaignSpec {
  std::string name = "campaign";
  std::vector<ModelSource> models;
  std::vector<ConfigSource> configs;
  std::vector<double> degradeDisks{1.0};
  std::vector<double> degradeNet{1.0};
  std::vector<FaultSource> faults{FaultSource{}};
  int faultSeeds = 1;  ///< replicas per faulted plan entry
  bool multiop = false;
  ConfigSource characterize;  ///< default: paper configuration A

  /// True when the campaign has a fault axis beyond the default healthy
  /// baseline — the only case where fault fields enter canonical texts.
  bool hasFaultAxis() const noexcept {
    return faults.size() != 1 || !faults.front().none() || faultSeeds != 1;
  }

  const char* estimatorVersion() const noexcept {
    return multiop ? kMultiOpEstimatorVersion : kEstimatorVersion;
  }

  /// Deterministic re-rendering of the parsed spec (comments and
  /// whitespace dropped): the store's campaign identity.
  std::string canonicalText() const;
};

/// Parse a campaign.  Relative paths resolve against `baseDir`.  Throws
/// std::invalid_argument with a line reference on malformed input.
CampaignSpec parseCampaign(const std::string& text,
                           const std::filesystem::path& baseDir);
CampaignSpec loadCampaign(const std::filesystem::path& path);

// ------------------------------------------------------------- Resolution

struct ResolvedModel {
  std::string label;
  core::IOModel model;
  std::string contentText;  ///< canonical model serialization (hash input)
};

struct ResolvedConfig {
  std::string label;
  std::string identity;     ///< hash input: config name or file content
  bool fromFile = false;
  std::string name;         ///< paper config name (when !fromFile)
  std::string clusterText;  ///< cluster file content (when fromFile)
  std::string mount;        ///< default mount of the configuration

  /// Build a fresh, cold instance with the cell's fault factors applied.
  /// Thread-safe: parses from the captured text, touches no shared state.
  configs::ClusterConfig build(double degradeDisks,
                               double degradeNet) const;
};

/// One fault axis entry with its plan parsed and canonicalized.
struct ResolvedFault {
  std::string label = "none";
  fault::FaultPlan plan;  ///< empty for the none entry
  std::string planText;   ///< plan.canonicalText() — hash input ("" = none)

  bool none() const noexcept { return planText.empty(); }
};

/// One cell of the campaign grid, with its content-addressed cache key.
struct CellSpec {
  std::size_t modelIndex = 0;
  std::size_t configIndex = 0;
  double degradeDisks = 1.0;
  double degradeNet = 1.0;
  std::size_t faultIndex = 0;   ///< into ResolvedCampaign::faults
  std::uint64_t faultSeed = 0;  ///< 0 = unfaulted (the none entry)
  std::string key;  ///< 16-hex ContentHash of (estimator, model, config,
                    ///< faults)

  bool faulted() const noexcept { return faultSeed != 0; }
};

struct ResolvedCampaign {
  CampaignSpec spec;
  std::vector<ResolvedModel> models;
  std::vector<ResolvedConfig> configs;
  std::vector<ResolvedFault> faults;
  std::size_t characterized = 0;   ///< app entries actually traced
  std::size_t modelCacheHits = 0;  ///< app entries served from a model cache

  /// The campaign grid in canonical order, cache keys computed.
  std::vector<CellSpec> planCells() const;

  std::string cellTitle(const CellSpec& cell) const;
};

/// Knobs for resolveCampaign.  Characterization runs (one per `app`
/// entry) are independent simulations, so they fan out over `jobs` worker
/// threads; `modelCacheDirs` are probed for a content-addressed model
/// (keyed by app + parameters + characterize config) before tracing.  A
/// computed model is written back to all of them; a model found in one
/// dir is copied into the dirs probed before it, so the first dir (the
/// campaign store) always ends up holding every model it was planned from.
struct ResolveOptions {
  int jobs = 1;
  std::vector<std::filesystem::path> modelCacheDirs;
  bool reuse = true;  ///< false: ignore cached models (still writes back)
  obs::Logger* log = nullptr;
  /// Optional runtime telemetry (telemetry.hpp): characterization spans
  /// land on the exec trace as they run; journal events and metrics are
  /// emitted post-join in declaration order.  Observation-only.
  SweepTelemetry* telemetry = nullptr;
};

/// Load model files, characterize app entries (on the characterize
/// config, across `options.jobs` workers), and load cluster files.  Logs
/// one line per characterization, deterministically in declaration order.
ResolvedCampaign resolveCampaign(const CampaignSpec& spec,
                                 const ResolveOptions& options);

/// Serial convenience overload (jobs = 1, no model cache).
ResolvedCampaign resolveCampaign(const CampaignSpec& spec,
                                 obs::Logger* log = nullptr);

/// Content-addressed model cache key for an `app` campaign entry: app
/// name + np + parameters + the characterize config's identity.
std::string modelCacheKey(const ModelSource& src,
                          const std::string& characterizeIdentity);

/// The cache key of one cell (exposed for tests): estimator version +
/// model text + config identity + fault factors.  The fault plan's
/// canonical text and replica seed enter the hash only when a plan is
/// present, so unfaulted keys are byte-identical to pre-fault stores.
std::string cellKey(const char* estimatorVersion,
                    const std::string& modelText,
                    const std::string& configIdentity, double degradeDisks,
                    double degradeNet,
                    const std::string& faultPlanText = std::string(),
                    std::uint64_t faultSeed = 0);

}  // namespace iop::sweep
