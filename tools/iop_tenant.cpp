// iop-tenant: co-schedule N jobs from a tenant spec against one shared
// storage configuration and report per-job slowdown, fairness, and
// interference (docs/TENANT.md).
//
//   iop-tenant run    --spec jobs.tenant --config B --seed 7
//   iop-tenant run    --spec jobs.tenant --config B --capture-out caps/
//   iop-tenant run    --spec jobs.tenant --config B --archive trends/
//   iop-tenant report --spec jobs.tenant --config B
//
// `run` simulates the spec and prints the fairness report, optionally
// writing per-job captures (--capture-out DIR, one file per job), a
// Chrome/Perfetto trace with per-job rank tracks (--trace-out), and
// archive entries labeled "<label>#<jobid>" (--archive) so iop-trend
// tracks each tenant separately.  `report` simulates and prints only.
//
// Exit codes: 0 ok, 1 runtime/spec errors, 2 usage errors.
#include <cstdio>
#include <filesystem>
#include <string>

#include "analysis/replay.hpp"
#include "fault/plan.hpp"
#include "obs/archive.hpp"
#include "obs/capture.hpp"
#include "tenant/cosched.hpp"
#include "tenant/report.hpp"
#include "tenant/spec.hpp"
#include "toolkit.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  using namespace iop;
  util::Args args;
  args.addOption("spec", "tenant spec file (docs/TENANT.md)");
  tools::addConfigOptions(args, "shared target configuration");
  args.addOption("seed", "run seed (arrival streams; byte-reproducible)",
                 "1");
  args.addOption("fault-plan",
                 "fault plan file (docs/FAULTS.md) composed with the "
                 "tenant run: installed on the contended topology and on "
                 "every solo baseline");
  args.addOption("capture-out",
                 "directory for per-job run captures "
                 "(<dir>/<jobid>.capture)");
  args.addOption("report-out", "also write the report text to this file");
  args.addOption("archive",
                 "archive each job's contended capture into this "
                 "trend-archive directory (see iop-trend)");
  args.addOption("archive-label",
                 "label recorded with --archive entries (job id is "
                 "appended as <label>#<jobid>)", "");
  tools::addObsOptions(args);
  try {
    args.parse(argc, argv);
    const auto& pos = args.positional();
    const std::string usage = args.usage(
        "iop-tenant <run|report> --spec FILE --config NAME",
        "Multi-tenant contention: N jobs sharing one storage system.");
    if (args.helpRequested() || pos.size() != 1 ||
        (pos[0] != "run" && pos[0] != "report")) {
      std::printf("%s", usage.c_str());
      return args.helpRequested() ? 0 : 2;
    }
    const bool reportOnly = pos[0] == "report";
    if (!args.has("spec")) {
      std::fprintf(stderr, "iop-tenant: --spec is required\n");
      return 2;
    }
    const auto spec = tenant::loadTenantSpec(args.get("spec"));
    const auto seed =
        static_cast<std::uint64_t>(args.getInt("seed", 1));

    fault::FaultPlan plan;
    tenant::TenantRunOptions options;
    if (args.has("fault-plan")) {
      plan = fault::loadFaultPlan(args.get("fault-plan"));
      options.faultPlan = &plan;
    }

    tools::ObsSession obsSession(args);
    options.perJobTracks = obsSession.active();
    const auto configured = tools::configuredBuilder(args);
    analysis::ConfigBuilder builder = [&obsSession, configured] {
      return obsSession.attachedBuild(configured);
    };

    const auto result = tenant::runTenant(spec, builder, seed, options);
    const std::string report = tenant::renderTenantReport(result);
    std::printf("%s", report.c_str());

    if (args.has("report-out")) {
      std::FILE* file = std::fopen(args.get("report-out").c_str(), "wb");
      if (file == nullptr) {
        throw std::runtime_error("cannot open " + args.get("report-out"));
      }
      std::fputs(report.c_str(), file);
      std::fclose(file);
    }

    if (!reportOnly && args.has("capture-out")) {
      const std::filesystem::path dir = args.get("capture-out");
      std::filesystem::create_directories(dir);
      for (std::size_t j = 0; j < result.jobs.size(); ++j) {
        const auto cap = tenant::makeJobCapture(result, j);
        cap.save((dir / (result.jobs[j].id + ".capture")).string());
      }
      std::fprintf(stderr, "iop-tenant: wrote %zu capture(s) to %s\n",
                   result.jobs.size(), dir.string().c_str());
    }

    if (!reportOnly && args.has("archive")) {
      obs::Archive archive(args.get("archive"));
      for (std::size_t j = 0; j < result.jobs.size(); ++j) {
        const auto entry = archive.addCapture(
            tenant::makeJobCapture(result, j),
            args.get("archive-label") + "#" + result.jobs[j].id);
        std::printf("archived job %s seq %llu (%s)\n",
                    result.jobs[j].id.c_str(),
                    static_cast<unsigned long long>(entry.seq),
                    entry.hash.c_str());
      }
    }

    obsSession.finish();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iop-tenant: %s\n", e.what());
    return 1;
  }
}
