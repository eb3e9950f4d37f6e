// Tests of the benchmark itself: span self-time arithmetic, the speed
// probe's placement and scaling, and each output check failing when fed
// a corrupted result.
#include <gtest/gtest.h>

#include "calib.hpp"
#include "checks.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using iop::analysis::ComparisonRow;
using iop::core::IOModel;
using iop::core::Phase;
using iop::core::PhaseOp;

Span span(const char* name, int parent, double start, double end) {
  return Span{name, parent, start, end};
}

TEST(SpanSelfTime, ParentMinusChildren) {
  const std::vector<Span> spans = {
      span("pass", -1, 0, 10), span("mpi.run", 0, 1, 4),
      span("replay.measure", 0, 5, 9), span("configs.make", 2, 5, 6)};
  const auto self = selfSeconds(spans);
  EXPECT_DOUBLE_EQ(self[0], 10 - 3 - 4);
  EXPECT_DOUBLE_EQ(self[1], 3);
  EXPECT_DOUBLE_EQ(self[2], 4 - 1);
  EXPECT_DOUBLE_EQ(self[3], 1);
}

TEST(SpanSelfTime, OverlappingAndOverhangingChildrenCountOnce) {
  const std::vector<Span> spans = {span("pass", -1, 0, 10),
                                   span("a.x", 0, 2, 6), span("a.y", 0, 4, 8),
                                   span("b.z", 0, 9, 12)};
  const auto self = selfSeconds(spans);
  // Covered: [2, 8] and [9, 10] (clipped to the parent) = 7 s.
  EXPECT_DOUBLE_EQ(self[0], 3);
}

TEST(SpanSelfTime, LayersSumToTheRootDuration) {
  const std::vector<Span> spans = {
      span("pass", -1, 0, 10), span("stage.estimate", 0, 0, 6),
      span("mpi.app", 1, 0, 5), span("mpi.run", 2, 1, 4),
      span("configs.make", 2, 0, 1), span("trace.write", 1, 5, 5.5)};
  const auto layers = selfSecondsByLayer(spans);
  double sum = 0;
  for (const auto& [layer, seconds] : layers) sum += seconds;
  EXPECT_DOUBLE_EQ(sum, 10);
  EXPECT_DOUBLE_EQ(layers.at("mpi"), 4);
  EXPECT_DOUBLE_EQ(layers.at("configs"), 1);
  EXPECT_DOUBLE_EQ(layers.at("trace"), 0.5);
  EXPECT_DOUBLE_EQ(layers.at("stage") + layers.at("pass"), 4.5);
}

TEST(SpanLogTest, RecordsParentsDownToItsDepth) {
  SpanLog on(SpanLog::kAllLevels);
  {
    Scope outer(on, "pass");
    Scope inner(on, "mpi.run");
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[0].parent, -1);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_LE(on.spans()[1].end, on.spans()[0].end);

  SpanLog shallow(1);
  {
    Scope outer(shallow, "pass");
    Scope inner(shallow, "mpi.run");
    Scope innermost(shallow, "sim.step");
  }
  ASSERT_EQ(shallow.spans().size(), 1u);
  EXPECT_EQ(shallow.spans()[0].name, "pass");

  SpanLog off;
  {
    Scope outer(off, "pass");
  }
  EXPECT_TRUE(off.spans().empty());
}

TEST(SpanLogTest, ProbesAtStepBoundaries) {
  SpanLog log(SpanLog::kAllLevels);
  int runs = 0;
  log.setProbe([&runs] { ++runs; }, kProbeSpan, 1);
  {
    Scope pass(log, "pass");
    {
      Scope step(log, "a.x");
      Scope part(log, "a.part");
    }
    {
      Scope step(log, "a.y");
      log.probeNow();
    }
  }
  // Before and after each step, and where asked; deeper and shallower
  // spans do not probe.
  std::vector<std::string> names;
  for (const Span& s : log.spans()) names.push_back(s.name);
  EXPECT_EQ(names, (std::vector<std::string>{
                       "pass", kProbeSpan, "a.x", "a.part", kProbeSpan,
                       kProbeSpan, "a.y", kProbeSpan, kProbeSpan}));
  EXPECT_EQ(runs, 5);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[7].parent, 6);  // under a.y
}

TEST(SpeedFactors, StepsUseTheProbesAroundThem) {
  // Probe times such as (2 + 3 * ref) - 2 round, so compare to 1e-9.
  const double ref = kProbeReferenceSeconds;
  const std::vector<Span> spans = {
      span("pass", -1, 0, 10),          span(kProbeSpan, 0, 0, ref),
      span("a.x", 0, 1, 2),             span(kProbeSpan, 0, 2, 2 + 3 * ref),
      span("a.y", 0, 3, 4),             span("a.z", 0, 5, 6),
      span(kProbeSpan, 0, 7, 7 + 2 * ref)};
  const auto f = speedFactors(spans);
  EXPECT_NEAR(f[0], 1.0 / 2, 1e-9);      // encloses probes: their median
  EXPECT_NEAR(f[1], 0, 1e-9);            // a probe itself
  EXPECT_NEAR(f[2], 1.0 / 2, 1e-9);      // mean of 1x and 3x
  EXPECT_NEAR(f[4], 1.0 / 2.5, 1e-9);    // mean of 3x and 2x
  EXPECT_NEAR(f[5], 1.0 / 2.5, 1e-9);

  const std::vector<Span> edge = {span("a.x", -1, 0, 1),
                                  span(kProbeSpan, -1, 1, 1 + 4 * ref),
                                  span("a.y", -1, 2, 3)};
  const auto g = speedFactors(edge);
  EXPECT_NEAR(g[0], 1.0 / 4, 1e-9);  // only a probe after it
  EXPECT_NEAR(g[2], 1.0 / 4, 1e-9);  // only a probe before it

  const std::vector<Span> nested = {
      span("a.x", -1, 0, 1), span(kProbeSpan, 0, 0.2, 0.2 + 2 * ref),
      span(kProbeSpan, 0, 0.6, 0.6 + 4 * ref)};
  EXPECT_NEAR(speedFactors(nested)[0], 1.0 / 3, 1e-9);  // probes within

  const auto none = speedFactors({span("a.x", -1, 0, 1)});
  EXPECT_NEAR(none[0], 1, 1e-9);
}

Phase phase(int id, const char* op, std::uint64_t weight) {
  Phase p;
  p.id = id;
  p.weightBytes = weight;
  p.ops.push_back(PhaseOp{op, 0, 0, {}, {}});
  return p;
}

IOModel btioModel(int writePhases) {
  std::vector<Phase> phases;
  for (int i = 1; i <= writePhases; ++i) {
    phases.push_back(phase(i, "MPI_File_write_at_all", 1));
  }
  phases.push_back(phase(writePhases + 1, "MPI_File_read_at_all", 1));
  return IOModel("btio", 4, {}, phases);
}

TEST(Checks, BtioPhaseCount) {
  CheckLog good;
  checkBtioPhases(good, btioModel(50), "ok");
  EXPECT_EQ(good.attempted(), 1u);
  EXPECT_EQ(good.failed(), 0u);

  CheckLog bad;
  checkBtioPhases(bad, btioModel(49), "50 phases");
  EXPECT_EQ(bad.failed(), 1u);
}

TEST(Checks, MadbenchStructure) {
  constexpr std::uint64_t G = 1ULL << 30;
  auto wr = phase(3, "MPI_File_write_at", 6 * G);
  wr.ops.push_back(PhaseOp{"MPI_File_read_at", 0, 0, {}, {}});
  IOModel good("madbench2", 16, {},
               {phase(1, "MPI_File_write_at", 4 * G),
                phase(2, "MPI_File_read_at", G), wr,
                phase(4, "MPI_File_write_at", G),
                phase(5, "MPI_File_read_at", 4 * G)});
  CheckLog ok;
  checkMadbenchPhases(ok, good, "ok");
  EXPECT_EQ(ok.failed(), 0u);

  auto phases = good.phases();
  phases[4].weightBytes = 2 * G;
  CheckLog bad;
  checkMadbenchPhases(bad, IOModel("madbench2", 16, {}, phases), "weight");
  EXPECT_EQ(bad.failed(), 1u);
}

TEST(Checks, ErrorAboveTenPercentFails) {
  std::vector<ComparisonRow> rows(2);
  rows[0].errorPct = 4;
  rows[1].errorPct = 9.9;
  CheckLog ok;
  checkErrorsBelow(ok, rows, 10, "ok");
  EXPECT_EQ(ok.failed(), 0u);
  EXPECT_DOUBLE_EQ(worstErrorPct(rows), 9.9);

  rows[1].errorPct = 12;
  CheckLog bad;
  checkErrorsBelow(bad, rows, 10, "12%");
  EXPECT_EQ(bad.failed(), 1u);
}

TEST(Checks, SelectingConfigurationCFails) {
  CheckLog ok;
  checkSelected(ok, "Finisterrae", "Finisterrae");
  EXPECT_EQ(ok.failed(), 0u);
  CheckLog bad;
  checkSelected(bad, "Configuration C", "Finisterrae");
  EXPECT_EQ(bad.failed(), 1u);
}

TEST(Checks, UsageOutsideRangeFails) {
  std::vector<iop::analysis::UsageRow> rows(2);
  rows[0].usagePct = 25;
  rows[1].usagePct = 100;
  CheckLog ok;
  checkUsage(ok, rows, "ok");
  EXPECT_EQ(ok.failed(), 0u);
  rows[1].usagePct = 0;
  CheckLog bad;
  checkUsage(bad, rows, "zero");
  EXPECT_EQ(bad.failed(), 1u);
}

TEST(Checks, MakespanMustBeBitIdentical) {
  CheckLog ok;
  checkSameMakespan(ok, 1360.5, 1360.5);
  EXPECT_EQ(ok.failed(), 0u);
  CheckLog bad;
  checkSameMakespan(bad, 1360.5, 1360.5000000001);
  EXPECT_EQ(bad.failed(), 1u);
}

TEST(Checks, CachedReestimateMustMatch) {
  iop::analysis::Estimate a;
  a.phases.push_back({1, 1, 100, 10.0, 10.0});
  a.totalTimeSec = 10;
  auto b = a;
  CheckLog ok;
  checkSameEstimate(ok, a, b, "ok");
  EXPECT_EQ(ok.failed(), 0u);
  b.phases[0].bandwidthCH = 11;
  CheckLog bad;
  checkSameEstimate(bad, a, b, "drift");
  EXPECT_EQ(bad.failed(), 1u);
}

TEST(Checks, SweepColdMustComputeAndWarmMustHit) {
  iop::sweep::SweepOutcome cold;
  cold.cells.resize(4);
  cold.computed = 4;
  CheckLog ok;
  checkSweep(ok, cold, false);
  EXPECT_EQ(ok.failed(), 0u);
  CheckLog bad;
  checkSweep(bad, cold, true);  // a "warm" pass that computed everything
  EXPECT_EQ(bad.failed(), 1u);
}

TEST(Checks, SweepSelectionNamesTheWinner) {
  iop::sweep::CellOutcome f;
  f.result.configLabel = "finisterrae";
  iop::sweep::CellOutcome c;
  c.result.configLabel = "C";
  iop::sweep::RankGroup group;
  group.title = "btio";
  group.entries.push_back({&f, 1, true, 1.0, 1, 1, true});
  group.entries.push_back({&c, 2, false, 2.0, 1, 1, true});
  CheckLog ok;
  checkSweepSelection(ok, {group}, "finisterrae");
  EXPECT_EQ(ok.failed(), 0u);
  std::swap(group.entries[0].cell, group.entries[1].cell);
  CheckLog bad;
  checkSweepSelection(bad, {group}, "finisterrae");
  EXPECT_EQ(bad.failed(), 1u);
}

}  // namespace
}  // namespace perfbench
