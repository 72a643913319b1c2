/**
 * @file
 * Tests for the mixed-role interference suite (PR 10 tentpole).
 *
 * Covers the role-assignment contract (workloads/interference_wl.hh),
 * the determinism acceptance property — bit-identical RunMetrics,
 * including the per-role block and the NVM channel gauges, whether
 * the cells run `-j1` or across a CellRunner pool — and the
 * miss-overlap knob: `missOverlapDepth = 1` must reproduce the
 * legacy single-outstanding-miss engine exactly (it is the same code
 * path), while a deeper window must actually change the timing.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "metrics_equal.hh"
#include "workloads/interference_wl.hh"

namespace hoopnvm
{
namespace
{

using bench::Cell;
using bench::CellRunner;

TEST(InterferenceRoles, NamesMatchTheStatsContract)
{
    // system.cc's metrics() scans histograms named
    // role_<name>_ticks for exactly these strings; a rename on either
    // side silently drops a role from the JSON.
    EXPECT_STREQ(interferenceRoleName(InterferenceRole::LogAppend),
                 "log_append");
    EXPECT_STREQ(interferenceRoleName(InterferenceRole::PointRead),
                 "point_read");
    EXPECT_STREQ(interferenceRoleName(InterferenceRole::SeqScan),
                 "seq_scan");
    EXPECT_STREQ(interferenceRoleName(InterferenceRole::GcPressure),
                 "gc_pressure");
}

TEST(InterferenceRoles, MixZeroIsAllWriters)
{
    for (CoreId c = 0; c < 8; ++c) {
        const InterferenceRole r = interferenceRoleForCore(c, 8, 0.0);
        EXPECT_EQ(r, (c % 2 == 0) ? InterferenceRole::LogAppend
                                  : InterferenceRole::GcPressure)
            << "core " << c;
    }
}

TEST(InterferenceRoles, MixOneIsAllReaders)
{
    for (CoreId c = 0; c < 8; ++c) {
        const InterferenceRole r = interferenceRoleForCore(c, 8, 1.0);
        EXPECT_EQ(r, (c % 2 == 0) ? InterferenceRole::PointRead
                                  : InterferenceRole::SeqScan)
            << "core " << c;
    }
}

TEST(InterferenceRoles, HalfMixSplitsEightCoresEvenly)
{
    // Reader cores come first; each half alternates its two roles so
    // every role appears even on small machines.
    const InterferenceRole expect[8] = {
        InterferenceRole::PointRead, InterferenceRole::SeqScan,
        InterferenceRole::PointRead, InterferenceRole::SeqScan,
        InterferenceRole::LogAppend, InterferenceRole::GcPressure,
        InterferenceRole::LogAppend, InterferenceRole::GcPressure};
    for (CoreId c = 0; c < 8; ++c)
        EXPECT_EQ(interferenceRoleForCore(c, 8, 0.5), expect[c])
            << "core " << c;
}

TEST(InterferenceRoles, SingleCoreFallsBackToWriter)
{
    // lround(0.4 * 1) = 0 readers: the lone core must still generate
    // persistence traffic, not leave the channel idle.
    EXPECT_EQ(interferenceRoleForCore(0, 1, 0.4),
              InterferenceRole::LogAppend);
    EXPECT_EQ(interferenceRoleForCore(0, 1, 1.0),
              InterferenceRole::PointRead);
}

// ---------------------------------------------------------------------
// Determinism: the acceptance property of the whole suite.
// ---------------------------------------------------------------------

struct SweepPoint
{
    Scheme scheme;
    double saturation;
    double readMix;
};

std::vector<SweepPoint>
sweep()
{
    // hoop + one log-based baseline x a saturation and a mix edge —
    // small enough for test runtime, wide enough to hit all roles and
    // the pacing path (saturation < 1).
    return {{Scheme::Hoop, 1.0, 0.5},
            {Scheme::Hoop, 0.5, 0.75},
            {Scheme::OptRedo, 1.0, 0.5},
            {Scheme::OptRedo, 0.5, 0.25}};
}

std::vector<Cell>
runSweep(unsigned jobs, unsigned overlap_depth = 1)
{
    SystemConfig cfg = bench::paperConfig();
    cfg.missOverlapDepth = overlap_depth;
    WorkloadParams params = bench::paperParams(64);
    params.scale = 256;

    const auto pts = sweep();
    std::vector<Cell> out(pts.size());
    CellRunner runner(jobs);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        WorkloadParams p = params;
        p.interferenceSaturation = pts[i].saturation;
        p.interferenceReadMix = pts[i].readMix;
        bench::scheduleCell(runner, "cell" + std::to_string(i),
                            pts[i].scheme, "interference", p, cfg,
                            /*tx_per_core=*/20, &out[i]);
    }
    runner.run();
    return out;
}

using test::expectIdenticalMetrics;

TEST(Interference, ParallelMatchesSerialExactly)
{
    const std::vector<Cell> serial = runSweep(1);
    const std::vector<Cell> parallel = runSweep(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        EXPECT_TRUE(serial[i].verified);
        EXPECT_TRUE(parallel[i].verified);
        expectIdenticalMetrics(serial[i].metrics, parallel[i].metrics);
    }
}

TEST(Interference, RolesBlockCoversEveryCoreOnce)
{
    const std::vector<Cell> cells = runSweep(1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        const RunMetrics &m = cells[i].metrics;
        // A 50/50 or 25/75 mix on 8 cores populates all four roles.
        ASSERT_EQ(m.roles.size(), 4u);
        std::uint64_t sum = 0;
        for (const RoleMetrics &r : m.roles) {
            EXPECT_GT(r.transactions, 0u) << r.name;
            EXPECT_GT(r.latency.count, 0u) << r.name;
            EXPECT_GT(r.txPerSecond, 0.0) << r.name;
            sum += r.transactions;
        }
        // Every committed transaction lands in exactly one role.
        EXPECT_EQ(sum, m.transactions);
    }
}

TEST(Interference, ChannelGaugesArePopulated)
{
    const std::vector<Cell> cells = runSweep(1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        const RunMetrics &m = cells[i].metrics;
        EXPECT_GT(m.channelBusyTicks, 0u);
        EXPECT_GT(m.channelUtilization, 0.0);
        EXPECT_LE(m.channelUtilization, 1.0);
    }
}

// ---------------------------------------------------------------------
// The miss-overlap knob.
// ---------------------------------------------------------------------

TEST(MissOverlap, DepthOneIsTheDefaultEngineExactly)
{
    // Differential acceptance: a config that spells out
    // missOverlapDepth = 1 takes the identical single-outstanding-miss
    // code path as the default, so every metric is bit-identical.
    const std::vector<Cell> dflt = runSweep(1);
    const std::vector<Cell> explicit1 = runSweep(1, /*depth=*/1);
    ASSERT_EQ(dflt.size(), explicit1.size());
    for (std::size_t i = 0; i < dflt.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdenticalMetrics(dflt[i].metrics, explicit1[i].metrics);
    }
}

TEST(MissOverlap, DepthOneBlocksOnEverySlowFill)
{
    // Depth 1 is the blocking core, not the windowed path with a
    // one-entry window: that path would park this cold miss in the
    // empty window and charge the core a single opCost.
    SystemConfig cfg = bench::paperConfig();
    cfg.numCores = 1;
    System sys(cfg, Scheme::Native);
    const Tick before = sys.core(0).clock();
    sys.loadWord(0, 0x10000);
    EXPECT_GE(sys.core(0).clock() - before, cfg.nvm.readLatency);
}

TEST(MissOverlap, DeeperWindowChangesTimingAndStaysCorrect)
{
    // depth = 4 lets a core keep up to four line fills in flight, so
    // read-heavy cells must finish in fewer simulated ticks; the
    // workload's own verify() (run inside runCell) proves the
    // reordering never changed visible memory state.
    const std::vector<Cell> base = runSweep(1, /*depth=*/1);
    const std::vector<Cell> deep = runSweep(1, /*depth=*/4);
    ASSERT_EQ(base.size(), deep.size());
    bool any_differs = false;
    for (std::size_t i = 0; i < base.size(); ++i) {
        EXPECT_TRUE(deep[i].verified);
        if (base[i].metrics.simTicks != deep[i].metrics.simTicks)
            any_differs = true;
    }
    EXPECT_TRUE(any_differs)
        << "missOverlapDepth=4 left every cell's timing untouched — "
           "the knob is dead";
}

TEST(MissOverlap, DeeperWindowIsDeterministicToo)
{
    const std::vector<Cell> serial = runSweep(1, /*depth=*/4);
    const std::vector<Cell> parallel = runSweep(4, /*depth=*/4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        SCOPED_TRACE("cell " + std::to_string(i));
        expectIdenticalMetrics(serial[i].metrics, parallel[i].metrics);
    }
}

} // namespace
} // namespace hoopnvm
