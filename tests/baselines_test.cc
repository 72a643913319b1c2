/**
 * @file
 * Tests for the five reconstructed baselines. Each scheme is driven
 * through the same controller-level scenarios: commit durability,
 * crash discard of uncommitted transactions, fill correctness after
 * evictions, and scheme-specific mechanics (log truncation, shadow
 * flips, index walks, checkpointing).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "baselines/lad_controller.hh"
#include "baselines/lsm_controller.hh"
#include "baselines/osp_controller.hh"
#include "baselines/redo_controller.hh"
#include "baselines/undo_controller.hh"
#include "common/errors.hh"
#include "sim/system.hh"

namespace hoopnvm
{
namespace
{

SystemConfig
baseConfig()
{
    SystemConfig cfg;
    cfg.numCores = 2;
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.auxBytes = miB(16) + miB(4); // OSP: shadow + selector + log
    return cfg;
}

void
store(PersistenceController &c, CoreId core, Addr a, std::uint64_t v)
{
    std::uint8_t b[8];
    std::memcpy(b, &v, 8);
    c.storeWord(core, a, b, 0);
}

std::uint64_t
readWord(PersistenceController &c, Addr a)
{
    std::uint8_t buf[kCacheLineSize];
    c.debugReadLine(lineAddr(a), buf);
    std::uint64_t v;
    std::memcpy(&v, buf + (a - lineAddr(a)), 8);
    return v;
}

/** Test-name suffix: the scheme name with '-' as '_'. */
std::string
paramName(const ::testing::TestParamInfo<Scheme> &info)
{
    std::string n = schemeName(info.param);
    for (auto &c : n) {
        if (c == '-')
            c = '_';
    }
    return n;
}

/** Parameterized durability contract over all persistent baselines. */
class BaselineContract : public ::testing::TestWithParam<Scheme>
{
  protected:
    BaselineContract()
        : cfg(baseConfig()), nvm(cfg.nvmCapacity(), cfg.nvm),
          ctrl(makeController(GetParam(), nvm, cfg))
    {
    }

    SystemConfig cfg;
    NvmDevice nvm;
    std::unique_ptr<PersistenceController> ctrl;
};

TEST_P(BaselineContract, CommittedTxSurvivesCrash)
{
    ctrl->txBegin(0, 0);
    for (unsigned i = 0; i < 12; ++i)
        store(*ctrl, 0, 0x1000 + 8 * i, 100 + i);
    ctrl->txEnd(0, 0);

    ctrl->crash();
    ctrl->recover(2);
    for (unsigned i = 0; i < 12; ++i)
        EXPECT_EQ(readWord(*ctrl, 0x1000 + 8 * i), 100u + i) << i;
}

TEST_P(BaselineContract, UncommittedTxDiscardedOnCrash)
{
    // Commit a base value first, then crash mid-overwrite.
    ctrl->txBegin(0, 0);
    store(*ctrl, 0, 0x2000, 1);
    ctrl->txEnd(0, 0);

    ctrl->txBegin(0, 0);
    for (unsigned i = 0; i < 12; ++i)
        store(*ctrl, 0, 0x2000 + 8 * i, 500 + i);
    ctrl->crash(); // no txEnd
    ctrl->recover(2);

    EXPECT_EQ(readWord(*ctrl, 0x2000), 1u);
    for (unsigned i = 1; i < 12; ++i)
        EXPECT_EQ(readWord(*ctrl, 0x2000 + 8 * i), 0u) << i;
}

TEST_P(BaselineContract, FillSeesCommittedData)
{
    ctrl->txBegin(0, 0);
    store(*ctrl, 0, 0x3000, 42);
    ctrl->txEnd(0, 0);
    // Background work retires the data to its readable location (for
    // HOOP the freshest copy otherwise lives in the cache hierarchy,
    // which this controller-level test does not model).
    ctrl->drain(0);
    std::uint8_t buf[kCacheLineSize];
    const FillResult fr = ctrl->fillLine(0, 0x3000, buf, 0);
    std::uint64_t v;
    std::memcpy(&v, buf, 8);
    EXPECT_EQ(v, 42u);
    EXPECT_GT(fr.completion, 0u);
}

TEST_P(BaselineContract, FillSeesOpenTxDataAfterEviction)
{
    // An open transaction's line is evicted from the LLC; a subsequent
    // fill must reconstruct the uncommitted data.
    ctrl->txBegin(0, 0);
    store(*ctrl, 0, 0x4000, 77);
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 77;
    std::memcpy(line, &v, 8);
    ctrl->evictLine(0, 0x4000, line, true, ctrl->currentTx(0), 0x01, 0);

    std::uint8_t buf[kCacheLineSize];
    ctrl->fillLine(0, 0x4000, buf, 0);
    std::uint64_t got;
    std::memcpy(&got, buf, 8);
    EXPECT_EQ(got, 77u);
    ctrl->txEnd(0, 0);
}

TEST_P(BaselineContract, SequentialTxsAccumulate)
{
    for (unsigned t = 0; t < 20; ++t) {
        ctrl->txBegin(0, 0);
        store(*ctrl, 0, 0x5000 + 8 * (t % 4), t);
        ctrl->txEnd(0, 0);
        ctrl->maintenance(cfg.gcPeriod * (t + 1));
    }
    ctrl->drain(0);
    EXPECT_EQ(readWord(*ctrl, 0x5000), 16u);
    EXPECT_EQ(readWord(*ctrl, 0x5008), 17u);
    EXPECT_EQ(readWord(*ctrl, 0x5010), 18u);
    EXPECT_EQ(readWord(*ctrl, 0x5018), 19u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, BaselineContract,
    ::testing::Values(Scheme::Hoop, Scheme::OptRedo, Scheme::OptUndo,
                      Scheme::Osp, Scheme::Lsm, Scheme::Lad),
    paramName);

// ---- Shared log machinery of the four log-backed baselines ----

/** The log ring of a compacting log baseline (redo, undo, LSM). */
LogRegion &
logOf(PersistenceController &c)
{
    if (auto *r = dynamic_cast<RedoController *>(&c))
        return r->log();
    if (auto *u = dynamic_cast<UndoController *>(&c))
        return u->log();
    return dynamic_cast<LsmController &>(c).log();
}

/** Log-backed baseline with runtime fault tolerance switched on. */
class LogBaseline : public ::testing::TestWithParam<Scheme>
{
  protected:
    static SystemConfig
    tolerantConfig()
    {
        SystemConfig c = baseConfig();
        c.ft.enabled = true;
        return c;
    }

    LogBaseline()
        : cfg(tolerantConfig()), nvm(cfg.nvmCapacity(), cfg.nvm),
          ctrl(makeController(GetParam(), nvm, cfg))
    {
        nvm.faults().setEcc(cfg.ft.eccCorrectBits);
        nvm.faults().setTransientFaults(cfg.ft.readRetryMax);
        nvm.setReadRetryPolicy(cfg.ft.readRetryMax,
                               cfg.ft.readRetryBackoff,
                               cfg.ft.eccCorrectCost);
    }

    SystemConfig cfg;
    NvmDevice nvm;
    std::unique_ptr<PersistenceController> ctrl;
};

TEST_P(LogBaseline, AdmissionRejectsOnceTheLogIsDegraded)
{
    // Any retired slot crosses this threshold.
    cfg.ft.rejectCapacityFraction = 1e-9;
    // Permanent damage over every free ring slot: the first scrub pass
    // retires the slots it patrols.
    for (const auto &[begin, end] : ctrl->freeMediaRanges())
        nvm.faults().addMediaFault(begin, end,
                                   MediaFaultKind::StuckAtZero, 1.0, 3);
    ctrl->scrub(0);
    ASSERT_GT(ctrl->sampleGauges().retiredUnits, 0u);
    ASSERT_GE(ctrl->sampleGauges().degradedFraction,
              cfg.ft.rejectCapacityFraction);

    const std::string scheme_log =
        GetParam() == Scheme::OptRedo   ? "redo log"
        : GetParam() == Scheme::OptUndo ? "undo log"
        : GetParam() == Scheme::Lsm     ? "lsm log"
                                        : "osp flip log";
    try {
        ctrl->txBegin(0, 0);
        FAIL() << "a degraded log admitted a transaction";
    } catch (const TxRejected &rj) {
        EXPECT_EQ(rj.cause, RejectCause::CapacityDegraded);
        EXPECT_EQ(std::string(rj.detail),
                  scheme_log + " degraded past the admission threshold "
                               "by bad-slot retirement");
    }
    EXPECT_EQ(ctrl->stats().value("tx_rejected"), 1u);
    EXPECT_FALSE(ctrl->inTx(0));
}

TEST_P(LogBaseline, OneScrubPassCountsOnePassAndOnePause)
{
    EXPECT_EQ(ctrl->stats().value("scrub_passes"), 0u);
    ASSERT_NE(ctrl->stats().findHistogram("scrub_pause_ticks"), nullptr);
    EXPECT_EQ(ctrl->stats().findHistogram("scrub_pause_ticks")->count(),
              0u);
    const Tick done = ctrl->scrub(1000);
    EXPECT_GE(done, 1000u);
    EXPECT_EQ(ctrl->stats().value("scrub_passes"), 1u);
    EXPECT_EQ(ctrl->stats().findHistogram("scrub_pause_ticks")->count(),
              1u);
}

INSTANTIATE_TEST_SUITE_P(LogSchemes, LogBaseline,
                         ::testing::Values(Scheme::OptRedo,
                                           Scheme::OptUndo, Scheme::Lsm,
                                           Scheme::Osp),
                         paramName);

/** Redo, undo and LSM compact their log once it passes 3/4 full. */
class LogPressure : public ::testing::TestWithParam<Scheme>
{
  protected:
    static SystemConfig
    smallLogConfig()
    {
        SystemConfig c = baseConfig();
        c.auxBytes = kiB(256);
        return c;
    }

    LogPressure()
        : cfg(smallLogConfig()), nvm(cfg.nvmCapacity(), cfg.nvm),
          ctrl(makeController(GetParam(), nvm, cfg))
    {
    }

    SystemConfig cfg;
    NvmDevice nvm;
    std::unique_ptr<PersistenceController> ctrl;
};

TEST_P(LogPressure, ThreeQuartersFullArmsPressureAndMaintenanceTruncates)
{
    LogRegion &log = logOf(*ctrl);
    unsigned tx = 0;
    while (log.size() * 4 < log.capacity() * 3) {
        EXPECT_FALSE(ctrl->maintenancePressure())
            << "armed at " << log.size() << " of " << log.capacity();
        ctrl->txBegin(0, 0);
        store(*ctrl, 0, 0x1000 + kCacheLineSize * (tx % 64), tx);
        ctrl->txEnd(0, 0);
        ++tx;
    }
    EXPECT_FALSE(log.full());
    EXPECT_TRUE(ctrl->maintenancePressure());

    // Well before the periodic trigger: only the occupancy fires.
    ctrl->maintenance(1);
    EXPECT_EQ(log.size(), 0u);
    EXPECT_FALSE(ctrl->maintenancePressure());
    EXPECT_EQ(ctrl->stats().value("log_backpressure_stalls"), 0u);
    const std::uint64_t last = tx - 1;
    EXPECT_EQ(readWord(*ctrl, 0x1000 + kCacheLineSize * (last % 64)),
              last);
}

INSTANTIATE_TEST_SUITE_P(CompactingSchemes, LogPressure,
                         ::testing::Values(Scheme::OptRedo,
                                           Scheme::OptUndo, Scheme::Lsm),
                         paramName);

// ---- Scheme-specific mechanics ----

TEST(RedoSpecifics, LogsAndCheckpoints)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    RedoController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x1000, 5);
    store(ctrl, 0, 0x1040, 6); // second line
    EXPECT_EQ(nvm.peekWord(0x1000), 0u); // nothing durable mid-tx
    ctrl.txEnd(0, 0);
    // Two data entries + one commit record, then the double write:
    // each logged line checkpointed home.
    EXPECT_EQ(ctrl.stats().value("log_entries"), 2u);
    EXPECT_EQ(ctrl.stats().value("commit_records"), 1u);
    EXPECT_EQ(ctrl.stats().value("checkpoint_writes"), 2u);
    EXPECT_EQ(nvm.peekWord(0x1000), 5u);
    EXPECT_EQ(nvm.peekWord(0x1040), 6u);

    ctrl.drain(0); // truncate retired entries
    EXPECT_EQ(ctrl.log().size(), 0u);
}

TEST(UndoSpecifics, OldImageCapturedBeforeUpdate)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    UndoController ctrl(nvm, cfg);

    nvm.pokeWord(0x2000, 11); // pre-existing committed value

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x2000, 22);
    // The undo entry must hold the OLD value.
    bool saw_image = false;
    ctrl.log().forEachLive([&](const LogEntry &e) {
        if (e.type == LogEntryType::UndoImage) {
            saw_image = true;
            EXPECT_EQ(e.words[0], 11u);
        }
    });
    EXPECT_TRUE(saw_image);
    ctrl.txEnd(0, 0);
    // In-place scheme: commit flushed the new value home.
    EXPECT_EQ(nvm.peekWord(0x2000), 22u);
}

TEST(UndoSpecifics, RollbackRestoresOldValues)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    UndoController ctrl(nvm, cfg);
    nvm.pokeWord(0x3000, 1);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x3000, 2);
    // Simulate the in-place eviction reaching home before the crash.
    std::uint8_t line[kCacheLineSize] = {};
    std::uint64_t v = 2;
    std::memcpy(line, &v, 8);
    ctrl.evictLine(0, 0x3000, line, true, ctrl.currentTx(0), 0x01, 0);
    EXPECT_EQ(nvm.peekWord(0x3000), 2u); // uncommitted data in place

    ctrl.crash();
    ctrl.recover(1);
    EXPECT_EQ(nvm.peekWord(0x3000), 1u); // rolled back
}

TEST(OspSpecifics, ShadowFlipAlternates)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    OspController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x4000, 1);
    ctrl.txEnd(0, 0);
    EXPECT_TRUE(ctrl.shadowIsCurrent(0x4000));
    EXPECT_EQ(readWord(ctrl, 0x4000), 1u);
    // The original copy still holds the old (zero) data.
    EXPECT_EQ(nvm.peekWord(0x4000), 0u);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x4000, 2);
    ctrl.txEnd(0, 0);
    EXPECT_FALSE(ctrl.shadowIsCurrent(0x4000)); // flipped back
    EXPECT_EQ(nvm.peekWord(0x4000), 2u);
    EXPECT_EQ(ctrl.stats().value("tlb_shootdowns"), 2u);
}

TEST(OspSpecifics, SelectorSurvivesCrash)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    OspController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x5000, 9);
    ctrl.txEnd(0, 0);
    ctrl.crash();
    ctrl.recover(1);
    EXPECT_TRUE(ctrl.shadowIsCurrent(0x5000));
    EXPECT_EQ(readWord(ctrl, 0x5000), 9u);
}

TEST(LsmSpecifics, LoadsPayIndexWalk)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    LsmController ctrl(nvm, cfg);
    const Tick cost = ctrl.loadOverhead(0, 0x1000, 0);
    EXPECT_GE(cost, cfg.dramLatency);
    EXPECT_EQ(ctrl.stats().value("index_walks"), 1u);
}

TEST(LsmSpecifics, GcMigratesAndEmptiesIndex)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    LsmController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x6000, 3);
    ctrl.txEnd(0, 0);
    EXPECT_EQ(ctrl.index().size(), 1u);
    EXPECT_EQ(nvm.peekWord(0x6000), 0u);

    ctrl.drain(0);
    EXPECT_EQ(ctrl.index().size(), 0u);
    EXPECT_EQ(nvm.peekWord(0x6000), 3u);
    EXPECT_EQ(ctrl.log().size(), 0u);
}

TEST(LadSpecifics, CommitDrainsQueueImmediately)
{
    SystemConfig cfg = baseConfig();
    NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
    LadController ctrl(nvm, cfg);

    ctrl.txBegin(0, 0);
    store(ctrl, 0, 0x7000, 8);
    EXPECT_EQ(nvm.peekWord(0x7000), 0u); // staged only
    const Tick done = ctrl.txEnd(0, 1000);
    EXPECT_EQ(nvm.peekWord(0x7000), 8u); // persisted at commit
    // Commit persists one line at cache-line granularity: roughly one
    // NVM write latency, with no log writes on top.
    EXPECT_GE(done - 1000, cfg.nvm.writeLatency);
    EXPECT_LT(done - 1000, 2 * cfg.nvm.writeLatency);
}

TEST(TrafficShape, LoggingSchemesWriteMoreThanHoop)
{
    // One representative scenario: many small transactions updating a
    // few hot words. HOOP's packing + coalescing must beat both
    // logging baselines on bytes written (the Fig. 8 direction).
    auto run = [](Scheme s) {
        SystemConfig cfg = baseConfig();
        NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
        auto ctrl = makeController(s, nvm, cfg);
        for (unsigned t = 0; t < 200; ++t) {
            ctrl->txBegin(0, 0);
            for (unsigned i = 0; i < 4; ++i)
                store(*ctrl, 0, 0x8000 + 8 * ((t + i) % 16), t + i);
            ctrl->txEnd(0, 0);
        }
        ctrl->drain(0);
        return nvm.bytesWritten();
    };

    const auto hoop = run(Scheme::Hoop);
    const auto redo = run(Scheme::OptRedo);
    const auto undo = run(Scheme::OptUndo);
    EXPECT_GT(redo, hoop);
    EXPECT_GT(undo, hoop);
}

} // namespace
} // namespace hoopnvm
