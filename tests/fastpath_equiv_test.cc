/**
 * @file
 * Differential harness for the simulation fast paths: every run with
 * cfg.fastPath = true (batched line-granularity range access, skipped
 * redundant coherence work, event-driven maintenance polls, tracker-
 * based next-core selection) must be *bit-identical* to the reference
 * engine with cfg.fastPath = false — the fast path is an execution-
 * strategy change, not a model change.
 *
 * "Bit-identical" is checked at full depth over the scheme × workload
 * matrix: every counter and histogram bucket of every component
 * (system, hierarchy, each cache, controller, NVM device), the epoch
 * sample ring including sample ticks, and all RunMetrics fields.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "hoop/hoop_controller.hh"
#include "metrics_equal.hh"
#include "sim/system.hh"
#include "stats/histogram.hh"
#include "stats/stat_set.hh"
#include "workloads/registry.hh"

using namespace hoopnvm;

namespace
{

/** Small machine that still exercises evictions, GC and sampling. */
SystemConfig
testConfig(bool fast_path)
{
    SystemConfig cfg;
    cfg.numCores = 4;
    cfg.cache.l1Size = kiB(4);
    cfg.cache.l2Size = kiB(16);
    cfg.cache.llcSize = kiB(32);
    cfg.homeBytes = miB(16);
    cfg.oopBytes = miB(4);
    cfg.auxBytes = miB(20);
    cfg.mappingTableBytes = kiB(256);
    cfg.evictionBufferBytes = kiB(32);
    cfg.oopBlockBytes = kiB(256);
    cfg.gcPeriod = nsToTicks(2e5);
    cfg.epochSamplePeriod = nsToTicks(5e3);
    cfg.epochRingCapacity = 64;
    cfg.fastPath = fast_path;
    return cfg;
}

void
expectStatsEqual(const StatSet &fast, const StatSet &ref,
                 const std::string &what)
{
    ASSERT_EQ(fast.counters().size(), ref.counters().size()) << what;
    for (const auto &kv : fast.counters()) {
        ASSERT_TRUE(ref.counters().contains(kv.first))
            << what << "." << kv.first;
        EXPECT_EQ(kv.second.value(),
                  ref.counters().at(kv.first).value())
            << what << "." << kv.first;
    }
    ASSERT_EQ(fast.histograms().size(), ref.histograms().size())
        << what;
    for (const auto &kv : fast.histograms()) {
        ASSERT_TRUE(ref.histograms().contains(kv.first))
            << what << "." << kv.first;
        const Histogram &hf = kv.second;
        const Histogram &hr = ref.histograms().at(kv.first);
        EXPECT_EQ(hf.count(), hr.count()) << what << "." << kv.first;
        EXPECT_EQ(hf.sum(), hr.sum()) << what << "." << kv.first;
        EXPECT_EQ(hf.min(), hr.min()) << what << "." << kv.first;
        EXPECT_EQ(hf.max(), hr.max()) << what << "." << kv.first;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
            ASSERT_EQ(hf.bucketCount(i), hr.bucketCount(i))
                << what << "." << kv.first << " bucket " << i;
        }
    }
}

/** Run one cell (scheme × workload × engine) to completion. */
struct CellResult
{
    RunMetrics metrics;
    bool verified = false;
    std::unique_ptr<System> sys; // kept alive for stat comparison
};

CellResult
runCell(Scheme scheme, const std::string &workload, bool fast_path,
        SystemConfig cfg)
{
    cfg.fastPath = fast_path;
    WorkloadParams p;
    p.valueBytes = 128;
    p.scale = 512;
    CellResult out;
    out.sys = std::make_unique<System>(cfg, scheme);
    const RunOutcome o =
        runWorkload(*out.sys, makeWorkload(workload, p), 100);
    out.metrics = o.metrics;
    out.verified = o.verified;
    return out;
}

void
compareCell(Scheme scheme, const std::string &workload,
            const SystemConfig &cfg)
{
    const std::string what =
        std::string(schemeName(scheme)) + "/" + workload;
    CellResult fast = runCell(scheme, workload, true, cfg);
    CellResult ref = runCell(scheme, workload, false, cfg);
    EXPECT_TRUE(fast.verified) << what;
    EXPECT_TRUE(ref.verified) << what;

    test::expectIdenticalMetrics(fast.metrics, ref.metrics, what);

    System &sf = *fast.sys;
    System &sr = *ref.sys;
    EXPECT_EQ(sf.committedTx(), sr.committedTx()) << what;
    EXPECT_EQ(sf.criticalPathSum(), sr.criticalPathSum()) << what;
    EXPECT_EQ(sf.minClock(), sr.minClock()) << what;
    EXPECT_EQ(sf.maxClock(), sr.maxClock()) << what;
    expectStatsEqual(sf.stats(), sr.stats(), what + ".system");
    expectStatsEqual(sf.caches().stats(), sr.caches().stats(),
                     what + ".hierarchy");
    expectStatsEqual(sf.caches().llc().stats(),
                     sr.caches().llc().stats(), what + ".llc");
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        expectStatsEqual(sf.caches().l1(c).stats(),
                         sr.caches().l1(c).stats(),
                         what + ".l1." + std::to_string(c));
        expectStatsEqual(sf.caches().l2(c).stats(),
                         sr.caches().l2(c).stats(),
                         what + ".l2." + std::to_string(c));
    }
    expectStatsEqual(sf.controller().stats(), sr.controller().stats(),
                     what + ".controller");
    if (scheme == Scheme::Hoop) {
        expectStatsEqual(
            static_cast<HoopController &>(sf.controller()).gc().stats(),
            static_cast<HoopController &>(sr.controller()).gc().stats(),
            what + ".gc");
    }
    EXPECT_EQ(sf.nvm().bytesWritten(), sr.nvm().bytesWritten()) << what;
    EXPECT_EQ(sf.nvm().bytesRead(), sr.nvm().bytesRead()) << what;
}

} // namespace

// One test per workload keeps failures attributable and lets ctest
// parallelize the matrix.

TEST(FastPathEquivalence, AllSchemesVector)
{
    for (Scheme s : kAllSchemes)
        compareCell(s, "vector", testConfig(true));
}

TEST(FastPathEquivalence, AllSchemesHashmap)
{
    for (Scheme s : kAllSchemes)
        compareCell(s, "hashmap", testConfig(true));
}

TEST(FastPathEquivalence, AllSchemesQueue)
{
    for (Scheme s : kAllSchemes)
        compareCell(s, "queue", testConfig(true));
}

// Media-fault tolerance on: the scrubber's event-driven scheduling and
// the ECC/retry counters must stay bit-identical too. HOOP plus one
// log baseline cover the two scrub implementations.
TEST(FastPathEquivalence, FaultToleranceScrubPath)
{
    SystemConfig cfg = testConfig(true);
    cfg.ft.enabled = true;
    cfg.ft.scrubPeriod = nsToTicks(50e3);
    for (Scheme s : {Scheme::Hoop, Scheme::OptRedo})
        compareCell(s, "vector", cfg);
}

// GC disabled: allocation backpressure runs GC on demand inside the
// store path instead of via maintenance — the poll-skip logic must not
// change when the period trigger is absent.
TEST(FastPathEquivalence, OnDemandGcPath)
{
    SystemConfig cfg = testConfig(true);
    cfg.gcEnabled = false;
    compareCell(Scheme::Hoop, "vector", cfg);
}
