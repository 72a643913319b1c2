/**
 * @file
 * Tests for the sharded fleet harness: deterministic arrival streams
 * (bit-identical generated serially or from a worker pool), the
 * shared client retry/backoff/deadline policy, chaos profile
 * expansion, clean fleet runs under chaos with every request ending
 * in a structured outcome, spec JSON round-trips, and the seeded
 * ack-before-durable self-test (the oracles must be able to fail).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "fleet/arrivals.hh"
#include "fleet/chaos.hh"
#include "fleet/client_policy.hh"
#include "fleet/fleet.hh"

namespace hoopnvm
{
namespace
{

using bench::CellRunner;

// ---------------------------------------------------------------
// Arrival generator
// ---------------------------------------------------------------

std::vector<Arrival>
generate(const ArrivalConfig &cfg, std::size_t n)
{
    ArrivalGenerator gen(cfg);
    std::vector<Arrival> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(gen.next());
    return out;
}

void
expectIdenticalStreams(const std::vector<Arrival> &a,
                       const std::vector<Arrival> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("arrival " + std::to_string(i));
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_EQ(a[i].connection, b[i].connection);
        EXPECT_EQ(a[i].seq, b[i].seq);
    }
}

TEST(ArrivalStream, DeterministicForAGivenSeed)
{
    ArrivalConfig cfg;
    cfg.seed = 7;
    expectIdenticalStreams(generate(cfg, 500), generate(cfg, 500));

    ArrivalConfig other = cfg;
    other.seed = 8;
    const auto a = generate(cfg, 500);
    const auto b = generate(other, 500);
    bool differs = false;
    for (std::size_t i = 0; i < a.size() && !differs; ++i)
        differs = a[i].at != b[i].at || a[i].tenant != b[i].tenant;
    EXPECT_TRUE(differs) << "seed must matter";
}

TEST(ArrivalStream, RespectsThinkTimePerConnection)
{
    ArrivalConfig cfg;
    cfg.seed = 11;
    cfg.thinkTicks = nsToTicks(5'000);
    cfg.churnProb = 0.0; // stable connections: the constraint is exact
    cfg.connections = 4;
    std::map<std::uint64_t, Tick> lastAt;
    for (const Arrival &a : generate(cfg, 800)) {
        auto it = lastAt.find(a.connection);
        if (it != lastAt.end()) {
            EXPECT_GE(a.at, it->second + cfg.thinkTicks)
                << "connection " << a.connection;
        }
        lastAt[a.connection] = a.at;
    }
}

TEST(ArrivalStream, ChurnMintsFreshConnections)
{
    ArrivalConfig cfg;
    cfg.seed = 13;
    cfg.connections = 4;
    cfg.churnProb = 0.5;
    std::uint64_t maxConn = 0;
    for (const Arrival &a : generate(cfg, 400))
        maxConn = std::max(maxConn, a.connection);
    // With aggressive churn the connection id space must grow far
    // past the initial slot count.
    EXPECT_GT(maxConn, 50u);

    // Sequence numbers are dense and ordered regardless of churn.
    const auto arr = generate(cfg, 400);
    for (std::size_t i = 0; i < arr.size(); ++i)
        EXPECT_EQ(arr[i].seq, i);
}

TEST(ArrivalStream, SkewsTenantsZipfian)
{
    ArrivalConfig cfg;
    cfg.seed = 17;
    cfg.tenants = 64;
    cfg.tenantTheta = 0.99;
    std::vector<std::uint64_t> counts(cfg.tenants, 0);
    for (const Arrival &a : generate(cfg, 4000))
        ++counts[a.tenant];
    // The hottest tenant must dominate the median tenant decisively.
    std::vector<std::uint64_t> sorted = counts;
    std::sort(sorted.rbegin(), sorted.rend());
    EXPECT_GT(sorted[0], 10 * std::max<std::uint64_t>(1, sorted[32]));
}

// The determinism property the fleet matrix relies on: a stream
// generated on a worker pool is bit-identical to one generated
// serially — the generator is a pure function of its config.
TEST(ArrivalStream, BitIdenticalSeriallyAndOnWorkerPool)
{
    constexpr std::size_t kStreams = 6;
    constexpr std::size_t kLen = 400;

    std::vector<std::vector<Arrival>> serial(kStreams);
    for (std::size_t s = 0; s < kStreams; ++s) {
        ArrivalConfig cfg;
        cfg.seed = 1000 + s;
        cfg.churnProb = 0.1;
        serial[s] = generate(cfg, kLen);
    }

    std::vector<std::vector<Arrival>> pooled(kStreams);
    CellRunner runner(4);
    for (std::size_t s = 0; s < kStreams; ++s) {
        runner.add("stream" + std::to_string(s), [&pooled, s] {
            ArrivalConfig cfg;
            cfg.seed = 1000 + s;
            cfg.churnProb = 0.1;
            pooled[s] = generate(cfg, kLen);
        });
    }
    runner.run();

    for (std::size_t s = 0; s < kStreams; ++s) {
        SCOPED_TRACE("stream " + std::to_string(s));
        expectIdenticalStreams(serial[s], pooled[s]);
    }
}

// ---------------------------------------------------------------
// Client policy
// ---------------------------------------------------------------

TEST(ClientPolicy, ClassifiesRejectCauses)
{
    EXPECT_EQ(classifyReject({RejectCause::CapacityDegraded, ""}),
              RejectAction::AdmissionSkip);
    EXPECT_EQ(classifyReject({RejectCause::OopExhausted, ""}),
              RejectAction::CrashRecover);
    EXPECT_EQ(classifyReject({RejectCause::LogExhausted, ""}),
              RejectAction::CrashRecover);
}

TEST(ClientPolicy, BackoffGrowsExponentiallyWithBoundedJitter)
{
    RetryPolicy p;
    p.backoffBase = 1000;
    p.backoffMultiplier = 2.0;
    p.jitterFraction = 0.5;
    Rng rng(99);
    for (unsigned retry = 0; retry < 8; ++retry) {
        const double nominal = 1000.0 * std::pow(2.0, retry);
        const Tick b = retryBackoffTicks(p, retry, rng);
        EXPECT_GE(static_cast<double>(b), 0.5 * nominal - 1)
            << "retry " << retry;
        EXPECT_LE(static_cast<double>(b), 1.5 * nominal + 1)
            << "retry " << retry;
    }
    // Deterministic: same RNG stream position, same draw.
    Rng r1(7), r2(7);
    EXPECT_EQ(retryBackoffTicks(p, 3, r1), retryBackoffTicks(p, 3, r2));
    // Never zero, even with a tiny base.
    p.backoffBase = 1;
    p.jitterFraction = 1.0;
    Rng r3(1);
    for (int i = 0; i < 64; ++i)
        EXPECT_GE(retryBackoffTicks(p, 0, r3), 1u);
}

TEST(ClientPolicy, DeadlineSemantics)
{
    RetryPolicy p;
    p.deadlineTicks = 100;
    EXPECT_FALSE(pastDeadline(p, 1000, 1100)); // exactly at: not past
    EXPECT_TRUE(pastDeadline(p, 1000, 1101));
    p.deadlineTicks = 0; // disabled
    EXPECT_FALSE(pastDeadline(p, 0, kNeverTick - 1));
}

// ---------------------------------------------------------------
// Chaos profiles
// ---------------------------------------------------------------

TEST(ChaosProfile, ExpansionIsDeterministicSortedAndCovering)
{
    ChaosTuning tuning;
    tuning.eventsPerShard = 3;
    const Tick horizon = nsToTicks(1e6);
    const auto a = expandChaosProfile("mixed", 4, horizon, 5, tuning);
    const auto b = expandChaosProfile("mixed", 4, horizon, 5, tuning);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.size(), 12u);
    std::vector<unsigned> perShard(4, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].shard, b[i].shard);
        EXPECT_EQ(a[i].kind, b[i].kind);
        if (i > 0) {
            EXPECT_GE(a[i].at, a[i - 1].at) << "sorted by time";
        }
        // Events land inside the horizon, clear of both edges.
        EXPECT_GE(a[i].at, horizon / 8);
        EXPECT_LT(a[i].at, horizon);
        ++perShard[a[i].shard];
    }
    for (unsigned s = 0; s < 4; ++s)
        EXPECT_EQ(perShard[s], 3u) << "shard " << s;

    EXPECT_TRUE(
        expandChaosProfile("none", 4, horizon, 5, tuning).empty());
}

TEST(ChaosProfile, SingleKindProfilesExpandTheirKind)
{
    ChaosTuning tuning;
    tuning.eventsPerShard = 2;
    const Tick horizon = nsToTicks(1e6);
    for (const auto &[profile, kind] :
         std::vector<std::pair<std::string, ChaosKind>>{
             {"crashes", ChaosKind::Crash},
             {"stalls", ChaosKind::Stall},
             {"faults", ChaosKind::FaultRamp}}) {
        SCOPED_TRACE(profile);
        for (const ChaosEvent &ev :
             expandChaosProfile(profile, 3, horizon, 9, tuning)) {
            EXPECT_EQ(ev.kind, kind);
            if (kind == ChaosKind::Stall) {
                EXPECT_GT(ev.durationTicks, 0u);
            }
            if (kind == ChaosKind::FaultRamp) {
                EXPECT_GT(ev.faultProb, 0.0);
            }
        }
    }
}

// ---------------------------------------------------------------
// Fleet spec JSON
// ---------------------------------------------------------------

TEST(FleetSpec, JsonRoundTripIsExact)
{
    FleetSpec spec;
    spec.scheme = Scheme::OptRedo;
    spec.workload = "hashmap";
    spec.chaosProfile = "stalls";
    spec.seed = 1234567;
    spec.shards = 6;
    spec.coresPerShard = 3;
    spec.requests = 321;
    spec.warmupTx = 7;
    spec.recoverThreads = 5;
    spec.maxAttempts = 9;
    spec.tenants = 31;
    spec.connections = 12;
    spec.chaosEventsPerShard = 4;
    // Doubles a six-decimal formatter loses or rounds.
    spec.backoffBaseNs = 1234.5678901234;
    spec.deadlineNs = 1.0 / 3.0 * 1e7;
    spec.meanInterarrivalNs = 0.1 + 0.2;
    spec.thinkNs = 2e-3;
    spec.tenantTheta = 0.9876543210123;
    spec.churnProb = 1e-7;
    spec.faultProb = 0.01 * 1.3 * 1.3 * 1.3;
    spec.injectAckBeforeDurable = true;

    FleetSpec back;
    std::string err;
    ASSERT_TRUE(FleetSpec::fromJson(spec.toJson(), &back, &err))
        << err;
    EXPECT_EQ(spec.toJson(), back.toJson());
    EXPECT_EQ(back.scheme, Scheme::OptRedo);
    EXPECT_EQ(back.workload, "hashmap");
    EXPECT_EQ(back.chaosProfile, "stalls");
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.shards, 6u);
    EXPECT_EQ(back.coresPerShard, spec.coresPerShard);
    EXPECT_EQ(back.requests, spec.requests);
    EXPECT_EQ(back.warmupTx, spec.warmupTx);
    EXPECT_EQ(back.recoverThreads, spec.recoverThreads);
    EXPECT_EQ(back.maxAttempts, spec.maxAttempts);
    EXPECT_EQ(back.backoffBaseNs, spec.backoffBaseNs);
    EXPECT_EQ(back.deadlineNs, spec.deadlineNs);
    EXPECT_EQ(back.meanInterarrivalNs, spec.meanInterarrivalNs);
    EXPECT_EQ(back.thinkNs, spec.thinkNs);
    EXPECT_EQ(back.tenants, spec.tenants);
    EXPECT_EQ(back.tenantTheta, spec.tenantTheta);
    EXPECT_EQ(back.connections, spec.connections);
    EXPECT_EQ(back.churnProb, spec.churnProb);
    EXPECT_EQ(back.chaosEventsPerShard, spec.chaosEventsPerShard);
    EXPECT_EQ(back.faultProb, spec.faultProb);
    EXPECT_TRUE(back.injectAckBeforeDurable);
}

TEST(FleetSpec, RejectsMalformedInput)
{
    FleetSpec out;
    std::string err;
    EXPECT_FALSE(FleetSpec::fromJson("{\"bogus\": 1}", &out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(FleetSpec::fromJson(
        "{\"chaos_profile\": \"tornado\"}", &out, &err));
    EXPECT_FALSE(
        FleetSpec::fromJson("{\"scheme\": \"hoop\"", &out, &err));
}

// ---------------------------------------------------------------
// Fleet runs
// ---------------------------------------------------------------

FleetSpec
smallFleetSpec()
{
    FleetSpec spec;
    spec.scheme = Scheme::Hoop;
    spec.workload = "vector";
    spec.chaosProfile = "mixed";
    spec.seed = 42;
    spec.shards = 3;
    spec.coresPerShard = 2;
    spec.requests = 250;
    spec.warmupTx = 6;
    return spec;
}

void
expectOutcomesPartitionRequests(const FleetResult &r)
{
    EXPECT_EQ(r.acked + r.rejected + r.timedOut + r.shed, r.requests);
}

TEST(FleetRun, CleanUnderMixedChaos)
{
    const FleetResult r = runFleet(smallFleetSpec());
    EXPECT_FALSE(r.violated) << r.detail;
    expectOutcomesPartitionRequests(r);
    EXPECT_GT(r.acked, 0u);
    // The mixed profile actually exercised every fault domain knob.
    EXPECT_GT(r.chaosCrashes + r.stallWindows + r.faultRamps, 0u);
    ASSERT_EQ(r.shards.size(), 3u);
    for (const FleetShardReport &sh : r.shards) {
        SCOPED_TRACE("shard " + std::to_string(sh.shard));
        EXPECT_TRUE(sh.admittingAtEnd);
        // Probe phase guarantees every shard served at the end.
        EXPECT_GT(sh.counters.acked, 0u);
    }
    // Fleet latency is the merge of per-shard histograms.
    std::uint64_t perShard = 0;
    for (const FleetShardReport &sh : r.shards)
        perShard += sh.latency.count;
    EXPECT_EQ(r.latency.count, perShard);
    EXPECT_GT(r.latency.count, 0u);
    EXPECT_GE(r.latency.p999Ns, r.latency.p99Ns);
}

TEST(FleetRun, DeterministicRunToRun)
{
    const FleetResult a = runFleet(smallFleetSpec());
    const FleetResult b = runFleet(smallFleetSpec());
    EXPECT_EQ(a.violated, b.violated);
    EXPECT_EQ(a.acked, b.acked);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.retryAttempts, b.retryAttempts);
    EXPECT_EQ(a.backoffTicks, b.backoffTicks);
    EXPECT_EQ(a.recoveries, b.recoveries);
    EXPECT_EQ(a.latency.count, b.latency.count);
    EXPECT_EQ(a.latency.p50Ns, b.latency.p50Ns);
    EXPECT_EQ(a.latency.p999Ns, b.latency.p999Ns);
    ASSERT_EQ(a.shards.size(), b.shards.size());
    for (std::size_t s = 0; s < a.shards.size(); ++s) {
        EXPECT_EQ(a.shards[s].counters.acked,
                  b.shards[s].counters.acked);
        EXPECT_EQ(a.shards[s].counters.recoveries,
                  b.shards[s].counters.recoveries);
        EXPECT_EQ(a.shards[s].latency.p99Ns, b.shards[s].latency.p99Ns);
    }
}

// Fleet tails go through the benches' summarizer: with fewer than 1000
// samples p999 is the exact max, and the summary must say so.
TEST(FleetRun, UnderPopulatedTailsAreMarkedSaturated)
{
    FleetSpec spec = smallFleetSpec();
    spec.chaosProfile = "none";
    const FleetResult r = runFleet(spec);
    ASSERT_FALSE(r.violated) << r.detail;
    ASSERT_GT(r.latency.count, 0u);
    ASSERT_LT(r.latency.count, 1000u);
    EXPECT_TRUE(r.latency.p999Saturated);
    EXPECT_EQ(r.latency.p999Ns, r.latency.maxNs);
    for (const FleetShardReport &sh : r.shards) {
        ASSERT_GT(sh.latency.count, 0u);
        EXPECT_TRUE(sh.latency.p999Saturated);
    }
}

TEST(FleetRun, CrashProfileRecoversOnlineWithoutLoss)
{
    FleetSpec spec = smallFleetSpec();
    spec.chaosProfile = "crashes";
    spec.chaosEventsPerShard = 2;
    const FleetResult r = runFleet(spec);
    EXPECT_FALSE(r.violated) << r.detail;
    expectOutcomesPartitionRequests(r);
    // Every shard crashed and recovered at least once, mid-traffic.
    EXPECT_GE(r.chaosCrashes, 3u);
    EXPECT_GE(r.recoveries, r.chaosCrashes);
    EXPECT_GT(r.acked, 0u);
}

TEST(FleetRun, SelfTestDetectsAckBeforeDurable)
{
    FleetSpec spec = smallFleetSpec();
    spec.chaosProfile = "crashes";
    spec.injectAckBeforeDurable = true;
    spec.requests = 400;
    const FleetResult r = runFleet(spec);
    EXPECT_TRUE(r.violated)
        << "seeded ack-before-durable bug must be detected";
    EXPECT_NE(r.detail.find("shard 0"), std::string::npos)
        << "violation must implicate the buggy shard: " << r.detail;

    // The shrunk reproducer must still violate after a JSON
    // round-trip — that is what --replay consumes.
    std::string detail;
    const FleetSpec repro = shrinkFleet(spec, &detail);
    EXPECT_LE(repro.requests, spec.requests);
    FleetSpec parsed;
    std::string err;
    ASSERT_TRUE(FleetSpec::fromJson(repro.toJson(), &parsed, &err))
        << err;
    const FleetResult again = runFleet(parsed);
    EXPECT_TRUE(again.violated)
        << "shrunk reproducer must replay the violation";
}

} // namespace
} // namespace hoopnvm
