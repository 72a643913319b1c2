/**
 * @file
 * Tests for the media-fault soak harness's replayable spec: exact JSON
 * round-trips (a reproducer must replay the experiment it was written
 * from) and greedy shrinking of a violating cell.
 */

#include <gtest/gtest.h>

#include "check/soak.hh"

namespace hoopnvm
{
namespace
{

void
expectSameSpec(const SoakSpec &a, const SoakSpec &b)
{
    EXPECT_EQ(a.scheme, b.scheme);
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.numCores, b.numCores);
    EXPECT_EQ(a.warmupTx, b.warmupTx);
    EXPECT_EQ(a.phases, b.phases);
    EXPECT_EQ(a.txPerPhase, b.txPerPhase);
    EXPECT_EQ(a.faultProb, b.faultProb);
    EXPECT_EQ(a.escalation, b.escalation);
    EXPECT_EQ(a.recoverThreads, b.recoverThreads);
}

TEST(SoakSpec, JsonRoundTripIsFieldExact)
{
    SoakSpec s;
    s.scheme = Scheme::Lad;
    s.workload = "rbtree";
    s.seed = 987654321;
    s.numCores = 3;
    s.warmupTx = 11;
    s.phases = 5;
    s.txPerPhase = 33;
    // Values a six-decimal formatter loses: a tiny base probability
    // and the product a 1.3x escalation ramp produces.
    s.faultProb = 0.01 * 1.3 * 1.3 * 1.3;
    s.escalation = 1.3;
    s.recoverThreads = 4;

    SoakSpec r;
    std::string err;
    ASSERT_TRUE(SoakSpec::fromJson(s.toJson(), &r, &err)) << err;
    expectSameSpec(s, r);

    s.faultProb = 1e-7;
    ASSERT_TRUE(SoakSpec::fromJson(s.toJson(), &r, &err)) << err;
    EXPECT_EQ(r.faultProb, 1e-7);
}

TEST(SoakSpec, RejectsMalformedInput)
{
    SoakSpec out;
    std::string err;
    EXPECT_FALSE(SoakSpec::fromJson("{\"bogus\": 1}", &out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(SoakSpec::fromJson("{\"scheme\": \"nope\"}", &out, &err));
    EXPECT_FALSE(SoakSpec::fromJson("{\"phases\": x}", &out, &err));
}

TEST(SoakShrink, ShrinksAViolatingCellToAReplayableSpec)
{
    // Under a fault ramp this steep (45% of free words faulty in phase
    // 0) hoop/vector fails the post-recovery oracle; the harness must
    // shrink the cell to a reproducer that replays the violation.
    SoakSpec spec;
    spec.scheme = Scheme::Hoop;
    spec.workload = "vector";
    spec.phases = 4;
    spec.txPerPhase = 20;
    spec.faultProb = 0.45;
    spec.escalation = 1.3;
    ASSERT_TRUE(runSoak(spec).violated);

    std::string detail;
    const SoakSpec repro = shrinkSoak(spec, &detail);
    EXPECT_FALSE(detail.empty());
    // Halving the phases folds the dropped ramp steps into the base
    // probability; the window shrinks until the next halving is clean.
    EXPECT_EQ(repro.phases, 2u);
    EXPECT_EQ(repro.faultProb, 0.45 * 1.3 * 1.3);
    EXPECT_EQ(repro.txPerPhase, 5u);
    EXPECT_EQ(repro.warmupTx, 10u);

    SoakSpec parsed;
    std::string err;
    ASSERT_TRUE(SoakSpec::fromJson(repro.toJson(), &parsed, &err)) << err;
    expectSameSpec(repro, parsed);
    EXPECT_TRUE(runSoak(parsed).violated)
        << "shrunk reproducer must replay the violation";
}

} // namespace
} // namespace hoopnvm
