/**
 * @file
 * Tests for the shared greedy shrinker (check/shrink.hh) on a toy
 * spec: candidate order, restart after a success, the run budget, and
 * the halveField mutator's floor.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/shrink.hh"

namespace hoopnvm
{
namespace
{

struct Toy
{
    int a = 0;
    int b = 0;
};

std::string
str(const Toy &t)
{
    return std::to_string(t.a) + "," + std::to_string(t.b);
}

ShrinkMutator<Toy>
decrement(int Toy::*field)
{
    return [field](const Toy &t) -> std::vector<Toy> {
        if (t.*field == 0)
            return {};
        Toy cand = t;
        --(cand.*field);
        return {cand};
    };
}

TEST(GreedyShrink, TriesCandidatesInOrderAndRestartsAfterASuccess)
{
    std::vector<std::string> runs;
    // Still "violates" while both fields are non-zero.
    auto run = [&runs](const Toy &t) {
        runs.push_back(str(t));
        return t.a > 0 && t.b > 0;
    };
    const Toy best = greedyShrink(
        Toy{2, 2}, 100, run, {decrement(&Toy::a), decrement(&Toy::b)});

    EXPECT_EQ(str(best), "1,1");
    // (1,2) succeeds, so the search restarts with the a-mutator: (0,2)
    // fails and only then does the b-mutator get its turn. After (1,1)
    // succeeds the a-mutator runs first again; a full pass with no
    // success ends the search.
    const std::vector<std::string> want = {"1,2", "0,2", "1,1", "0,1",
                                           "1,0"};
    EXPECT_EQ(runs, want);
}

TEST(GreedyShrink, TriesOneMutatorsCandidatesInOrder)
{
    std::vector<std::string> runs;
    auto run = [&runs](const Toy &t) {
        runs.push_back(str(t));
        return t.b == 7;
    };
    const ShrinkMutator<Toy> fan = [](const Toy &t) -> std::vector<Toy> {
        if (t.a == 0)
            return {};
        return {Toy{0, 5}, Toy{0, 6}, Toy{0, 7}, Toy{0, 8}};
    };
    const Toy best = greedyShrink(Toy{1, 0}, 100, run, {fan});

    EXPECT_EQ(str(best), "0,7");
    const std::vector<std::string> want = {"0,5", "0,6", "0,7"};
    EXPECT_EQ(runs, want);
}

TEST(GreedyShrink, StopsAfterExactlyBudgetRuns)
{
    const ShrinkMutator<Toy> endless = [](const Toy &t) {
        return std::vector<Toy>(3, Toy{t.a + 1, t.b});
    };

    // Every candidate still violates: each run is a success.
    int runs = 0;
    Toy best = greedyShrink(
        Toy{}, 5,
        [&runs](const Toy &) {
            ++runs;
            return true;
        },
        {endless});
    EXPECT_EQ(runs, 5);
    EXPECT_EQ(best.a, 5);

    // No candidate violates: the budget still bounds the search.
    runs = 0;
    best = greedyShrink(
        Toy{}, 2,
        [&runs](const Toy &) {
            ++runs;
            return false;
        },
        {endless});
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(best.a, 0);
}

TEST(GreedyShrink, HalveFieldStopsAtItsFloor)
{
    const ShrinkMutator<Toy> halveA = halveField(&Toy::a, 3);
    ASSERT_EQ(halveA(Toy{7, 1}).size(), 1u);
    EXPECT_EQ(str(halveA(Toy{7, 1}).front()), "3,1");
    EXPECT_EQ(str(halveA(Toy{4, 1}).front()), "3,1");
    EXPECT_TRUE(halveA(Toy{3, 1}).empty());

    const ShrinkMutator<Toy> halveB = halveField(&Toy::b);
    EXPECT_EQ(str(halveB(Toy{0, 1}).front()), "0,0");
    EXPECT_TRUE(halveB(Toy{0, 0}).empty());
}

} // namespace
} // namespace hoopnvm
