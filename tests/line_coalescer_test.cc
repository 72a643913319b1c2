/**
 * @file
 * Unit tests for the line coalescer shared by GC and recovery: its
 * output must equal a reference fold into an ordered map (per-word
 * max-seq-wins, ties to the later record), one callback per line in
 * strictly ascending line order, for inputs whose line indices need
 * zero to three radix digits.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "hoop/line_coalescer.hh"

namespace hoopnvm
{
namespace
{

struct Folded
{
    Addr line;
    LineAcc acc;
};

/** Run the coalescer on a copy of @p recs, checking callback order. */
std::vector<Folded>
coalesce(std::vector<WordRecord> recs)
{
    std::vector<Folded> out;
    coalesceLines(recs, [&](Addr line, const LineAcc &acc) {
        if (!out.empty()) {
            EXPECT_LT(out.back().line, line) << "lines out of order";
        }
        out.push_back({line, acc});
    });
    return out;
}

/** The reference: the per-word hash-map fold the coalescer replaced,
 *  with an ordered map standing in for the hash map plus sort. */
std::vector<Folded>
referenceFold(const std::vector<WordRecord> &recs)
{
    std::map<Addr, LineAcc> lines;
    for (const WordRecord &r : recs) {
        const Addr la = lineAddr(r.addr);
        LineAcc &g = lines[la]; // value-initialized: all zero
        const unsigned w = static_cast<unsigned>((r.addr - la) / kWordSize);
        if (r.seq >= g.seqs[w]) {
            g.seqs[w] = r.seq;
            g.vals[w] = r.value;
            g.mask |= static_cast<std::uint8_t>(1u << w);
        }
    }
    std::vector<Folded> out;
    for (const auto &[line, acc] : lines)
        out.push_back({line, acc});
    return out;
}

void
expectSame(const std::vector<Folded> &got, const std::vector<Folded> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].line, want[i].line);
        EXPECT_EQ(got[i].acc.mask, want[i].acc.mask) << "line " << i;
        EXPECT_EQ(std::memcmp(got[i].acc.seqs, want[i].acc.seqs,
                              sizeof(want[i].acc.seqs)),
                  0)
            << "line " << i;
        EXPECT_EQ(std::memcmp(got[i].acc.vals, want[i].acc.vals,
                              sizeof(want[i].acc.vals)),
                  0)
            << "line " << i;
    }
}

TEST(LineCoalescer, EmptyInputCallsNothing)
{
    EXPECT_TRUE(coalesce({}).empty());
}

TEST(LineCoalescer, SingleUpdateAtAddressZero)
{
    // Largest line index 0: zero radix passes.
    const auto got = coalesce({{0, 5, 0x1234}});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].line, 0u);
    EXPECT_EQ(got[0].acc.mask, 1u);
    EXPECT_EQ(got[0].acc.seqs[0], 5u);
    EXPECT_EQ(got[0].acc.vals[0], 0x1234u);
}

TEST(LineCoalescer, LaterRecordWinsADuplicateSeq)
{
    const Addr a = miB(300) + 3 * kWordSize; // three radix digits
    const auto got = coalesce({{a, 7, 1}, {a, 9, 2}, {a, 9, 3}, {a, 8, 4}});
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].line, lineAddr(a));
    EXPECT_EQ(got[0].acc.mask, 1u << 3);
    EXPECT_EQ(got[0].acc.seqs[3], 9u);
    EXPECT_EQ(got[0].acc.vals[3], 3u);
}

/** Address span of the random inputs: its largest line index needs
 *  1, 2 or 3 eleven-bit radix digits. */
class LineCoalescerRandom : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LineCoalescerRandom, MatchesReferenceFold)
{
    const std::uint64_t span = GetParam();
    Rng rng(span);
    for (int round = 0; round < 20; ++round) {
        // A small pool of lines so words collide, plus seqs drawn from
        // a narrow range so equal seqs on one word are common.
        std::vector<Addr> pool(1 + rng.nextBounded(64));
        for (Addr &l : pool)
            l = lineAddr(rng.nextBounded(span));
        std::vector<WordRecord> recs(rng.nextBounded(2000));
        for (WordRecord &r : recs) {
            r.addr = pool[rng.nextBounded(pool.size())] +
                     rng.nextBounded(kWordsPerLine) * kWordSize;
            r.seq = 1 + rng.nextBounded(16);
            r.value = rng.next();
        }
        recs.push_back({span - kWordSize, 1, rng.next()}); // widest index
        expectSame(coalesce(recs), referenceFold(recs));
    }
}

INSTANTIATE_TEST_SUITE_P(DigitCounts, LineCoalescerRandom,
                         ::testing::Values(kiB(128), miB(256), giB(4)));

} // namespace
} // namespace hoopnvm
