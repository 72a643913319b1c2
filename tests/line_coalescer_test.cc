/**
 * @file
 * Unit tests for the line coalescer shared by GC and recovery: its
 * output must equal a reference fold into an ordered map (per-word
 * max-seq-wins, ties to the later slice in scan order), one callback
 * per line in strictly ascending line order, for inputs whose line
 * indices need one to three radix digits. The coalescer's own heap use
 * is bounded by its largest top-digit bucket, and HoopController
 * rejects an OOP region with more slices than the 24-bit ordinal holds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "hoop/hoop_controller.hh"
#include "hoop/line_coalescer.hh"

namespace
{

/** Heap bytes requested while counting is on (see operator new). */
bool g_countAllocs = false;
std::size_t g_allocBytes = 0;

void *
countedAlloc(std::size_t n)
{
    if (g_countAllocs)
        g_allocBytes += n;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

namespace hoopnvm
{
namespace
{

/** Word updates in scan order plus the per-slice seq table. */
struct Input
{
    std::vector<WordRecord> recs;
    std::vector<std::uint64_t> seqs;

    /** Append one slice carrying @p words ({home addr, value}). */
    void
    slice(std::uint64_t seq,
          const std::vector<std::pair<Addr, std::uint64_t>> &words)
    {
        const auto ord = static_cast<std::uint32_t>(seqs.size());
        seqs.push_back(seq);
        for (const auto &[addr, value] : words)
            recs.push_back(WordRecord::make(addr, ord, value));
    }
};

struct Folded
{
    Addr line;
    LineAcc acc;
};

/** Run the coalescer on a copy of @p in, checking callback order. */
std::vector<Folded>
coalesce(Input in)
{
    std::vector<Folded> out;
    coalesceLines(in.recs, in.seqs, [&](Addr line, const LineAcc &acc) {
        if (!out.empty()) {
            EXPECT_LT(out.back().line, line) << "lines out of order";
        }
        out.push_back({line, acc});
    });
    return out;
}

/** The reference: the stable scan-order fold the coalescer replaced
 *  (highest seq wins, the later record wins a tie), with an ordered
 *  map standing in for the hash map plus sort. */
std::vector<Folded>
referenceFold(const Input &in)
{
    std::map<Addr, LineAcc> lines;
    for (const WordRecord &r : in.recs) {
        const Addr la = lineAddr(r.addr());
        LineAcc &g = lines[la]; // value-initialized: all zero
        const unsigned w =
            static_cast<unsigned>((r.addr() - la) / kWordSize);
        const std::uint64_t seq = in.seqs[r.ordinal()];
        if (seq >= g.seqs[w]) {
            g.seqs[w] = seq;
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

/**
 * Random slices over @p lines: each slice lists up to kMaxWords
 * distinct words of the pool, with seqs drawn from a narrow range so
 * equal seqs on one word are common.
 */
Input
randomSlices(Rng &rng, const std::vector<Addr> &lines, std::size_t slices)
{
    Input in;
    for (std::size_t s = 0; s < slices; ++s) {
        std::vector<std::pair<Addr, std::uint64_t>> words;
        const std::size_t count = 1 + rng.nextBounded(8);
        while (words.size() < count) {
            const Addr a = lines[rng.nextBounded(lines.size())] +
                           rng.nextBounded(kWordsPerLine) * kWordSize;
            if (std::none_of(words.begin(), words.end(),
                             [&](const auto &w) { return w.first == a; }))
                words.emplace_back(a, rng.next());
        }
        in.slice(1 + rng.nextBounded(16), words);
    }
    return in;
}

TEST(WordRecord, PacksWordNumberAboveOrdinal)
{
    const Addr a = (Addr{1} << 43) - kWordSize; // widest 40-bit word
    const WordRecord r = WordRecord::make(a, 0xabcdef, 42);
    EXPECT_EQ(r.addr(), a);
    EXPECT_EQ(r.ordinal(), 0xabcdefu);
    EXPECT_EQ(r.line(), a / kCacheLineSize);
    EXPECT_EQ(r.value, 42u);
}

TEST(LineCoalescer, EmptyInputCallsNothing)
{
    EXPECT_TRUE(coalesce({}).empty());
}

TEST(LineCoalescer, SingleUpdateAtAddressZero)
{
    // Largest line index 0: no sort at all.
    Input in;
    in.slice(5, {{0, 0x1234}});
    const auto got = coalesce(in);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].line, 0u);
    EXPECT_EQ(got[0].acc.mask, 1u);
    EXPECT_EQ(got[0].acc.seqs[0], 5u);
    EXPECT_EQ(got[0].acc.vals[0], 0x1234u);
}

TEST(LineCoalescer, HigherOrdinalWinsAnEqualSeq)
{
    const Addr a = miB(300) + 3 * kWordSize; // three radix digits
    Input in;
    in.slice(7, {{a, 1}});
    in.slice(9, {{a, 2}});
    in.slice(9, {{a, 3}, {a + kWordSize, 5}});
    in.slice(8, {{a, 4}});
    const auto want = referenceFold(in);
    // The fold is order-free: reversing the records changes nothing.
    std::reverse(in.recs.begin(), in.recs.end());
    const auto got = coalesce(in);
    expectSame(got, want);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].line, lineAddr(a));
    EXPECT_EQ(got[0].acc.mask, 3u << 3);
    EXPECT_EQ(got[0].acc.seqs[3], 9u);
    EXPECT_EQ(got[0].acc.vals[3], 3u);
    EXPECT_EQ(got[0].acc.vals[4], 5u);
}

TEST(LineCoalescerDeathTest, SliceListingAWordTwiceAborts)
{
    Input in;
    in.slice(3, {{kCacheLineSize, 1}, {kCacheLineSize, 2}});
    EXPECT_DEATH(coalesce(in), "lists home word");
}

/** Address span of the random inputs: its largest line index needs
 *  1, 2 or 3 eleven-bit radix digits (2^11, 2^22 and 2^26 lines). */
class LineCoalescerRandom : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(LineCoalescerRandom, MatchesReferenceFold)
{
    const std::uint64_t span = GetParam();
    Rng rng(span);
    for (int round = 0; round < 20; ++round) {
        // A small pool of lines so words collide; some rounds are
        // large enough that a top-digit bucket takes the radix path.
        std::vector<Addr> pool(1 + rng.nextBounded(64));
        for (Addr &l : pool)
            l = lineAddr(rng.nextBounded(span));
        pool.push_back(span - kCacheLineSize); // widest index
        const std::size_t slices =
            round % 4 == 0 ? 4000 : rng.nextBounded(400);
        Input in = randomSlices(rng, pool, slices);
        expectSame(coalesce(in), referenceFold(in));
    }
}

TEST_P(LineCoalescerRandom, OneTopDigitBucket)
{
    // Every line shares the widest index's top 11 bits, so all records
    // land in one bucket and the bits below are radix-sorted.
    const std::uint64_t span = GetParam();
    const Addr top = span / kCacheLineSize - 1;
    const auto width = static_cast<unsigned>(std::bit_width(top));
    const unsigned low_bits = width > 11 ? width - 11 : 0;
    Rng rng(span + 1);
    std::vector<Addr> pool(300);
    for (Addr &l : pool) {
        const Addr low = rng.nextBounded(Addr{1} << low_bits);
        l = ((top >> low_bits << low_bits) | low) * kCacheLineSize;
    }
    pool.push_back(top * kCacheLineSize);
    Input in = randomSlices(rng, pool, 3000);
    expectSame(coalesce(in), referenceFold(in));
}

INSTANTIATE_TEST_SUITE_P(DigitCounts, LineCoalescerRandom,
                         ::testing::Values(kiB(128), miB(256), giB(4)));

TEST(LineCoalescer, HeapUseIsTheLargestBucketNotTheInput)
{
    // 64 top-digit buckets of different sizes over 2^26 lines, each
    // too large for the comparison sort; plus many tiny buckets.
    constexpr unsigned kLowBits = 26 - 11;
    Rng rng(7);
    Input in;
    std::size_t largest = 0;
    for (Addr top = 0; top < 2048; ++top) {
        const std::size_t n = top % 32 == 0 ? 400 + top : 3;
        largest = std::max(largest, n);
        for (std::size_t i = 0; i < n; ++i) {
            const Addr line =
                top << kLowBits | rng.nextBounded(Addr{1} << kLowBits);
            in.slice(1 + i, {{line * kCacheLineSize, i}});
        }
    }
    const std::size_t n = in.recs.size();
    ASSERT_GT(n, 16 * largest);

    std::size_t lines = 0;
    Addr prev = 0;
    bool ascending = true;
    g_allocBytes = 0;
    g_countAllocs = true;
    coalesceLines(in.recs, in.seqs, [&](Addr line, const LineAcc &) {
        ascending = ascending && (lines == 0 || line > prev);
        prev = line;
        ++lines;
    });
    g_countAllocs = false;
    EXPECT_TRUE(ascending);
    EXPECT_GT(lines, 0u);
    EXPECT_GT(g_allocBytes, 0u);
    EXPECT_LE(g_allocBytes, largest * sizeof(WordRecord));

    // Only small buckets: no heap use at all.
    Input small;
    for (Addr top = 0; top < 2048; ++top)
        small.slice(1, {{(top << kLowBits) * kCacheLineSize, top}});
    g_allocBytes = 0;
    g_countAllocs = true;
    coalesceLines(small.recs, small.seqs, [](Addr, const LineAcc &) {});
    g_countAllocs = false;
    EXPECT_EQ(g_allocBytes, 0u);
}

SystemConfig
regionConfig(std::uint64_t oop_bytes)
{
    SystemConfig cfg;
    cfg.numCores = 1;
    cfg.homeBytes = miB(1);
    cfg.oopBytes = oop_bytes;
    cfg.auxBytes = miB(1);
    return cfg;
}

TEST(LineCoalescerDeathTest, ControllerRejectsMoreSlicesThanOrdinals)
{
    const std::uint64_t limit = kMaxCoalescedSlices * MemorySlice::kSliceBytes;
    ASSERT_EQ(limit, giB(2));
    {
        const SystemConfig cfg = regionConfig(limit);
        NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
        HoopController ctrl(nvm, cfg);
        EXPECT_EQ(ctrl.region().numBlocks(), limit / cfg.oopBlockBytes);
    }
    EXPECT_DEATH(
        {
            const SystemConfig cfg = regionConfig(limit + miB(2));
            NvmDevice nvm(cfg.nvmCapacity(), cfg.nvm);
            HoopController ctrl(nvm, cfg);
        },
        "exceeds the 16777216 slices");
}

} // namespace
} // namespace hoopnvm
