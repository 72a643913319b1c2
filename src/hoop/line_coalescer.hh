/**
 * @file
 * Line coalescer shared by HOOP's garbage collector (paper §III-E,
 * Algorithm 1) and crash recovery (§III-F): folds a stream of word
 * updates into one latest-version image per home line.
 *
 * Callers number the word-carrying slices they accept 0, 1, 2, ... in
 * scan order, keep each slice's sequence number in a `seqs` table
 * indexed by that ordinal, and append one 16-byte WordRecord per word
 * update: the value, plus a key that packs the 40-bit home word number
 * (the slice format's own field width) above the 24-bit ordinal. The
 * seq lives once per slice instead of once per word.
 *
 * Grouping happens in place. One American-flag partition on the top
 * line-index digit (the highest 11 bits of the widest index) splits
 * the records into ascending buckets; each bucket is then radix-sorted
 * on the bits below through a scratch buffer sized to the largest
 * bucket, and small buckets are comparison-sorted. Host memory is
 * therefore 16 B per word and 8 B per slice, plus the largest bucket
 * as scratch, where the former stable LSD sort needed a 24 B record
 * and a 24 B scatter copy per word.
 *
 * Neither step is stable, so the fold is order-free: per word it keeps
 * the record with the largest (seq, ordinal). That is the winner of
 * the scan-order rule "highest seq wins, the later record wins a tie",
 * because ordinals follow scan order and a slice never lists a word
 * twice (asserted). Lines reach the caller in strictly ascending
 * address order, so NVM writes, crash points and eviction-buffer puts
 * keep their sequence.
 *
 * The 24-bit ordinal caps one run at 2^24 word-carrying slices: 2 GiB
 * of 128-byte slices, which HoopController checks at construction.
 */

#ifndef HOOPNVM_HOOP_LINE_COALESCER_HH
#define HOOPNVM_HOOP_LINE_COALESCER_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace hoopnvm
{

/** Bits of a WordRecord key that hold the slice ordinal. */
inline constexpr unsigned kOrdinalBits = 24;

/** Most word-carrying slices one coalescer run can number. */
inline constexpr std::size_t kMaxCoalescedSlices = std::size_t{1}
                                                   << kOrdinalBits;

/** One word update: its value and a (home word, slice ordinal) key. */
struct WordRecord
{
    std::uint64_t key; ///< home word number << kOrdinalBits | ordinal
    std::uint64_t value;

    static WordRecord
    make(Addr addr, std::uint32_t ordinal, std::uint64_t value)
    {
        return {addr / kWordSize << kOrdinalBits | ordinal, value};
    }

    Addr addr() const { return (key >> kOrdinalBits) * kWordSize; }

    std::uint32_t
    ordinal() const
    {
        return static_cast<std::uint32_t>(key & (kMaxCoalescedSlices - 1));
    }

    /** Home line index: the word number without its in-line bits. */
    Addr
    line() const
    {
        return key >> (kOrdinalBits + std::countr_zero(kWordsPerLine));
    }
};
static_assert(sizeof(WordRecord) == 16);

/** The winning versions of one home line: per-word max-seq-wins
 *  accumulators plus a presence mask. Slice seqs start at 1, so
 *  seqs[] == 0 means "no update". */
struct LineAcc
{
    std::uint64_t seqs[kWordsPerLine];
    std::uint64_t vals[kWordsPerLine];
    std::uint8_t mask;
};

/**
 * Fold @p recs into per-line accumulators and call
 * `fn(Addr line, const LineAcc &acc)` once per touched line, in
 * strictly ascending line-address order. Each record's seq is
 * `seqs[ordinal]`. @p recs is used as sort scratch: its order on
 * return is unspecified.
 */
template <typename Fn>
void
coalesceLines(std::vector<WordRecord> &recs,
              std::span<const std::uint64_t> seqs, Fn &&fn)
{
    constexpr unsigned kDigitBits = 11;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
    // Below this size a bucket is comparison-sorted: a radix pass
    // would spend more on its histogram than on the records.
    constexpr std::size_t kSmallBucket = 256;
    HOOP_ASSERT(seqs.size() <= kMaxCoalescedSlices,
                "%zu slices overflow the %u-bit ordinal", seqs.size(),
                kOrdinalBits);

    WordRecord *const a = recs.data();
    Addr max_line = 0;
    for (const WordRecord &r : recs)
        max_line = std::max(max_line, r.line());
    const auto width = static_cast<unsigned>(std::bit_width(max_line));
    const unsigned low_bits = width > kDigitBits ? width - kDigitBits : 0;
    // The bits below split evenly into as few digits as fit 11 bits.
    const unsigned low_passes = (low_bits + kDigitBits - 1) / kDigitBits;
    const unsigned low_digit =
        low_passes > 0 ? (low_bits + low_passes - 1) / low_passes : 0;
    const std::size_t low_mask = (std::size_t{1} << low_digit) - 1;

    // In-place partition on the top digit: end[d] is bucket d's end,
    // head[d] its next unfilled slot; each record is swapped straight
    // to its bucket.
    std::array<std::size_t, kBuckets> end{};
    for (const WordRecord &r : recs)
        ++end[r.line() >> low_bits];
    std::array<std::size_t, kBuckets> head{};
    std::size_t sum = 0;
    std::size_t largest = 0;
    for (std::size_t d = 0; d < kBuckets; ++d) {
        head[d] = sum;
        largest = std::max(largest, end[d]);
        sum += end[d];
        end[d] = sum;
    }
    const std::size_t last = recs.empty() ? 0 : recs.size() - 1;
    for (std::size_t d = 0; d < kBuckets; ++d) {
        while (head[d] < end[d]) {
            WordRecord r = a[head[d]];
            for (Addr t = r.line() >> low_bits; t != d;
                 t = r.line() >> low_bits) {
                // Each swap waits on the record the last one displaced,
                // so fetch the slots this bucket fills next: its head
                // moves sequentially, but 2048 heads are too many
                // streams for the hardware prefetcher.
                const std::size_t at = head[t]++;
                __builtin_prefetch(a + std::min(at + 8, last), 1);
                std::swap(r, a[at]);
            }
            a[head[d]++] = r;
        }
    }

    std::unique_ptr<WordRecord[]> scratch;
    if (low_passes > 0 && largest > kSmallBucket)
        scratch = std::make_unique_for_overwrite<WordRecord[]>(largest);

    // Digit counts of the per-bucket radix sort; each pass clears only
    // the low_mask + 1 entries its digit uses.
    std::array<std::size_t, kBuckets> count{};
    std::array<std::size_t, kBuckets> next{};
    std::size_t begin = 0;
    for (std::size_t d = 0; d < kBuckets; begin = end[d++]) {
        const std::size_t n = end[d] - begin;
        if (n == 0)
            continue;
        WordRecord *src = a + begin;
        if (low_passes > 0 && n <= kSmallBucket) {
            // The key orders by line first; the order within a line
            // does not matter to the fold.
            std::sort(src, src + n,
                      [](const WordRecord &x, const WordRecord &y) {
                          return x.key < y.key;
                      });
        } else if (low_passes > 0) {
            // LSD radix sort of the bits below the top digit; the
            // scatter of each pass counts the next pass's digit.
            WordRecord *dst = scratch.get();
            std::fill_n(count.begin(), low_mask + 1, 0);
            for (std::size_t i = 0; i < n; ++i)
                ++count[src[i].line() & low_mask];
            for (unsigned p = 0; p < low_passes; ++p) {
                std::size_t at = 0;
                for (std::size_t c = 0; c <= low_mask; ++c)
                    at += std::exchange(count[c], at);
                std::fill_n(next.begin(), low_mask + 1, 0);
                for (std::size_t i = 0; i < n; ++i) {
                    const Addr digits = src[i].line() >> (p * low_digit);
                    dst[count[digits & low_mask]++] = src[i];
                    ++next[(digits >> low_digit) & low_mask];
                }
                std::copy_n(next.begin(), low_mask + 1, count.begin());
                std::swap(src, dst);
            }
        }

        for (std::size_t i = 0; i < n;) {
            const Addr line = src[i].line();
            LineAcc acc{};
            std::uint32_t ords[kWordsPerLine] = {};
            for (; i < n && src[i].line() == line; ++i) {
                const WordRecord &r = src[i];
                const auto w = static_cast<unsigned>(
                    (r.key >> kOrdinalBits) & (kWordsPerLine - 1));
                const std::uint32_t ord = r.ordinal();
                const std::uint64_t seq = seqs[ord];
                if (acc.mask & (1u << w)) {
                    if (seq < acc.seqs[w] ||
                        (seq == acc.seqs[w] && ord < ords[w]))
                        continue;
                    HOOP_ASSERT(seq != acc.seqs[w] || ord != ords[w],
                                "slice %u lists home word %#llx twice",
                                ord,
                                static_cast<unsigned long long>(r.addr()));
                }
                acc.seqs[w] = seq;
                acc.vals[w] = r.value;
                ords[w] = ord;
                acc.mask |= static_cast<std::uint8_t>(1u << w);
            }
            fn(line * kCacheLineSize, acc);
        }
    }
}

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_LINE_COALESCER_HH
