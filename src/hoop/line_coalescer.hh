/**
 * @file
 * Line coalescer shared by HOOP's garbage collector (paper §III-E,
 * Algorithm 1) and crash recovery (§III-F): folds a stream of word
 * updates into one latest-version image per home line.
 *
 * Callers append one WordRecord per word update, in scan order, to a
 * local vector. A stable LSD radix sort on the line index groups the
 * records of each line while keeping every word's updates in scan
 * order; one streaming pass then folds each line with the
 * max-seq-wins rule (on equal seqs the later record wins) and hands it
 * to the caller in ascending line-address order.
 * Stability makes the fold see exactly the update order a per-word
 * hash accumulator would, so no ordering invariant on seqs is needed.
 *
 * Sorting replaces a dependent, cache-missing hash probe per line
 * change with a few sequential passes: 11-bit digits, and only as many
 * passes as the largest line index has digits (two for a 256 MiB home
 * region, none when every update hits line 0).
 */

#ifndef HOOPNVM_HOOP_LINE_COALESCER_HH
#define HOOPNVM_HOOP_LINE_COALESCER_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace hoopnvm
{

/** One word update: home address, slice sequence number and value. */
struct WordRecord
{
    Addr addr;
    std::uint64_t seq;
    std::uint64_t value;
};

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
 * strictly ascending line-address order. @p recs is used as sort
 * scratch: its order on return is unspecified.
 */
template <typename Fn>
void
coalesceLines(std::vector<WordRecord> &recs, Fn &&fn)
{
    constexpr unsigned kDigitBits = 11;
    constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
    const std::size_t n = recs.size();
    // The first sweep finds the widest line index and counts digit 0;
    // each scatter pass counts the next digit as it moves the records.
    std::array<std::size_t, kBuckets> count{};
    Addr max_line = 0;
    for (const WordRecord &r : recs) {
        const Addr line = r.addr / kCacheLineSize;
        max_line = std::max(max_line, line);
        ++count[line & (kBuckets - 1)];
    }
    const auto width = static_cast<unsigned>(std::bit_width(max_line));
    const unsigned passes = (width + kDigitBits - 1) / kDigitBits;

    WordRecord *src = recs.data();
    std::unique_ptr<WordRecord[]> scratch;
    if (passes > 0)
        scratch = std::make_unique_for_overwrite<WordRecord[]>(n);
    WordRecord *dst = scratch.get();
    for (unsigned p = 0; p < passes; ++p) {
        std::size_t sum = 0;
        for (std::size_t &c : count)
            sum += std::exchange(c, sum);
        std::array<std::size_t, kBuckets> next{};
        for (std::size_t i = 0; i < n; ++i) {
            const Addr digits =
                src[i].addr / kCacheLineSize >> (p * kDigitBits);
            dst[count[digits & (kBuckets - 1)]++] = src[i];
            ++next[(digits >> kDigitBits) & (kBuckets - 1)];
        }
        count = next;
        std::swap(src, dst);
    }

    for (std::size_t i = 0; i < n;) {
        const Addr line = lineAddr(src[i].addr);
        LineAcc acc{};
        for (; i < n && lineAddr(src[i].addr) == line; ++i) {
            const WordRecord &r = src[i];
            const unsigned w =
                static_cast<unsigned>((r.addr - line) / kWordSize);
            if (r.seq >= acc.seqs[w]) {
                acc.seqs[w] = r.seq;
                acc.vals[w] = r.value;
                acc.mask |= static_cast<std::uint8_t>(1u << w);
            }
        }
        fn(line, acc);
    }
}

} // namespace hoopnvm

#endif // HOOPNVM_HOOP_LINE_COALESCER_HH
