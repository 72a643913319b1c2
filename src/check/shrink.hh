/**
 * @file
 * Greedy reproducer shrinking shared by the checking harnesses (crash
 * explorer, soak, fleet).
 *
 * A harness that finds a violating spec hands it here with its ordered
 * list of mutators — each proposes smaller variants of the current
 * best spec — and a budget of re-runs. The first candidate that still
 * violates becomes the new best and the search restarts from the first
 * mutator, so cheap, high-yield moves (drop a crash step, halve the
 * request count) are retried before finer ones. Everything is
 * deterministic: the same failing spec always shrinks to the same
 * reproducer.
 */

#ifndef HOOPNVM_CHECK_SHRINK_HH
#define HOOPNVM_CHECK_SHRINK_HH

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

namespace hoopnvm
{

/**
 * One shrinking move: the candidates to try from the current best
 * spec, in order; empty once the move no longer applies.
 */
template <typename Spec>
using ShrinkMutator = std::function<std::vector<Spec>(const Spec &)>;

/**
 * Greedily shrink @p failing: try each mutator's candidates in order;
 * the first one @p run reports as still violating becomes the new best
 * and the search restarts from the first mutator. Stops after @p budget
 * runs, or when a full pass over the mutators finds nothing.
 * @return the smallest still-violating spec found.
 */
template <typename Spec, typename Run>
Spec
greedyShrink(const Spec &failing, int budget, Run run,
             const std::vector<ShrinkMutator<Spec>> &mutators)
{
    Spec best = failing;
    bool improved = true;
    while (improved) {
        improved = false;
        for (const ShrinkMutator<Spec> &mutate : mutators) {
            for (Spec &cand : mutate(best)) {
                if (budget-- <= 0)
                    return best;
                if (run(cand)) {
                    best = std::move(cand);
                    improved = true;
                    break;
                }
            }
            if (improved)
                break;
        }
    }
    return best;
}

/**
 * Mutator halving the member @p field, never below @p floor; it
 * proposes nothing once the field is at the floor.
 */
template <typename Spec, typename T>
ShrinkMutator<Spec>
halveField(T Spec::*field, T floor = T{})
{
    return [field, floor](const Spec &s) -> std::vector<Spec> {
        if (s.*field <= floor)
            return {};
        Spec cand = s;
        cand.*field = std::max<T>(floor, cand.*field / 2);
        return {cand};
    };
}

} // namespace hoopnvm

#endif // HOOPNVM_CHECK_SHRINK_HH
