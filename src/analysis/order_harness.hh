/**
 * @file
 * One-call harness for the persistency-ordering analyzer: build a
 * small, eviction-heavy system, arm an OrderingTracker, drive a
 * workload through warmup + measured transactions, finalize (so
 * drain/GC/truncation paths fire their rules too) and report.
 *
 * Used by the hoop_ordercheck CLI and by the analyzer tests. The small
 * machine, its workloads and the post-recovery oracle defined here are
 * shared with the other checkers (crash explorer, soak, fleet shards),
 * so a rule exercised here is exercised under crash schedules too.
 */

#ifndef HOOPNVM_ANALYSIS_ORDER_HARNESS_HH
#define HOOPNVM_ANALYSIS_ORDER_HARNESS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analysis/ordering_tracker.hh"
#include "sim/system_config.hh"
#include "workloads/workload.hh"

namespace hoopnvm
{

/** One order-check run: scheme x workload plus debug-bug knobs. */
struct OrderCheckOptions
{
    Scheme scheme = Scheme::Hoop;
    std::string workload = "hashmap";
    std::uint64_t seed = 1;
    unsigned numCores = 2;

    /** Transactions per core before the tracker arms. */
    std::uint64_t warmupTx = 10;

    /** Tracked transactions per core (before the final drain). */
    std::uint64_t runTx = 120;

    /** Also enable torn-write fault injection (crash realism). */
    bool tornWrites = false;

    // Seeded-bug knobs (forwarded into SystemConfig; see there).
    bool breakCommitFence = false;
    bool earlyCommitAck = false;
    bool skipSettleFences = false;
    bool skipUndoLog = false;
};

/** Everything the tracker learned from one run. */
struct OrderCheckReport
{
    std::vector<OrderingRuleReport> rules;
    std::vector<std::string> deadRules;
    std::vector<OrderingViolation> violations;
    std::vector<OrderingViolation> warnings;
    OrderingCounters counters;
    std::uint64_t totalViolations = 0;

    /** Transactions driven while the tracker was armed. */
    std::uint64_t transactions = 0;

    /** Workload self-verification after the run (sanity). */
    bool verified = false;
};

/**
 * The small, eviction-heavy machine both the ordering harness and the
 * crash explorer check on: tiny caches force evictions, small OOP
 * blocks give HOOP's GC real candidates, and a short GC period puts
 * maintenance boundaries inside short windows.
 */
SystemConfig smallCheckConfig(unsigned numCores, std::uint64_t seed);

/**
 * One set-up workload @p name per core of @p sys, sized for the
 * checkers: 64 B values over small structures (scale 128).
 */
std::vector<std::unique_ptr<Workload>>
makeCheckWorkloads(System &sys, const std::string &name);

/**
 * The checkers' post-recovery oracle, core by core: committed-shadow
 * equality — a crashed transaction's pending shadow update is tried
 * both ways, since a crash inside its commit may legally keep or drop
 * it — then the workload's structural invariants.
 * @return "" when every core holds, else "core <c>: ..." describing
 * the first core that does not (@p when names the check point).
 */
std::string
verifyRecovered(std::vector<std::unique_ptr<Workload>> &wls,
                const std::string &when);

/** Run one tracked workload per @p opt and report. */
OrderCheckReport runOrderCheck(const OrderCheckOptions &opt);

} // namespace hoopnvm

#endif // HOOPNVM_ANALYSIS_ORDER_HARNESS_HH
