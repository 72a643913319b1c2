/**
 * @file
 * hoop_crashcheck: systematic crash-point exploration CLI.
 *
 * Sweeps crash schedules across the five boundary classes for any
 * scheme x workload combination, reports per-class coverage, shrinks
 * violations to minimal reproducers and writes them as replayable
 * JSON. `--replay <file>` re-executes a reproducer deterministically.
 *
 * Exit codes: 0 = clean sweep, 1 = violations found, 2 = usage error,
 * 3 = per-schedule watchdog budget exceeded.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "check/crash_explorer.hh"
#include "check/watchdog.hh"
#include "stats/trace.hh"
#include "cli.hh"

namespace
{

using namespace hoopnvm;

constexpr const char *kUsage =
    "usage: hoop_crashcheck [options]\n"
    "  --scheme S      hoop|redo|undo|osp|lsm|lad|all   (default hoop)\n"
    "  --workload W    vector|hashmap|queue|rbtree|btree|ycsb|tpcc|all\n"
    "                  (default vector)\n"
    "  --budget N      max schedules per scheme x workload (default 50)\n"
    "  --seed N        deterministic seed (default 42)\n"
    "  --threads N     recovery threads (default 2)\n"
    "  --faults F      none|torn|media                  (default none)\n"
    "                  media: runtime media-fault regime — fault\n"
    "                  tolerance on, seeded wear-out faults over free\n"
    "                  capacity plus transient read disturbs, strict\n"
    "                  oracles (committed data must survive)\n"
    "  --budget-ms N   per-schedule wall-clock watchdog: abort with\n"
    "                  exit code 3 if any single schedule runs longer\n"
    "                  than N ms (default 0 = off)\n"
    "  --break-commit-fence   debug: ack commits before the record is\n"
    "                         durable (implies torn writes; HOOP only\n"
    "                         knob, used to validate the checker)\n"
    "  --ordering      arm the persistency-ordering analyzer on every\n"
    "                  schedule: declared durability rules are checked\n"
    "                  continuously, so a violated rule is reported\n"
    "                  even when no schedule's crash lands in the\n"
    "                  vulnerable window; rules that never fire across\n"
    "                  a scheme's whole sweep are reported as dead\n"
    "  --out DIR       write reproducer JSON files here (default .)\n"
    "  --replay FILE   re-execute one schedule JSON and exit\n"
    "  --trace FILE    write a Chrome trace (Perfetto-loadable) of\n"
    "                  every explored schedule to FILE (same as the\n"
    "                  HOOP_TRACE environment variable)\n";

constexpr cli::Tool kCli("hoop_crashcheck", kUsage);

int
replay(const std::string &path)
{
    CrashSchedule sched;
    if (const auto rc = kCli.readSpec(path, "schedule", &sched))
        return *rc;

    std::printf("replaying %s (%s/%s, seed %llu, %zu steps)\n",
                path.c_str(), schemeToken(sched.scheme),
                sched.workload.c_str(),
                static_cast<unsigned long long>(sched.seed),
                sched.steps.size());
    const ScheduleResult r = runSchedule(sched);
    std::printf("  crash fired: %s  recovery crash fired: %s\n",
                r.crashFired ? "yes" : "no",
                r.recoveryCrashFired ? "yes" : "no");
    std::uint64_t ordering_violations = 0;
    for (const OrderingRuleReport &rr : r.orderingRules) {
        ordering_violations += rr.violations;
        std::printf("  rule %-20s fires %6llu deps %6llu "
                    "violations %llu\n",
                    rr.name.c_str(),
                    static_cast<unsigned long long>(rr.fires),
                    static_cast<unsigned long long>(rr.depsChecked),
                    static_cast<unsigned long long>(rr.violations));
    }
    for (const OrderingViolation &v : r.orderingTraces)
        std::printf("  ORDERING VIOLATION [%s]: %s\n", v.rule.c_str(),
                    v.detail.c_str());
    if (!r.violated && ordering_violations > 0) {
        std::printf("  %llu ordering violation(s)\n",
                    static_cast<unsigned long long>(
                        ordering_violations));
        return 1;
    }
    return cli::replayVerdict(r.violated, r.detail);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hoopnvm;

    std::string scheme_arg = "hoop";
    std::string workload_arg = "vector";
    std::string faults_arg = "none";
    std::string out_dir = ".";
    std::string replay_path;
    std::uint64_t budget = 50;
    std::uint64_t budget_ms = 0;
    std::uint64_t seed = 42;
    unsigned threads = 2;
    bool break_fence = false;
    bool ordering = false;

    if (const auto rc = kCli.parse(
            argc, argv,
            {{"--scheme", &scheme_arg},
             {"--workload", &workload_arg},
             {"--budget", &budget},
             {"--budget-ms", &budget_ms},
             {"--seed", &seed},
             {"--threads", &threads},
             {"--faults", &faults_arg, {"none", "torn", "media"}},
             {"--break-commit-fence", &break_fence},
             {"--ordering", &ordering},
             {"--out", &out_dir},
             {"--replay", &replay_path},
             {"--trace", [](const char *v) { Trace::setPath(v); }}}))
        return *rc;

    if (!replay_path.empty())
        return replay(replay_path);

    if (const auto rc = kCli.makeOutDir(out_dir))
        return *rc;
    std::vector<Scheme> schemes;
    if (const auto rc = kCli.expandSchemes(scheme_arg, &schemes))
        return *rc;
    const std::vector<std::string> workloads =
        cli::expandWorkloads(workload_arg);

    Watchdog watchdog(budget_ms);

    std::size_t violation_files = 0;
    std::uint64_t total_schedules = 0;
    std::uint64_t total_violations = 0;
    std::uint64_t total_ordering_violations = 0;
    std::uint64_t total_dead_rules = 0;

    for (Scheme scheme : schemes) {
        // A rule can legitimately sit idle on one workload (e.g. a GC
        // rule on a read-mostly stream), so dead-rule detection sums
        // fires across every workload of the scheme's sweep.
        std::vector<OrderingRuleReport> scheme_rules;

        for (const std::string &wl : workloads) {
            ExploreOptions opt;
            opt.base.scheme = scheme;
            opt.base.workload = wl;
            opt.base.seed = seed;
            opt.base.recoverThreads = threads;
            opt.base.tornWrites = faults_arg == "torn";
            if (faults_arg == "media")
                opt.base.runtimeFaultProb = 0.02;
            opt.base.breakCommitFence = break_fence;
            opt.base.ordering = ordering;
            opt.budget = budget;
            opt.progress = [&watchdog](const CrashSchedule &s) {
                watchdog.beat(std::string(schemeToken(s.scheme)) + "/" +
                              s.workload + " schedule (" +
                              std::to_string(s.steps.size()) +
                              " steps)");
            };

            const ExploreReport rep = explore(opt);
            total_schedules += rep.schedulesRun;
            total_violations += rep.violations.size();
            total_ordering_violations += rep.orderingViolations;

            mergeRuleReports(&scheme_rules, rep.orderingRules);

            std::printf("%-6s %-8s schedules %4llu crashes %4llu "
                        "rec-crashes %3llu violations %zu\n",
                        schemeToken(scheme), wl.c_str(),
                        static_cast<unsigned long long>(
                            rep.schedulesRun),
                        static_cast<unsigned long long>(
                            rep.crashesFired),
                        static_cast<unsigned long long>(
                            rep.recoveryCrashesFired),
                        rep.violations.size());
            for (unsigned k = 0; k < kNumCrashPointKinds; ++k) {
                std::printf(
                    "         %-15s events %6llu schedules %4llu "
                    "fired %4llu\n",
                    crashPointKindToken(static_cast<CrashPointKind>(k)),
                    static_cast<unsigned long long>(
                        rep.eventsProfiled[k]),
                    static_cast<unsigned long long>(
                        rep.schedulesPerKind[k]),
                    static_cast<unsigned long long>(
                        rep.firedPerKind[k]));
            }

            if (rep.orderingViolations > 0) {
                std::printf("         ordering violations %llu\n",
                            static_cast<unsigned long long>(
                                rep.orderingViolations));
                for (const OrderingViolation &v : rep.orderingTraces)
                    std::printf("         ORDERING [%s]: %s\n",
                                v.rule.c_str(), v.detail.c_str());
            }

            for (const Violation &v : rep.violations) {
                cli::writeReproducer(out_dir, "crashcheck",
                                     v.reproducer.scheme,
                                     v.reproducer.workload,
                                     violation_files++, v.detail,
                                     v.reproducer.toJson());
            }
        }

        if (ordering) {
            std::printf("%-6s ordering rules:\n", schemeToken(scheme));
            for (const OrderingRuleReport &rr : scheme_rules) {
                std::printf("         %-20s fires %8llu deps %8llu "
                            "violations %llu%s\n",
                            rr.name.c_str(),
                            static_cast<unsigned long long>(rr.fires),
                            static_cast<unsigned long long>(
                                rr.depsChecked),
                            static_cast<unsigned long long>(
                                rr.violations),
                            rr.fires == 0 ? "  DEAD RULE" : "");
                if (rr.fires == 0)
                    ++total_dead_rules;
            }
        }
    }

    std::printf("total: %llu schedules, %llu violations",
                static_cast<unsigned long long>(total_schedules),
                static_cast<unsigned long long>(total_violations));
    if (ordering)
        std::printf(", %llu ordering violations, %llu dead rules",
                    static_cast<unsigned long long>(
                        total_ordering_violations),
                    static_cast<unsigned long long>(total_dead_rules));
    std::printf("\n");
    const bool clean = total_violations == 0 &&
                       total_ordering_violations == 0 &&
                       total_dead_rules == 0;
    return clean ? 0 : 1;
}
