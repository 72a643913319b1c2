#include "check/crash_explorer.hh"

#include <algorithm>

#include "analysis/order_harness.hh"
#include "check/shrink.hh"
#include "check/soak.hh" // installRuntimeFaults
#include "common/errors.hh"
#include "sim/system.hh"

namespace hoopnvm
{

namespace
{

/**
 * Small, eviction-heavy machine (mirrors the crash property tests):
 * tiny caches widen the crash surface and a short GC period guarantees
 * GC-boundary events inside a short window.
 */
SystemConfig
configFor(const CrashSchedule &sched)
{
    SystemConfig cfg = smallCheckConfig(sched.numCores, sched.seed);
    cfg.debugNoCommitFence = sched.breakCommitFence;
    cfg.ft.enabled = sched.runtimeFaultProb > 0;
    // Check windows span tens of transactions, far less simulated time
    // than the default scrub cadence; scrub on the GC period so
    // scrub-driven retirement is reachable inside a schedule.
    cfg.ft.scrubPeriod = cfg.gcPeriod;
    return cfg;
}

unsigned
kindIndex(CrashPointKind k)
{
    return static_cast<unsigned>(k);
}

} // namespace

ScheduleResult
runSchedule(const CrashSchedule &sched)
{
    ScheduleResult res;
    const SystemConfig cfg = configFor(sched);
    System sys(cfg, sched.scheme);
    if (sched.tornWrites || sched.runtimeFaultProb > 0)
        sys.nvm().faults().setSeed(sched.seed ^ 0x7ea55eedULL);
    if (sched.tornWrites)
        sys.nvm().faults().setTornWrites(true);

    auto wls = makeCheckWorkloads(sys, sched.workload);

    std::uint64_t txi = 0;
    for (; txi < sched.warmupTx; ++txi) {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            wls[c]->runTransaction(txi);
        sys.maintenance();
    }

    // Faults land after warmup, over capacity that is free *now*: the
    // program-verify contract then guarantees no committed data ever
    // sits on an uncorrectable cell, which is what keeps the oracles
    // strict under this regime.
    if (sched.runtimeFaultProb > 0)
        installRuntimeFaults(sys, cfg, sched.runtimeFaultProb, 0);

    sys.crashHook().resetCounts();

    // The ordering analyzer arms after warmup (rules judge the steady
    // state) and watches every phase that follows: the crash window,
    // the crash itself (onCrash retires in-flight state) and recovery.
    OrderingTracker tracker;
    if (sched.ordering)
        sys.armOrdering(&tracker);
    auto captureOrdering = [&]() {
        if (!sched.ordering)
            return;
        res.orderingRules = tracker.ruleReports();
        res.orderingTraces = tracker.violations();
        sys.armOrdering(nullptr);
    };

    // Post-recovery oracle (verifyRecovered). The legacy
    // damage-at-rest regime (mediaFaultProb) skips the oracles —
    // corrupting occupied cells legitimately vetoes committed
    // transactions, so exact equality is not the contract there. The
    // runtime regime (runtimeFaultProb) does NOT skip: its faults only
    // ever land on then-free capacity, so committed data must survive.
    auto oracle = [&](const char *when) -> bool {
        if (sched.mediaFaultProb > 0) {
            for (auto &wl : wls)
                wl->dropPendingShadow();
            return true;
        }
        const std::string v = verifyRecovered(wls, when);
        if (v.empty())
            return true;
        res.violated = true;
        res.detail = std::string(schemeToken(sched.scheme)) + "/" +
                     sched.workload + " " + v;
        return false;
    };

    auto runWindow = [&]() {
        for (std::uint64_t n = 0; n < sched.runTx; ++n, ++txi) {
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                try {
                    wls[c]->runTransaction(txi);
                } catch (const TxRejected &) {
                    // Graceful degradation: the rejected transaction
                    // wrote no commit record, so crash + recovery
                    // discards its partial effects and the stream
                    // continues on the surviving committed state.
                    sys.crash();
                    sys.recover(sched.recoverThreads);
                    for (auto &wl : wls)
                        wl->dropPendingShadow();
                }
            }
            sys.maintenance();
        }
    };

    if (sched.steps.empty()) {
        // Profiling run: measure per-class events over a crash-free
        // window, then one end-of-window crash for RecoveryStep counts.
        runWindow();
        res.events = sys.crashHook().counts();
        sys.crash();
        const std::uint64_t before =
            sys.crashHook().count(CrashPointKind::RecoveryStep);
        sys.recover(sched.recoverThreads);
        res.events[kindIndex(CrashPointKind::RecoveryStep)] =
            sys.crashHook().count(CrashPointKind::RecoveryStep) - before;
        oracle("profiling run");
        captureOrdering();
        return res;
    }

    for (const CrashStep &step : sched.steps) {
        sys.crashHook().arm(step.kind, step.countdown);
        bool crashed = false;
        try {
            runWindow();
        } catch (const SimCrash &) {
            crashed = true;
        }
        sys.crashHook().disarm(step.kind);
        if (!crashed)
            continue; // countdown exceeded the window's events

        res.crashFired = true;
        sys.crash();
        if (sched.mediaFaultProb > 0) {
            sys.nvm().faults().addMediaFault(
                cfg.oopBase(), cfg.oopBase() + cfg.oopBytes,
                MediaFaultKind::StuckAtOne, sched.mediaFaultProb);
        }

        bool rec_crashed = false;
        if (step.recoveryCountdown > 0) {
            sys.crashHook().arm(CrashPointKind::RecoveryStep,
                                step.recoveryCountdown);
            try {
                sys.recover(sched.recoverThreads);
            } catch (const SimCrash &) {
                rec_crashed = true;
                res.recoveryCrashFired = true;
            }
            sys.crashHook().disarm(CrashPointKind::RecoveryStep);
            if (rec_crashed) {
                // Power fails again mid-recovery: discard the
                // half-rebuilt volatile state and re-enter recovery on
                // the twice-crashed image.
                sys.crash();
                sys.recover(sched.recoverThreads);
            }
        } else {
            sys.recover(sched.recoverThreads);
        }

        if (!oracle(rec_crashed ? "after crash-during-recovery"
                                : "after crash + recovery")) {
            captureOrdering();
            return res;
        }
    }

    res.events = sys.crashHook().counts();
    captureOrdering();
    return res;
}

CrashSchedule
shrink(const CrashSchedule &failing, std::string *detail,
       const std::function<void(const CrashSchedule &)> &progress)
{
    constexpr int kShrinkBudget = 48;
    const std::vector<ShrinkMutator<CrashSchedule>> mutators = {
        // Drop whole steps.
        [](const CrashSchedule &s) {
            std::vector<CrashSchedule> cands;
            if (s.steps.size() <= 1)
                return cands;
            for (std::size_t i = 0; i < s.steps.size(); ++i) {
                cands.push_back(s);
                cands.back().steps.erase(cands.back().steps.begin() +
                                         static_cast<long>(i));
            }
            return cands;
        },
        // Shrink the warmup prefix, then the crash window.
        halveField(&CrashSchedule::warmupTx),
        halveField(&CrashSchedule::runTx, std::uint64_t{1}),
        // Pull crash points earlier, each step's primary crash before
        // its crash-during-recovery.
        [](const CrashSchedule &s) {
            std::vector<CrashSchedule> cands;
            for (std::size_t i = 0; i < s.steps.size(); ++i) {
                if (s.steps[i].countdown > 1) {
                    cands.push_back(s);
                    cands.back().steps[i].countdown /= 2;
                }
                if (s.steps[i].recoveryCountdown > 1) {
                    cands.push_back(s);
                    cands.back().steps[i].recoveryCountdown /= 2;
                }
            }
            return cands;
        },
    };
    return greedyShrink(
        failing, kShrinkBudget,
        [&](const CrashSchedule &cand) {
            if (progress)
                progress(cand);
            const ScheduleResult r = runSchedule(cand);
            if (r.violated && detail)
                *detail = r.detail;
            return r.violated;
        },
        mutators);
}

ExploreReport
explore(const ExploreOptions &opt)
{
    ExploreReport rep;

    CrashSchedule base = opt.base;
    base.steps.clear();
    // A broken commit fence is only observable when the in-flight
    // record can actually tear.
    base.tornWrites = base.tornWrites || base.breakCommitFence;

    // Sum per-rule outcomes across schedules (merged by rule name): a
    // rule with zero fires over the whole sweep is dead, and every
    // violation counts even when its schedule's crash missed the
    // vulnerable window.
    auto absorbOrdering = [&rep](const ScheduleResult &r) {
        mergeRuleReports(&rep.orderingRules, r.orderingRules);
        for (const OrderingRuleReport &rr : r.orderingRules)
            rep.orderingViolations += rr.violations;
        for (const OrderingViolation &v : r.orderingTraces) {
            if (rep.orderingTraces.size() < 50)
                rep.orderingTraces.push_back(v);
        }
    };

    if (opt.progress)
        opt.progress(base);
    const ScheduleResult profile = runSchedule(base);
    rep.eventsProfiled = profile.events;
    absorbOrdering(profile);

    std::vector<CrashPointKind> kinds = opt.kinds;
    if (kinds.empty()) {
        for (unsigned k = 0; k < kNumCrashPointKinds; ++k)
            kinds.push_back(static_cast<CrashPointKind>(k));
    }

    const std::uint64_t per_kind = std::max<std::uint64_t>(
        1, opt.budget / kinds.size());

    for (CrashPointKind kind : kinds) {
        const unsigned ki = kindIndex(kind);
        const std::uint64_t events = rep.eventsProfiled[ki];
        if (events == 0)
            continue; // this scheme never reaches the boundary class
        const std::uint64_t n = std::min(per_kind, events);
        const std::uint64_t stores = std::max<std::uint64_t>(
            1, rep.eventsProfiled[kindIndex(CrashPointKind::Store)]);

        for (std::uint64_t i = 0; i < n; ++i) {
            const std::uint64_t pos = 1 + (i * events) / n;
            CrashSchedule sched = base;
            CrashStep step;
            if (kind == CrashPointKind::RecoveryStep) {
                // Crash-during-recovery: a primary store crash brings
                // the system down, a surviving RecoveryStep countdown
                // crashes the recovery that follows.
                step.kind = CrashPointKind::Store;
                step.countdown = 1 + (i * stores) / n;
                step.recoveryCountdown = pos;
            } else {
                step.kind = kind;
                step.countdown = pos;
            }
            sched.steps.push_back(step);

            if (opt.progress)
                opt.progress(sched);
            const ScheduleResult r = runSchedule(sched);
            absorbOrdering(r);
            ++rep.schedulesRun;
            ++rep.schedulesPerKind[ki];
            if (r.crashFired)
                ++rep.crashesFired;
            if (r.recoveryCrashFired)
                ++rep.recoveryCrashesFired;
            const bool kind_fired = kind == CrashPointKind::RecoveryStep
                                        ? r.recoveryCrashFired
                                        : r.crashFired;
            if (kind_fired)
                ++rep.firedPerKind[ki];
            if (r.violated) {
                Violation v;
                v.detail = r.detail;
                v.reproducer = shrink(sched, &v.detail, opt.progress);
                rep.violations.push_back(std::move(v));
            }
        }
    }
    return rep;
}

} // namespace hoopnvm
