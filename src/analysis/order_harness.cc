#include "analysis/order_harness.hh"

#include <memory>

#include "sim/system.hh"
#include "workloads/registry.hh"

namespace hoopnvm
{

SystemConfig
smallCheckConfig(unsigned numCores, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.numCores = numCores;
    cfg.seed = seed;
    cfg.homeBytes = miB(64);
    // Small OOP blocks fill within a short window, so HOOP's GC has
    // real migration candidates; the watermark and recycle rules need
    // GC to actually collect something.
    cfg.oopBytes = miB(1);
    cfg.oopBlockBytes = kiB(8);
    cfg.auxBytes = miB(64) + miB(8);
    cfg.cache.l1Size = kiB(1);
    cfg.cache.l1Assoc = 2;
    cfg.cache.l2Size = kiB(4);
    cfg.cache.l2Assoc = 2;
    cfg.cache.llcSize = kiB(16);
    cfg.cache.llcAssoc = 4;
    cfg.gcPeriod = nsToTicks(10'000);
    return cfg;
}

std::vector<std::unique_ptr<Workload>>
makeCheckWorkloads(System &sys, const std::string &name)
{
    WorkloadParams params;
    params.valueBytes = 64;
    params.scale = 128;
    auto factory = makeWorkload(name, params);
    std::vector<std::unique_ptr<Workload>> wls;
    for (unsigned c = 0; c < sys.config().numCores; ++c) {
        wls.push_back(factory(sys, c));
        wls.back()->setup();
    }
    return wls;
}

std::string
verifyRecovered(std::vector<std::unique_ptr<Workload>> &wls,
                const std::string &when)
{
    for (std::size_t c = 0; c < wls.size(); ++c) {
        bool ok = wls[c]->verify();
        if (!ok && wls[c]->hasPendingShadow()) {
            wls[c]->applyPendingShadow();
            ok = wls[c]->verify();
        } else {
            wls[c]->dropPendingShadow();
        }
        if (!ok) {
            return "core " + std::to_string(c) +
                   ": committed state lost or phantom data surfaced (" +
                   when + ")";
        }
        std::string why;
        if (!wls[c]->verifyStructure(&why)) {
            return "core " + std::to_string(c) +
                   ": structural invariant broken (" + when + "): " + why;
        }
    }
    return "";
}

OrderCheckReport
runOrderCheck(const OrderCheckOptions &opt)
{
    SystemConfig cfg = smallCheckConfig(opt.numCores, opt.seed);
    cfg.debugNoCommitFence = opt.breakCommitFence;
    cfg.debugEarlyCommitAck = opt.earlyCommitAck;
    cfg.debugSkipSettleFences = opt.skipSettleFences;
    cfg.debugSkipUndoLog = opt.skipUndoLog;

    System sys(cfg, opt.scheme);
    if (opt.tornWrites) {
        sys.nvm().faults().setSeed(opt.seed ^ 0x7ea55eedULL);
        sys.nvm().faults().setTornWrites(true);
    }

    auto wls = makeCheckWorkloads(sys, opt.workload);

    // Warmup runs untracked: rules judge the steady state, and setup /
    // cold-cache traffic would only add noise to the counters.
    std::uint64_t txi = 0;
    for (; txi < opt.warmupTx; ++txi) {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            wls[c]->runTransaction(txi);
        sys.maintenance();
    }

    OrderingTracker tracker;
    sys.armOrdering(&tracker);

    OrderCheckReport rep;
    for (std::uint64_t n = 0; n < opt.runTx; ++n, ++txi) {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            wls[c]->runTransaction(txi);
        sys.maintenance();
        rep.transactions += cfg.numCores;
    }
    // The final drain pushes every background mechanism to completion
    // (GC, checkpoints, truncation), so drain-side rules must fire at
    // least once in any non-trivial run.
    sys.finalize();

    rep.verified = true;
    for (auto &wl : wls)
        rep.verified = rep.verified && wl->verify();

    rep.rules = tracker.ruleReports();
    rep.deadRules = tracker.deadRules();
    rep.violations = tracker.violations();
    rep.warnings = tracker.warnings();
    rep.counters = tracker.counters();
    rep.totalViolations = tracker.totalViolations();

    sys.armOrdering(nullptr);
    return rep;
}

} // namespace hoopnvm
