#include "fleet/shard.hh"

#include <algorithm>

#include "analysis/order_harness.hh"
#include "check/soak.hh"
#include "common/errors.hh"
#include "fleet/client_policy.hh"

namespace hoopnvm
{

FleetShard::FleetShard(unsigned id, const ShardConfig &cfg)
    : id_(id),
      cfg_(cfg),
      sysCfg_(smallCheckConfig(cfg.numCores, cfg.seed))
{
    sysCfg_.ft.enabled = true;
    if (cfg_.injectAckBeforeDurable) {
        // Seeded bug: drop the fence between data persistence and the
        // commit record, so a crash can tear an already-acked commit.
        sysCfg_.debugNoCommitFence = true;
    }
    sys_ = std::make_unique<System>(sysCfg_, cfg_.scheme);
    sys_->nvm().faults().setSeed(cfg_.seed ^ 0x7ea55eedULL);
    if (cfg_.injectAckBeforeDurable)
        sys_->nvm().faults().setTornWrites(true);

    wls_ = makeCheckWorkloads(*sys_, cfg_.workload);
}

FleetShard::~FleetShard() = default;

void
FleetShard::warmup()
{
    for (std::uint64_t txi = 0; txi < cfg_.warmupTx; ++txi) {
        for (CoreId c = 0; c < cfg_.numCores; ++c)
            wls_[c]->runTransaction(txi);
        sys_->maintenance();
    }
}

ServeResult
FleetShard::serve(CoreId core, std::uint64_t seq,
                  std::string *violation)
{
    ServeResult r;
    const Tick before = sys_->core(core).clock();
    try {
        wls_[core]->runTransaction(seq);
        sys_->maintenance();
        r.status = ServeStatus::Acked;
        ++counters_.acked;
    } catch (const TxRejected &rj) {
        const RejectResolution res = handleClientReject(
            rj, *sys_, wls_, core, cfg_.recoverThreads);
        if (res.action == RejectAction::AdmissionSkip) {
            r.status = ServeStatus::RejectedAdmission;
            ++counters_.rejectedAdmission;
        } else {
            r.status = ServeStatus::RejectedMidTx;
            r.recoveryTicks = res.recoveryTicks;
            ++counters_.rejectedMidTx;
            ++counters_.recoveries;
            // Every recovery must land on the survivor state.
            oracle("after mid-transaction unwind recovery", violation);
        }
    }
    const Tick after = sys_->core(core).clock();
    r.serviceTicks = after > before ? after - before : 1;
    return r;
}

bool
FleetShard::chaosCrash(Tick now, std::string *violation)
{
    sys_->crash();
    const Tick rt = sys_->recover(cfg_.recoverThreads);
    for (auto &wl : wls_)
        wl->dropPendingShadow();
    unavailableUntil_ = std::max(unavailableUntil_, now + rt);
    ++counters_.chaosCrashes;
    ++counters_.recoveries;
    return oracle("after chaos crash recovery", violation);
}

void
FleetShard::chaosStall(Tick now, Tick duration)
{
    unavailableUntil_ = std::max(unavailableUntil_, now + duration);
    ++counters_.stallWindows;
}

void
FleetShard::chaosFaultRamp(double prob, unsigned salt)
{
    installRuntimeFaults(*sys_, sysCfg_, prob, salt);
    ++counters_.faultRamps;
}

bool
FleetShard::admit(Tick queueDepth)
{
    // Tighten the gate as retirement eats capacity, but floor the
    // scale: the re-admission threshold must stay positive so a shard
    // with an empty queue always re-opens, no matter how degraded —
    // the end-of-run "every shard re-admitted" oracle relies on it.
    const double scale = std::max(0.25, 1.0 - degradedFraction());
    const Tick high = static_cast<Tick>(
        static_cast<double>(cfg_.shedHighTicks) * scale);
    const Tick low = static_cast<Tick>(
        static_cast<double>(cfg_.shedLowTicks) * scale);
    if (admitting_) {
        if (queueDepth > high)
            admitting_ = false;
    } else if (queueDepth <= low) {
        admitting_ = true;
    }
    return admitting_;
}

bool
FleetShard::oracle(const std::string &when, std::string *violation)
{
    const std::string v = verifyRecovered(wls_, when);
    if (v.empty())
        return true;
    if (violation && violation->empty())
        *violation = "shard " + std::to_string(id_) + " " + v;
    return false;
}

double
FleetShard::degradedFraction()
{
    return sys_->controller().sampleGauges().degradedFraction;
}

} // namespace hoopnvm
