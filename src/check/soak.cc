#include "check/soak.hh"

#include <algorithm>

#include "analysis/order_harness.hh"
#include "check/shrink.hh"
#include "check/spec_json.hh"
#include "common/errors.hh"
#include "common/json.hh"
#include "fleet/client_policy.hh"
#include "sim/system.hh"

namespace hoopnvm
{

void
installRuntimeFaults(System &sys, const SystemConfig &cfg, double prob,
                     unsigned salt)
{
    // Escalation ramps multiply without bound; a saturated phase just
    // means every free word is faulty.
    prob = std::min(prob, 1.0);
    FaultModel &fm = sys.nvm().faults();
    std::size_t i = salt;
    for (const auto &range : sys.controller().freeMediaRanges()) {
        const MediaFaultKind kind = (i & 1)
                                        ? MediaFaultKind::StuckAtOne
                                        : MediaFaultKind::StuckAtZero;
        // Stripe the extent, never more than a handful of fault ranges
        // per extent (classifying a word walks the range list), and
        // lead with the uncorrectable stripe: allocators and the
        // scrubber consume extents front-first, so damage at the front
        // is what short check windows actually reach.
        const Addr len = range.second - range.first;
        const Addr stripe =
            std::max<Addr>(8192, (len / 8 + 7) / 8 * 8);
        unsigned s = 0;
        for (Addr lo = range.first; lo < range.second;
             lo += stripe, ++s) {
            const Addr hi = std::min(range.second, lo + stripe);
            fm.addMediaFault(lo, hi, kind, prob,
                             (s & 1) ? 1 : 3);
        }
        ++i;
    }
    fm.addMediaFault(0, cfg.homeBytes, MediaFaultKind::BitFlip,
                     prob * 0.5, 2);
}

std::string
SoakSpec::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("scheme", schemeToken(scheme));
    w.field("workload", workload);
    w.field("seed", seed);
    w.field("num_cores", numCores);
    w.field("warmup_tx", warmupTx);
    w.field("phases", phases);
    w.field("tx_per_phase", txPerPhase);
    w.field("fault_prob", faultProb);
    w.field("escalation", escalation);
    w.field("recover_threads", recoverThreads);
    w.endObject();
    return w.str();
}

bool
SoakSpec::fromJson(const std::string &text, SoakSpec *out,
                   std::string *err)
{
    *out = SoakSpec{};
    SpecParser p(text);
    const bool ok = p.parseObject([&](const std::string &key) {
        if (key == "scheme")
            return p.parseToken(&out->scheme, schemeFromToken, "scheme");
        if (key == "workload")
            return p.parseString(&out->workload);
        if (key == "seed")
            return p.parseUnsigned(&out->seed);
        if (key == "num_cores")
            return p.parseUnsigned(&out->numCores);
        if (key == "warmup_tx")
            return p.parseUnsigned(&out->warmupTx);
        if (key == "phases")
            return p.parseUnsigned(&out->phases);
        if (key == "tx_per_phase")
            return p.parseUnsigned(&out->txPerPhase);
        if (key == "fault_prob")
            return p.parseNumber(&out->faultProb);
        if (key == "escalation")
            return p.parseNumber(&out->escalation);
        if (key == "recover_threads")
            return p.parseUnsigned(&out->recoverThreads);
        return p.fail("unknown key \"" + key + "\"");
    });

    if (!ok && err)
        *err = p.error();
    return ok;
}

SoakResult
runSoak(const SoakSpec &spec, const SoakProgress &progress)
{
    SoakResult res;

    SystemConfig cfg = smallCheckConfig(spec.numCores, spec.seed);
    cfg.ft.enabled = true;
    System sys(cfg, spec.scheme);
    sys.nvm().faults().setSeed(spec.seed ^ 0x7ea55eedULL);

    auto wls = makeCheckWorkloads(sys, spec.workload);

    const std::string cell =
        std::string(schemeToken(spec.scheme)) + "/" + spec.workload;

    // Same post-recovery oracle as the crash explorer. Runtime faults
    // never touch occupied cells, so committed data must always
    // survive.
    auto oracle = [&](const std::string &when) -> bool {
        const std::string v = verifyRecovered(wls, when);
        if (v.empty())
            return true;
        res.violated = true;
        res.detail = cell + " " + v;
        return false;
    };

    auto sampleGauges = [&]() {
        const ControllerGauges g = sys.controller().sampleGauges();
        res.retiredUnits = g.retiredUnits;
        res.correctedWords = g.correctedWords;
        res.degradedFraction = g.degradedFraction;
        res.readRetries = sys.nvm().readRetries();
        res.uncorrectableReads = sys.nvm().uncorrectableReads();
    };

    std::uint64_t txi = 0;
    for (; txi < spec.warmupTx; ++txi) {
        for (unsigned c = 0; c < cfg.numCores; ++c)
            wls[c]->runTransaction(txi);
        sys.maintenance();
    }

    double prob = spec.faultProb;
    for (unsigned phase = 0; phase < spec.phases;
         ++phase, prob *= spec.escalation) {
        if (progress)
            progress(cell + " phase " + std::to_string(phase) +
                     "/" + std::to_string(spec.phases));

        SoakPhaseStats ph;
        ph.faultProb = prob;
        installRuntimeFaults(sys, cfg, prob, phase);

        for (std::uint64_t n = 0; n < spec.txPerPhase; ++n, ++txi) {
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                try {
                    wls[c]->runTransaction(txi);
                } catch (const TxRejected &rj) {
                    // Shared client policy: admission rejects skip the
                    // transaction, mid-transaction rejects crash +
                    // recover onto the survivor state.
                    const RejectResolution rr = handleClientReject(
                        rj, sys, wls, c, spec.recoverThreads);
                    if (rr.action == RejectAction::CrashRecover) {
                        ++ph.rejectedMidTx;
                        ++ph.recoveries;
                    } else {
                        ++ph.rejectedAdmission;
                    }
                }
            }
            sys.maintenance();
        }

        res.rejectedAdmission += ph.rejectedAdmission;
        res.rejectedMidTx += ph.rejectedMidTx;
        res.recoveries += ph.recoveries;
        res.phases.push_back(ph);

        if (!oracle("end of phase " + std::to_string(phase))) {
            sampleGauges();
            return res;
        }
    }

    // Final endurance check: power-cycle on the fully accumulated
    // damage and make sure recovery (retired units skipped, retirement
    // bitmap reloaded) still restores every committed transaction.
    sys.crash();
    sys.recover(spec.recoverThreads);
    ++res.recoveries;
    for (auto &wl : wls)
        wl->dropPendingShadow();
    oracle("after final crash + recovery");
    sampleGauges();
    return res;
}

SoakSpec
shrinkSoak(const SoakSpec &failing, std::string *detail,
           const SoakProgress &progress)
{
    constexpr int kShrinkBudget = 32;
    const std::vector<ShrinkMutator<SoakSpec>> mutators = {
        [](const SoakSpec &s) -> std::vector<SoakSpec> {
            if (s.phases <= 1)
                return {};
            SoakSpec cand = s;
            cand.phases = s.phases / 2;
            // Dropping early phases changes which faults exist; keep
            // the ramp's tail by raising the base probability to where
            // the removed phases would have escalated it.
            for (unsigned p = cand.phases; p < s.phases; ++p)
                cand.faultProb *= cand.escalation;
            return {cand};
        },
        halveField(&SoakSpec::txPerPhase, std::uint64_t{1}),
        halveField(&SoakSpec::warmupTx),
    };
    return greedyShrink(
        failing, kShrinkBudget,
        [&](const SoakSpec &cand) {
            const SoakResult r = runSoak(cand, progress);
            if (r.violated && detail)
                *detail = r.detail;
            return r.violated;
        },
        mutators);
}

} // namespace hoopnvm
