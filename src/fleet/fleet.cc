#include "fleet/fleet.hh"

#include <algorithm>
#include <memory>

#include "check/shrink.hh"
#include "check/spec_json.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "fleet/arrivals.hh"
#include "fleet/chaos.hh"
#include "fleet/client_policy.hh"

namespace hoopnvm
{
namespace
{

/** Stateless 64-bit finalizer (splitmix64) for tenant routing. */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace

std::string
FleetSpec::toJson() const
{
    JsonWriter w;
    w.beginObject();
    w.field("scheme", schemeToken(scheme));
    w.field("workload", workload);
    w.field("chaos_profile", chaosProfile);
    w.field("seed", seed);
    w.field("shards", shards);
    w.field("cores_per_shard", coresPerShard);
    w.field("requests", requests);
    w.field("warmup_tx", warmupTx);
    w.field("recover_threads", recoverThreads);
    w.field("max_attempts", maxAttempts);
    w.field("backoff_base_ns", backoffBaseNs);
    w.field("deadline_ns", deadlineNs);
    w.field("mean_interarrival_ns", meanInterarrivalNs);
    w.field("think_ns", thinkNs);
    w.field("tenants", tenants);
    w.field("tenant_theta", tenantTheta);
    w.field("connections", connections);
    w.field("churn_prob", churnProb);
    w.field("chaos_events_per_shard", chaosEventsPerShard);
    w.field("fault_prob", faultProb);
    w.field("inject_ack_before_durable", injectAckBeforeDurable);
    w.endObject();
    return w.str();
}

bool
FleetSpec::fromJson(const std::string &text, FleetSpec *out,
                    std::string *err)
{
    *out = FleetSpec{};
    SpecParser p(text);
    const bool ok = p.parseObject([&](const std::string &key) {
        if (key == "scheme")
            return p.parseToken(&out->scheme, schemeFromToken, "scheme");
        if (key == "workload")
            return p.parseString(&out->workload);
        if (key == "chaos_profile") {
            return p.parseString(&out->chaosProfile) &&
                   (chaosProfileKnown(out->chaosProfile) ||
                    p.fail("unknown chaos profile \"" +
                           out->chaosProfile + "\""));
        }
        if (key == "seed")
            return p.parseUnsigned(&out->seed);
        if (key == "shards")
            return p.parseUnsigned(&out->shards);
        if (key == "cores_per_shard")
            return p.parseUnsigned(&out->coresPerShard);
        if (key == "requests")
            return p.parseUnsigned(&out->requests);
        if (key == "warmup_tx")
            return p.parseUnsigned(&out->warmupTx);
        if (key == "recover_threads")
            return p.parseUnsigned(&out->recoverThreads);
        if (key == "max_attempts")
            return p.parseUnsigned(&out->maxAttempts);
        if (key == "backoff_base_ns")
            return p.parseNumber(&out->backoffBaseNs);
        if (key == "deadline_ns")
            return p.parseNumber(&out->deadlineNs);
        if (key == "mean_interarrival_ns")
            return p.parseNumber(&out->meanInterarrivalNs);
        if (key == "think_ns")
            return p.parseNumber(&out->thinkNs);
        if (key == "tenants")
            return p.parseUnsigned(&out->tenants);
        if (key == "tenant_theta")
            return p.parseNumber(&out->tenantTheta);
        if (key == "connections")
            return p.parseUnsigned(&out->connections);
        if (key == "churn_prob")
            return p.parseNumber(&out->churnProb);
        if (key == "chaos_events_per_shard")
            return p.parseUnsigned(&out->chaosEventsPerShard);
        if (key == "fault_prob")
            return p.parseNumber(&out->faultProb);
        if (key == "inject_ack_before_durable")
            return p.parseBool(&out->injectAckBeforeDurable);
        return p.fail("unknown key \"" + key + "\"");
    });

    if (!ok && err)
        *err = p.error();
    return ok;
}

FleetResult
runFleet(const FleetSpec &spec, const FleetProgress &progress)
{
    FleetResult res;
    res.requests = spec.requests;
    if (spec.shards == 0 || spec.coresPerShard == 0)
        return res;

    // ---- Build the shard fleet (each its own System + workloads) ----
    std::vector<std::unique_ptr<FleetShard>> shards;
    for (unsigned s = 0; s < spec.shards; ++s) {
        ShardConfig sc;
        sc.scheme = spec.scheme;
        sc.workload = spec.workload;
        sc.numCores = spec.coresPerShard;
        // Distinct per-shard seeds: sibling shards must not be clones
        // of each other, or a data-dependent bug fires in lockstep.
        sc.seed = spec.seed + 0x100003ULL * (s + 1);
        sc.recoverThreads = spec.recoverThreads;
        sc.warmupTx = spec.warmupTx;
        sc.injectAckBeforeDurable =
            spec.injectAckBeforeDurable && s == 0;
        shards.push_back(std::make_unique<FleetShard>(s, sc));
        shards.back()->warmup();
    }

    // ---- Generate the open-loop arrival schedule ----
    ArrivalConfig ac;
    ac.seed = spec.seed ^ 0xa55a5aa5ULL;
    ac.meanInterarrival =
        std::max<Tick>(1, nsToTicks(spec.meanInterarrivalNs));
    ac.thinkTicks = nsToTicks(spec.thinkNs);
    ac.tenants = std::max(1u, spec.tenants);
    ac.tenantTheta = spec.tenantTheta;
    ac.connections = std::max(1u, spec.connections);
    ac.churnProb = spec.churnProb;
    ArrivalGenerator gen(ac);
    std::vector<Arrival> arrivals;
    arrivals.reserve(spec.requests);
    for (std::uint64_t i = 0; i < spec.requests; ++i)
        arrivals.push_back(gen.next());
    std::sort(arrivals.begin(), arrivals.end(),
              [](const Arrival &a, const Arrival &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  return a.seq < b.seq;
              });

    // ---- Expand the chaos schedule over the traffic horizon ----
    const Tick horizon =
        arrivals.empty() ? 0 : arrivals.back().at + 1;
    ChaosTuning tuning;
    tuning.eventsPerShard = spec.chaosEventsPerShard;
    tuning.faultProb = spec.faultProb;
    std::vector<ChaosEvent> chaos = expandChaosProfile(
        spec.chaosProfile, spec.shards, horizon, spec.seed, tuning);
    if (spec.injectAckBeforeDurable) {
        // The self-test needs crashes on the buggy shard to expose the
        // non-durable ack. Force several across the traffic window —
        // whether a specific crash tears the undurable commit record
        // depends on what was in flight, so one shot is not enough.
        for (unsigned k = 1; k <= 3; ++k) {
            ChaosEvent ev;
            ev.at = horizon * k / 4;
            ev.shard = 0;
            ev.kind = ChaosKind::Crash;
            ev.salt = 10'000 + k;
            chaos.push_back(ev);
        }
        std::sort(chaos.begin(), chaos.end(),
                  [](const ChaosEvent &a, const ChaosEvent &b) {
                      if (a.at != b.at)
                          return a.at < b.at;
                      if (a.shard != b.shard)
                          return a.shard < b.shard;
                      return a.salt < b.salt;
                  });
    }

    // ---- Client state ----
    RetryPolicy policy;
    policy.maxAttempts = std::max(1u, spec.maxAttempts);
    policy.backoffBase = std::max<Tick>(1, nsToTicks(spec.backoffBaseNs));
    policy.deadlineTicks = nsToTicks(spec.deadlineNs);
    Rng retryRng(spec.seed ^ 0xb0ffb0ffULL);

    // Per-shard, per-core backlog horizon in fleet ticks: the earliest
    // tick a new request on that core could start. Decoupled from the
    // Systems' internal clocks — a System advances core time only when
    // it actually serves.
    std::vector<std::vector<Tick>> busyUntil(
        spec.shards, std::vector<Tick>(spec.coresPerShard, 0));

    // Per-shard reports; the dispatch loop tallies the client-side
    // retry, backoff, deadline and shed counts straight into them.
    std::vector<FleetShardReport> reps(spec.shards);

    std::size_t chaosIdx = 0;
    std::uint64_t seq = 0;

    // Apply chaos events the fleet clock has passed. Events land
    // between requests (a documented approximation — the schedule
    // stays deterministic and every event still fires mid-traffic).
    auto applyChaosUpTo = [&](Tick now) {
        while (chaosIdx < chaos.size() && chaos[chaosIdx].at <= now) {
            const ChaosEvent &ev = chaos[chaosIdx++];
            FleetShard &sh = *shards[ev.shard];
            switch (ev.kind) {
              case ChaosKind::Crash:
                if (!sh.chaosCrash(ev.at, &res.detail))
                    res.violated = true;
                // The crash wiped the queue's context; nothing can
                // start before the recovery completes.
                for (Tick &b : busyUntil[ev.shard])
                    b = std::max(b, sh.unavailableUntil());
                break;
              case ChaosKind::Stall:
                sh.chaosStall(ev.at, ev.durationTicks);
                break;
              case ChaosKind::FaultRamp:
                sh.chaosFaultRamp(ev.faultProb, ev.salt);
                break;
            }
            if (progress)
                progress("chaos " +
                         std::string(chaosKindName(ev.kind)) +
                         " shard " + std::to_string(ev.shard) + " @" +
                         std::to_string(ev.at));
            if (res.violated)
                return;
        }
    };

    // ---- Dispatch loop ----
    const std::uint64_t tenth =
        std::max<std::uint64_t>(1, arrivals.size() / 10);
    for (std::size_t i = 0; i < arrivals.size() && !res.violated;
         ++i) {
        const Arrival &a = arrivals[i];
        if (progress && i % tenth == 0)
            progress("request " + std::to_string(i) + "/" +
                     std::to_string(arrivals.size()));
        applyChaosUpTo(a.at);
        if (res.violated)
            break;

        const unsigned s =
            static_cast<unsigned>(mix64(a.tenant) % spec.shards);
        const CoreId core = static_cast<CoreId>(
            mix64(a.tenant ^ 0x9e3779b97f4a7c15ULL) %
            spec.coresPerShard);
        FleetShard &sh = *shards[s];

        Tick t = a.at;
        unsigned attempts = 0;
        ClientOutcome outcome = ClientOutcome::Rejected;

        auto backoffOrGiveUp = [&](Tick floorTick,
                                   ClientOutcome onExhaust) {
            ++attempts;
            if (attempts >= policy.maxAttempts) {
                outcome = onExhaust;
                return false;
            }
            const Tick b =
                retryBackoffTicks(policy, attempts - 1, retryRng);
            ++reps[s].retryAttempts;
            reps[s].backoffTicks += b;
            t = std::max(floorTick, t + b);
            return true;
        };

        for (;;) {
            if (pastDeadline(policy, a.at, t)) {
                outcome = ClientOutcome::TxTimeout;
                ++reps[s].deadlineMisses;
                break;
            }
            if (!sh.availableAt(t)) {
                if (!backoffOrGiveUp(sh.unavailableUntil(),
                                     ClientOutcome::Rejected))
                    break;
                continue;
            }
            const Tick start = std::max(
                {t, busyUntil[s][core], sh.unavailableUntil()});
            if (!sh.admit(start - t)) {
                ++reps[s].shedAdmissions;
                if (!backoffOrGiveUp(t, ClientOutcome::Shed))
                    break;
                continue;
            }

            const ServeResult sr = sh.serve(core, seq++, &res.detail);
            if (!res.detail.empty()) {
                res.violated = true;
                break;
            }
            const Tick done = start + sr.serviceTicks;
            busyUntil[s][core] = done;

            if (sr.status == ServeStatus::Acked) {
                sh.recordLatency(done - a.at);
                if (pastDeadline(policy, a.at, done)) {
                    // The commit is durable and acked — late, not
                    // lost. Count the miss; the outcome stays Acked.
                    ++reps[s].deadlineMisses;
                }
                outcome = ClientOutcome::Acked;
                break;
            }
            if (sr.status == ServeStatus::RejectedMidTx) {
                // The unwind crash+recovered the shard: unavailable
                // until recovery completes, then the client retries.
                sh.beginUnavailability(done, sr.recoveryTicks);
                for (Tick &b : busyUntil[s])
                    b = std::max(b, sh.unavailableUntil());
                if (!backoffOrGiveUp(sh.unavailableUntil(),
                                     ClientOutcome::Rejected))
                    break;
                continue;
            }
            // Admission-time TxRejected (capacity degraded).
            if (!backoffOrGiveUp(done, ClientOutcome::Rejected))
                break;
        }

        if (res.violated)
            break;
        switch (outcome) {
          case ClientOutcome::Acked:
            ++res.acked;
            break;
          case ClientOutcome::Rejected:
            ++res.rejected;
            break;
          case ClientOutcome::TxTimeout:
            ++res.timedOut;
            break;
          case ClientOutcome::Shed:
            ++res.shed;
            break;
        }
    }

    // ---- Drain + probe phase ----
    if (!res.violated) {
        if (progress)
            progress("drain + probe");
        // Fire any chaos events still pending, then let every queue
        // and unavailability window drain.
        applyChaosUpTo(kNeverTick - 1);
    }
    if (!res.violated) {
        for (unsigned s = 0; s < spec.shards; ++s) {
            FleetShard &sh = *shards[s];
            // A drained shard sees zero backlog; the hysteresis gate
            // must re-open no matter how degraded the shard got.
            sh.admit(0);
            if (!sh.admitting()) {
                res.violated = true;
                res.detail = "shard " + std::to_string(s) +
                             " not re-admitted after drain";
                break;
            }
            // Probe: every core serves one more transaction, proving
            // the shard is live after all its recoveries.
            for (CoreId c = 0; c < spec.coresPerShard && !res.violated;
                 ++c) {
                const ServeResult sr = sh.serve(c, seq++, &res.detail);
                if (!res.detail.empty()) {
                    res.violated = true;
                    break;
                }
                if (sr.status == ServeStatus::RejectedMidTx) {
                    res.violated = true;
                    res.detail = "shard " + std::to_string(s) +
                                 " probe transaction unwound after "
                                 "drain";
                    break;
                }
            }
            if (res.violated)
                break;
            if (!sh.oracle("end of run", &res.detail)) {
                res.violated = true;
                break;
            }
        }
    }

    // ---- Reports (always emitted, also for violating runs) ----
    Histogram fleetH;
    for (unsigned s = 0; s < spec.shards; ++s) {
        FleetShard &sh = *shards[s];
        FleetShardReport &rep = reps[s];
        rep.shard = s;
        rep.counters = sh.counters();
        rep.admittingAtEnd = sh.admitting();
        const ControllerGauges g =
            sh.system().controller().sampleGauges();
        rep.retiredUnits = g.retiredUnits;
        rep.degradedFraction = g.degradedFraction;
        rep.latency = summarizeTicks(&sh.latency());
        fleetH.merge(sh.latency());

        res.retryAttempts += rep.retryAttempts;
        res.backoffTicks += rep.backoffTicks;
        res.deadlineMisses += rep.deadlineMisses;
        res.shedAdmissions += rep.shedAdmissions;
        res.recoveries += rep.counters.recoveries;
        res.chaosCrashes += rep.counters.chaosCrashes;
        res.stallWindows += rep.counters.stallWindows;
        res.faultRamps += rep.counters.faultRamps;
    }
    res.shards = std::move(reps);
    res.latency = summarizeTicks(&fleetH);
    return res;
}

FleetSpec
shrinkFleet(const FleetSpec &failing, std::string *detail,
            const FleetProgress &progress)
{
    constexpr int kShrinkBudget = 24;
    const std::vector<ShrinkMutator<FleetSpec>> mutators = {
        halveField(&FleetSpec::requests, std::uint64_t{16}),
        halveField(&FleetSpec::shards, 1u),
        halveField(&FleetSpec::chaosEventsPerShard),
        halveField(&FleetSpec::warmupTx),
    };
    return greedyShrink(
        failing, kShrinkBudget,
        [&](const FleetSpec &cand) {
            const FleetResult r = runFleet(cand, progress);
            if (r.violated && detail)
                *detail = r.detail;
            return r.violated;
        },
        mutators);
}

} // namespace hoopnvm
