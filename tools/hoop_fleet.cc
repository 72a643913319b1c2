/**
 * @file
 * hoop_fleet: sharded-fleet robustness harness CLI.
 *
 * Runs scheme x chaos-profile cells of the fleet harness (see
 * fleet/fleet.hh): N independent HOOP shards behind a hashing
 * front-end, an open-loop Poisson client with bounded retry /
 * backoff / deadline, and a deterministic chaos schedule crashing,
 * stalling and fault-ramping shards mid-traffic. Oracles assert that
 * no acked transaction is ever lost across online recoveries, that
 * every request resolves to a structured client outcome, and that
 * every shard is re-admitted by the end of the run.
 *
 * A violating cell is shrunk to a minimal spec and written as
 * replayable JSON; `--replay <file>` re-executes it deterministically.
 * `--inject-ack-bug` arms the seeded ack-before-durable bug on shard 0
 * (self-test: the run MUST violate). `--json` writes per-cell
 * counters and fleet/per-shard latency tails for CI artifact diffing.
 *
 * Exit codes: 0 = clean matrix, 1 = violations found, 2 = usage
 * error, 3 = watchdog budget exceeded.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/watchdog.hh"
#include "cli.hh"
#include "fleet/chaos.hh"
#include "fleet/fleet.hh"

namespace
{

using namespace hoopnvm;

constexpr const char *kUsage =
    "usage: hoop_fleet [options]\n"
    "  --scheme S      hoop|redo|undo|osp|lsm|lad|all   (default all)\n"
    "  --chaos C       none|crashes|stalls|faults|mixed|all\n"
    "                  (default all = crashes,stalls,faults,mixed)\n"
    "  --workload W    vector|hashmap|queue|rbtree|btree|ycsb|tpcc\n"
    "                  (default vector)\n"
    "  --shards N      shard fault domains (default 4)\n"
    "  --cores N       cores per shard (default 2)\n"
    "  --requests N    client requests per cell (default 1500)\n"
    "  --seed N        deterministic seed (default 42)\n"
    "  --warmup N      warmup tx per core per shard (default 10)\n"
    "  --threads N     recovery threads (default 2)\n"
    "  --events N      chaos events per shard (default 2)\n"
    "  --budget-ms N   wall-clock watchdog: abort with exit code 3 if\n"
    "                  progress stalls longer than N ms (0 = off)\n"
    "  --inject-ack-bug  seeded bug self-test: shard 0 acks commits\n"
    "                  before durability; the run must detect it\n"
    "  --out DIR       write reproducer JSON files here (default .)\n"
    "  --json FILE     write per-cell counters as JSON to FILE\n"
    "  --replay FILE   re-execute one fleet spec JSON and exit\n";

const char *kAllProfiles[] = {"crashes", "stalls", "faults", "mixed"};

constexpr cli::Tool kCli("hoop_fleet", kUsage);

void
printResult(const FleetResult &r)
{
    std::printf("  outcomes: acked %llu  rejected %llu  timed out "
                "%llu  shed %llu\n",
                static_cast<unsigned long long>(r.acked),
                static_cast<unsigned long long>(r.rejected),
                static_cast<unsigned long long>(r.timedOut),
                static_cast<unsigned long long>(r.shed));
    std::printf("  client: retries %llu  backoff ticks %llu  deadline "
                "misses %llu  shed admissions %llu\n",
                static_cast<unsigned long long>(r.retryAttempts),
                static_cast<unsigned long long>(r.backoffTicks),
                static_cast<unsigned long long>(r.deadlineMisses),
                static_cast<unsigned long long>(r.shedAdmissions));
    std::printf("  chaos: crashes %llu  stalls %llu  fault ramps %llu "
                " recoveries %llu\n",
                static_cast<unsigned long long>(r.chaosCrashes),
                static_cast<unsigned long long>(r.stallWindows),
                static_cast<unsigned long long>(r.faultRamps),
                static_cast<unsigned long long>(r.recoveries));
    std::printf("  latency ns: p50 %.0f  p99 %.0f  p999 %.0f  max "
                "%.0f (%llu samples)\n",
                r.latency.p50Ns, r.latency.p99Ns, r.latency.p999Ns,
                r.latency.maxNs,
                static_cast<unsigned long long>(r.latency.count));
}

void
writeCell(JsonWriter &w, const FleetSpec &spec, const FleetResult &r)
{
    w.beginObject();
    w.field("scheme", schemeToken(spec.scheme));
    w.field("chaos", spec.chaosProfile);
    w.field("workload", spec.workload);
    w.field("shards", spec.shards);
    w.field("violated", r.violated);
    w.field("requests", r.requests);
    w.field("acked", r.acked);
    w.field("rejected", r.rejected);
    w.field("timed_out", r.timedOut);
    w.field("shed", r.shed);
    w.field("retry_attempts", r.retryAttempts);
    w.field("backoff_ticks", r.backoffTicks);
    w.field("deadline_misses", r.deadlineMisses);
    w.field("shed_admissions", r.shedAdmissions);
    w.field("recoveries", r.recoveries);
    w.field("chaos_crashes", r.chaosCrashes);
    w.field("stall_windows", r.stallWindows);
    w.field("fault_ramps", r.faultRamps);
    w.key("latency");
    writeJson(w, r.latency);
    w.key("per_shard");
    w.beginArray();
    for (const FleetShardReport &sh : r.shards) {
        w.beginObject();
        w.field("shard", sh.shard);
        w.field("acked", sh.counters.acked);
        w.field("rejected_admission", sh.counters.rejectedAdmission);
        w.field("rejected_mid_tx", sh.counters.rejectedMidTx);
        w.field("recoveries", sh.counters.recoveries);
        w.field("chaos_crashes", sh.counters.chaosCrashes);
        w.field("stall_windows", sh.counters.stallWindows);
        w.field("fault_ramps", sh.counters.faultRamps);
        w.field("retry_attempts", sh.retryAttempts);
        w.field("backoff_ticks", sh.backoffTicks);
        w.field("deadline_misses", sh.deadlineMisses);
        w.field("shed_admissions", sh.shedAdmissions);
        w.field("admitting_at_end", sh.admittingAtEnd);
        w.field("retired_units", sh.retiredUnits);
        w.field("degraded_fraction", sh.degradedFraction);
        w.key("latency");
        writeJson(w, sh.latency);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

int
replay(const std::string &path, const FleetProgress &progress)
{
    FleetSpec spec;
    if (const auto rc = kCli.readSpec(path, "fleet spec", &spec))
        return *rc;

    std::printf("replaying %s (%s/%s, chaos %s, seed %llu, %u "
                "shards)\n",
                path.c_str(), schemeToken(spec.scheme),
                spec.workload.c_str(), spec.chaosProfile.c_str(),
                static_cast<unsigned long long>(spec.seed),
                spec.shards);
    const FleetResult r = runFleet(spec, progress);
    printResult(r);
    return cli::replayVerdict(r.violated, r.detail);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hoopnvm;

    std::string scheme_arg = "all";
    std::string chaos_arg = "all";
    std::string out_dir = ".";
    std::string json_path;
    std::string replay_path;
    FleetSpec base;
    std::uint64_t budget_ms = 0;

    if (const auto rc = kCli.parse(
            argc, argv,
            {{"--scheme", &scheme_arg},
             {"--chaos", &chaos_arg},
             {"--workload", &base.workload},
             {"--shards", &base.shards},
             {"--cores", &base.coresPerShard},
             {"--requests", &base.requests},
             {"--seed", &base.seed},
             {"--warmup", &base.warmupTx},
             {"--threads", &base.recoverThreads},
             {"--events", &base.chaosEventsPerShard},
             {"--budget-ms", &budget_ms},
             {"--inject-ack-bug", &base.injectAckBeforeDurable},
             {"--out", &out_dir},
             {"--json", &json_path},
             {"--replay", &replay_path}}))
        return *rc;

    if (base.shards == 0 || base.coresPerShard == 0 ||
        base.requests == 0)
        return kCli.usageError(
            "--shards, --cores and --requests must be positive");

    Watchdog watchdog(budget_ms);
    const FleetProgress progress =
        [&watchdog](const std::string &label) { watchdog.beat(label); };
    if (!replay_path.empty())
        return replay(replay_path, progress);

    if (const auto rc = kCli.makeOutDir(out_dir))
        return *rc;
    std::vector<Scheme> schemes;
    if (const auto rc = kCli.expandSchemes(scheme_arg, &schemes))
        return *rc;

    std::vector<std::string> profiles;
    if (chaos_arg == "all") {
        profiles.assign(std::begin(kAllProfiles),
                        std::end(kAllProfiles));
    } else {
        if (!chaosProfileKnown(chaos_arg))
            return kCli.usageError("unknown chaos profile " + chaos_arg);
        profiles.push_back(chaos_arg);
    }

    JsonWriter cells_json;
    cells_json.beginObject();
    cells_json.field("tool", "hoop_fleet");
    cells_json.key("cells");
    cells_json.beginArray();
    std::size_t violation_files = 0;
    std::size_t total_violations = 0;

    for (Scheme scheme : schemes) {
        for (const std::string &profile : profiles) {
            FleetSpec spec = base;
            spec.scheme = scheme;
            spec.chaosProfile = profile;

            const FleetResult r = runFleet(spec, progress);
            std::printf("%-6s %-8s %s\n", schemeToken(scheme),
                        profile.c_str(),
                        r.violated ? "VIOLATED" : "clean");
            printResult(r);
            writeCell(cells_json, spec, r);

            if (r.violated) {
                ++total_violations;
                std::string detail = r.detail;
                const FleetSpec repro =
                    shrinkFleet(spec, &detail, progress);
                cli::writeReproducer(out_dir, "fleet", scheme, profile,
                                     violation_files++, detail,
                                     repro.toJson());
            }
        }
    }

    cells_json.endArray();
    cells_json.endObject();
    if (!json_path.empty())
        std::ofstream(json_path) << cells_json.str();

    std::printf("total: %zu cell(s) violated\n", total_violations);
    return total_violations == 0 ? 0 : 1;
}
