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
#include <sstream>
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
appendLatencyJson(std::ostringstream &os, const LatencySummary &l)
{
    os << "{\"count\": " << l.count << ", \"p50_ns\": " << l.p50Ns
       << ", \"p95_ns\": " << l.p95Ns << ", \"p99_ns\": " << l.p99Ns
       << ", \"p999_ns\": " << l.p999Ns << ", \"max_ns\": " << l.maxNs
       << ", \"mean_ns\": " << l.meanNs << "}";
}

void
appendCellJson(std::string &doc, const FleetSpec &spec,
               const FleetResult &r, bool first)
{
    std::ostringstream os;
    os << (first ? "" : ",") << "\n    {\"scheme\": \""
       << schemeToken(spec.scheme) << "\", \"chaos\": \""
       << spec.chaosProfile << "\", \"workload\": \"" << spec.workload
       << "\", \"shards\": " << spec.shards << ", \"violated\": "
       << (r.violated ? "true" : "false")
       << ", \"requests\": " << r.requests
       << ", \"acked\": " << r.acked
       << ", \"rejected\": " << r.rejected
       << ", \"timed_out\": " << r.timedOut
       << ", \"shed\": " << r.shed
       << ", \"retry_attempts\": " << r.retryAttempts
       << ", \"backoff_ticks\": " << r.backoffTicks
       << ", \"deadline_misses\": " << r.deadlineMisses
       << ", \"shed_admissions\": " << r.shedAdmissions
       << ", \"recoveries\": " << r.recoveries
       << ", \"chaos_crashes\": " << r.chaosCrashes
       << ", \"stall_windows\": " << r.stallWindows
       << ", \"fault_ramps\": " << r.faultRamps
       << ", \"latency\": ";
    appendLatencyJson(os, r.latency);
    os << ", \"per_shard\": [";
    for (std::size_t s = 0; s < r.shards.size(); ++s) {
        const FleetShardReport &sh = r.shards[s];
        os << (s ? ", " : "") << "{\"shard\": " << sh.shard
           << ", \"acked\": " << sh.counters.acked
           << ", \"rejected_admission\": "
           << sh.counters.rejectedAdmission
           << ", \"rejected_mid_tx\": " << sh.counters.rejectedMidTx
           << ", \"recoveries\": " << sh.counters.recoveries
           << ", \"chaos_crashes\": " << sh.counters.chaosCrashes
           << ", \"stall_windows\": " << sh.counters.stallWindows
           << ", \"fault_ramps\": " << sh.counters.faultRamps
           << ", \"retry_attempts\": " << sh.retryAttempts
           << ", \"backoff_ticks\": " << sh.backoffTicks
           << ", \"deadline_misses\": " << sh.deadlineMisses
           << ", \"shed_admissions\": " << sh.shedAdmissions
           << ", \"admitting_at_end\": "
           << (sh.admittingAtEnd ? "true" : "false")
           << ", \"retired_units\": " << sh.retiredUnits
           << ", \"degraded_fraction\": " << sh.degradedFraction
           << ", \"latency\": ";
        appendLatencyJson(os, sh.latency);
        os << "}";
    }
    os << "]}";
    doc += os.str();
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

    std::string cells_json;
    std::size_t violation_files = 0;
    std::size_t total_violations = 0;
    bool first_cell = true;

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
            appendCellJson(cells_json, spec, r, first_cell);
            first_cell = false;

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

    if (!json_path.empty()) {
        std::ofstream f(json_path);
        f << "{\n  \"tool\": \"hoop_fleet\",\n  \"cells\": ["
          << cells_json << "\n  ]\n}\n";
    }

    std::printf("total: %zu cell(s) violated\n", total_violations);
    return total_violations == 0 ? 0 : 1;
}
