/**
 * @file
 * hoop_soak: media-fault endurance harness CLI.
 *
 * Runs every requested scheme x workload cell through an escalating
 * media-fault ramp (see check/soak.hh), asserting that committed data
 * survives and that capacity exhaustion degrades gracefully into
 * structured TxRejected outcomes instead of aborts or wedges. A
 * violating cell is shrunk to a minimal spec and written as replayable
 * JSON; `--replay <file>` re-executes it deterministically. `--json`
 * writes the per-cell counters for CI artifact diffing.
 *
 * Exit codes: 0 = clean matrix, 1 = violations found, 2 = usage
 * error, 3 = per-phase watchdog budget exceeded.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/soak.hh"
#include "check/watchdog.hh"
#include "common/json.hh"
#include "cli.hh"

namespace
{

using namespace hoopnvm;

constexpr const char *kUsage =
    "usage: hoop_soak [options]\n"
    "  --scheme S      hoop|redo|undo|osp|lsm|lad|all   (default all)\n"
    "  --workload W    vector|hashmap|queue|rbtree|btree|ycsb|tpcc|all\n"
    "                  (default all)\n"
    "  --seed N        deterministic seed (default 42)\n"
    "  --phases N      escalation steps per cell (default 4)\n"
    "  --tx N          transactions per core per phase (default 60)\n"
    "  --warmup N      fault-free warmup transactions (default 10)\n"
    "  --fault-prob P  per-word fault probability of phase 0\n"
    "                  (default 0.01)\n"
    "  --escalation X  per-phase probability multiplier (default 2)\n"
    "  --threads N     recovery threads (default 2)\n"
    "  --budget-ms N   per-phase wall-clock watchdog: abort with exit\n"
    "                  code 3 if any single phase runs longer than\n"
    "                  N ms (default 0 = off)\n"
    "  --out DIR       write reproducer JSON files here (default .)\n"
    "  --json FILE     write per-cell counters as JSON to FILE\n"
    "  --replay FILE   re-execute one soak spec JSON and exit\n";

constexpr cli::Tool kCli("hoop_soak", kUsage);

void
printResult(const SoakResult &r)
{
    std::printf("  admission rejects %llu  mid-tx unwinds %llu  "
                "recoveries %llu\n",
                static_cast<unsigned long long>(r.rejectedAdmission),
                static_cast<unsigned long long>(r.rejectedMidTx),
                static_cast<unsigned long long>(r.recoveries));
    std::printf("  retired units %llu  corrected words %llu  "
                "read retries %llu  uncorrectable reads %llu  "
                "degraded %.3f\n",
                static_cast<unsigned long long>(r.retiredUnits),
                static_cast<unsigned long long>(r.correctedWords),
                static_cast<unsigned long long>(r.readRetries),
                static_cast<unsigned long long>(r.uncorrectableReads),
                r.degradedFraction);
}

int
replay(const std::string &path, const SoakProgress &progress)
{
    SoakSpec spec;
    if (const auto rc = kCli.readSpec(path, "soak spec", &spec))
        return *rc;

    std::printf("replaying %s (%s/%s, seed %llu, %u phases)\n",
                path.c_str(), schemeToken(spec.scheme),
                spec.workload.c_str(),
                static_cast<unsigned long long>(spec.seed),
                spec.phases);
    const SoakResult r = runSoak(spec, progress);
    printResult(r);
    return cli::replayVerdict(r.violated, r.detail);
}

void
writeCell(JsonWriter &w, const SoakSpec &spec, const SoakResult &r)
{
    w.beginObject();
    w.field("scheme", schemeToken(spec.scheme));
    w.field("workload", spec.workload);
    w.field("violated", r.violated);
    w.field("rejected_admission", r.rejectedAdmission);
    w.field("rejected_mid_tx", r.rejectedMidTx);
    w.field("recoveries", r.recoveries);
    w.field("retired_units", r.retiredUnits);
    w.field("corrected_words", r.correctedWords);
    w.field("read_retries", r.readRetries);
    w.field("uncorrectable_reads", r.uncorrectableReads);
    w.field("degraded_fraction", r.degradedFraction);
    w.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hoopnvm;

    std::string scheme_arg = "all";
    std::string workload_arg = "all";
    std::string out_dir = ".";
    std::string json_path;
    std::string replay_path;
    SoakSpec base;
    std::uint64_t budget_ms = 0;

    if (const auto rc = kCli.parse(
            argc, argv,
            {{"--scheme", &scheme_arg},
             {"--workload", &workload_arg},
             {"--seed", &base.seed},
             {"--phases", &base.phases},
             {"--tx", &base.txPerPhase},
             {"--warmup", &base.warmupTx},
             {"--fault-prob", &base.faultProb},
             {"--escalation", &base.escalation},
             {"--threads", &base.recoverThreads},
             {"--budget-ms", &budget_ms},
             {"--out", &out_dir},
             {"--json", &json_path},
             {"--replay", &replay_path}}))
        return *rc;

    if (base.phases == 0 || base.txPerPhase == 0)
        return kCli.usageError("--phases and --tx must be positive");

    Watchdog watchdog(budget_ms);
    const SoakProgress progress = [&watchdog](const std::string &label) {
        watchdog.beat(label);
    };
    if (!replay_path.empty())
        return replay(replay_path, progress);

    if (const auto rc = kCli.makeOutDir(out_dir))
        return *rc;
    std::vector<Scheme> schemes;
    if (const auto rc = kCli.expandSchemes(scheme_arg, &schemes))
        return *rc;
    const std::vector<std::string> workloads =
        cli::expandWorkloads(workload_arg);

    JsonWriter cells_json;
    cells_json.beginObject();
    cells_json.key("cells");
    cells_json.beginArray();
    std::size_t violation_files = 0;
    std::size_t total_violations = 0;

    for (Scheme scheme : schemes) {
        for (const std::string &wl : workloads) {
            SoakSpec spec = base;
            spec.scheme = scheme;
            spec.workload = wl;

            const SoakResult r = runSoak(spec, progress);
            std::printf("%-6s %-8s %s\n", schemeToken(scheme),
                        wl.c_str(),
                        r.violated ? "VIOLATED" : "clean");
            printResult(r);
            writeCell(cells_json, spec, r);

            if (r.violated) {
                ++total_violations;
                std::string detail = r.detail;
                const SoakSpec repro =
                    shrinkSoak(spec, &detail, progress);
                cli::writeReproducer(out_dir, "soak", scheme, wl,
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
