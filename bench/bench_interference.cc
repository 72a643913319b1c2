/**
 * @file
 * Interference & bandwidth-saturation sweep (ROADMAP item 3, beyond
 * the paper's evaluation).
 *
 * Every core runs one of four traffic roles (log_append, point_read,
 * seq_scan, gc_pressure — see workloads/interference_wl.hh); the
 * sweep crosses target channel saturation x read/write core mix x
 * persistence scheme and reports per-role throughput and tail
 * latency plus the NVM channel-occupancy gauges. The interesting
 * question is the one homogeneous workloads cannot ask: how does each
 * scheme's *tail* degrade as mixed traffic fills the channel, and
 * does HOOP's out-of-place batching hold its ordering against the
 * log-based baselines once readers fight the persistence stream?
 *
 * Flags: the standard -jN plus `--schemes=hoop,redo,...` to restrict
 * the scheme axis, with the scheme tokens of the hoop_* tools (hoop,
 * redo, undo, osp, lsm, lad, native); CI's interference-smoke runs the
 * hoop+redo pair.
 */

#include <cstring>

#include "bench_common.hh"
#include "check/crash_schedule.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

namespace
{

/** Schemes from a `--schemes=a,b,c` flag, or the full figure set. */
std::vector<Scheme>
schemesFromArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strncmp(arg, "--schemes=", 10) != 0)
            continue;
        std::vector<Scheme> out;
        std::string tok;
        for (const char *p = arg + 10;; ++p) {
            if (*p == ',' || *p == '\0') {
                Scheme s;
                if (!tok.empty() && schemeFromToken(tok, &s))
                    out.push_back(s);
                else if (!tok.empty())
                    HOOP_FATAL("unknown scheme token '%s'",
                               tok.c_str());
                tok.clear();
                if (*p == '\0')
                    break;
            } else {
                tok += *p;
            }
        }
        if (!out.empty())
            return out;
    }
    return figureSchemes(false);
}

} // namespace

int
main(int argc, char **argv)
{
    SystemConfig cfg = paperConfig();
    banner("Interference - mixed-role saturation sweep", cfg);

    const std::uint64_t tx_per_core = benchTxPerCore();
    const std::vector<Scheme> schemes = schemesFromArgs(argc, argv);

    // Saturation is the duty-cycle target (1 = flat out); the read
    // mix is the fraction of cores running reader roles. Values are
    // percent in the labels so they parse as identifiers.
    const double saturations[] = {0.25, 0.5, 1.0};
    const double read_mixes[] = {0.25, 0.75};

    struct Point
    {
        Scheme scheme;
        double saturation;
        double readMix;
        Cell cell;
    };
    std::vector<Point> points;
    points.reserve(schemes.size() * std::size(saturations) *
                   std::size(read_mixes));
    for (const Scheme s : schemes) {
        for (const double sat : saturations) {
            for (const double mix : read_mixes)
                points.push_back({s, sat, mix, Cell{}});
        }
    }

    CellRunner runner(benchJobs(argc, argv));
    for (Point &pt : points) {
        WorkloadParams params = paperParams(64);
        params.scale = 1024;
        params.interferenceSaturation = pt.saturation;
        params.interferenceReadMix = pt.readMix;
        const std::string label =
            std::string(schemeName(pt.scheme)) + "/s" +
            TablePrinter::num(pt.saturation * 100, 0) + "/r" +
            TablePrinter::num(pt.readMix * 100, 0);
        scheduleCell(runner, label, pt.scheme, "interference", params,
                     cfg, tx_per_core, &pt.cell);
    }
    runner.run();

    for (const double mix : read_mixes) {
        TablePrinter t("Saturation sweep, read mix " +
                       TablePrinter::num(mix * 100, 0) +
                       "% (per-role p99 in us; channel util)");
        std::vector<std::string> header{"scheme", "saturation",
                                        "tx/s (M)", "util"};
        for (const char *r :
             {"log_append", "point_read", "seq_scan", "gc_pressure"})
            header.push_back(std::string(r) + " p99");
        t.setHeader(header);
        for (const Point &pt : points) {
            // lint: float-eq-ok (selecting the sweep slice by its own exact literal, not a computed value)
            if (pt.readMix != mix)
                continue;
            std::vector<std::string> row{
                schemeName(pt.scheme),
                TablePrinter::num(pt.saturation * 100, 0) + "%",
                TablePrinter::num(
                    pt.cell.metrics.txPerSecond / 1e6, 3),
                TablePrinter::num(
                    pt.cell.metrics.channelUtilization, 3)};
            for (const char *r : {"log_append", "point_read",
                                  "seq_scan", "gc_pressure"}) {
                std::string v = "-";
                for (const RoleMetrics &rm : pt.cell.metrics.roles) {
                    if (rm.name == r) {
                        v = TablePrinter::num(
                            rm.latency.p99Ns / 1e3, 2);
                        if (rm.latency.p99Saturated)
                            v += "*";
                    }
                }
                row.push_back(v);
            }
            t.addRow(row);
        }
        t.print();
    }
    std::printf("(* = under-populated quantile: exact max reported)\n");

    BenchReport report("interference", cfg, tx_per_core);
    report.addCells(runner);
    report.write();
    return 0;
}
