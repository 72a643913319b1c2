/**
 * @file
 * Reproduces paper Figures 7, 8 and 9 from one simulation of their
 * shared grid (all Table III workloads x the six schemes plus the
 * Ideal (native) system, Table II config):
 *  - Fig. 7: (a) transaction throughput normalized to Opt-Redo and
 *    (b) critical-path latency normalized to the native system;
 *  - Fig. 8: NVM write traffic per transaction, normalized to native;
 *  - Fig. 9: NVM access energy per transaction (Table II energy
 *    parameters), normalized to native.
 *
 * Expected shape:
 *  - §IV-B/C: HOOP beats every persistent scheme (Opt-Redo worst;
 *    ordering Opt-Redo < Opt-Undo < OSP < LSM < LAD < HOOP < Ideal on
 *    average) and its critical path sits close to the native system
 *    while undo logging and LSM sit far above it.
 *  - §IV-D: Opt-Redo and Opt-Undo write about 2.1x / 1.9x more than
 *    HOOP; OSP, LSM and LAD sit 21.2% / 12.5% / 11.6% above HOOP.
 *  - §IV-E: HOOP has the best energy efficiency of the persistent
 *    schemes even though GC and parallel reads add read traffic,
 *    because writes cost ~5x more energy per bit than reads; paper
 *    reductions vs OSP/LSM/LAD are 37.6%/29.6%/10.8%.
 *
 * Each figure is followed by the paper-vs-measured ratios the paper
 * quotes; Fig. 7 also gets the latency-tail table and the §IV-C
 * read-path profile, taken from the HOOP/ycsb-1KB cell.
 */

#include <cmath>
#include <map>

#include "bench_common.hh"

using namespace hoopnvm;
using namespace hoopnvm::bench;

namespace
{

using Grid = std::map<Scheme, std::vector<Cell>>;

/**
 * Print one table of @p metric normalized to scheme @p base, per
 * workload plus the geomean across workloads, and return each
 * scheme's geomean.
 */
std::map<Scheme, double>
printNormalized(const std::string &title,
                const std::vector<WorkloadCol> &cols,
                const std::vector<Scheme> &schemes, const Grid &results,
                Scheme base, double (*metric)(const RunMetrics &))
{
    TablePrinter table(title);
    std::vector<std::string> header = {"scheme"};
    for (const auto &c : cols)
        header.push_back(c.label);
    header.push_back("geomean");
    table.setHeader(header);

    std::map<Scheme, double> geo;
    for (Scheme s : schemes) {
        std::vector<std::string> row = {schemeName(s)};
        double g = 0.0;
        for (std::size_t w = 0; w < cols.size(); ++w) {
            const double norm = metric(results.at(s)[w].metrics) /
                                metric(results.at(base)[w].metrics);
            row.push_back(TablePrinter::num(norm, 2));
            g += std::log(norm);
        }
        geo[s] = std::exp(g / static_cast<double>(cols.size()));
        row.push_back(TablePrinter::num(geo[s], 2));
        table.addRow(row);
    }
    table.print();
    return geo;
}

} // namespace

int
main(int argc, char **argv)
{
    const SystemConfig cfg = paperConfig();
    banner("Figures 7-9 - throughput, critical-path latency, NVM "
           "write traffic & energy",
           cfg);

    const auto cols = figureWorkloads();
    const auto schemes = figureSchemes();
    const std::uint64_t tx_per_core = benchTxPerCore();

    // metric[scheme][workload], filled in parallel.
    Grid results;
    for (Scheme s : schemes)
        results[s].resize(cols.size());

    // The §IV-C read-path profile needs the System's internal stats,
    // so the HOOP/ycsb-1KB cell reads them before its System goes.
    const Cell *profile = nullptr;
    double profile_fills = 0.0;
    double profile_parallel_reads = 0.0;

    CellRunner runner(benchJobs(argc, argv));
    for (Scheme s : schemes) {
        for (std::size_t w = 0; w < cols.size(); ++w) {
            const std::string label =
                std::string(schemeName(s)) + "/" + cols[w].label;
            const WorkloadParams params =
                paperParams(cols[w].valueBytes);
            Cell *out = &results[s][w];
            if (s != Scheme::Hoop || cols[w].label != "ycsb-1KB") {
                scheduleCell(runner, label, s, cols[w].name, params, cfg,
                             tx_per_core, out);
                continue;
            }
            profile = out;
            const std::string workload = cols[w].name;
            const std::size_t idx = runner.add(label, [&, out, workload,
                                                       params] {
                *out = runCell(Scheme::Hoop, workload, params, cfg,
                               tx_per_core, [&](System &sys) {
                                   profile_fills = static_cast<double>(
                                       sys.caches().stats().value(
                                           "llc_fills"));
                                   profile_parallel_reads =
                                       static_cast<double>(
                                           sys.controller()
                                               .stats()
                                               .value("parallel_reads"));
                               });
            });
            runner.noteMetrics(idx, &out->metrics);
        }
    }
    runner.run();

    const auto tput_geo = printNormalized(
        "Fig. 7a: throughput normalized to Opt-Redo (higher is better)",
        cols, schemes, results, Scheme::OptRedo,
        [](const RunMetrics &m) { return m.txPerSecond; });
    const auto lat_geo = printNormalized(
        "Fig. 7b: critical-path latency normalized to Ideal (lower is "
        "better)",
        cols, schemes, results, Scheme::Native,
        [](const RunMetrics &m) { return m.avgCriticalPathNs; });

    // Latency tails: the mean in Fig. 7b hides GC- and log-induced
    // spikes; the per-scheme quantiles (geomean across workloads, in
    // ns) make them visible.
    TablePrinter tails("Critical-path latency quantiles "
                       "(geomean across workloads, ns)");
    tails.setHeader({"scheme", "p50", "p95", "p99", "max"});
    for (Scheme s : schemes) {
        double g50 = 0.0, g95 = 0.0, g99 = 0.0, gmax = 0.0;
        for (std::size_t w = 0; w < cols.size(); ++w) {
            const LatencySummary &q = results[s][w].metrics.critPath;
            g50 += std::log(q.p50Ns);
            g95 += std::log(q.p95Ns);
            g99 += std::log(q.p99Ns);
            gmax += std::log(q.maxNs);
        }
        const double n = static_cast<double>(cols.size());
        tails.addRow({schemeName(s),
                      TablePrinter::num(std::exp(g50 / n), 0),
                      TablePrinter::num(std::exp(g95 / n), 0),
                      TablePrinter::num(std::exp(g99 / n), 0),
                      TablePrinter::num(std::exp(gmax / n), 0)});
    }
    tails.print();

    std::printf("paper-vs-measured headline ratios:\n");
    auto imp = [&](Scheme s) {
        return (tput_geo.at(Scheme::Hoop) / tput_geo.at(s) - 1.0) *
               100.0;
    };
    std::printf("  HOOP throughput vs Opt-Redo: paper +74.3%%, "
                "measured %+.1f%%\n",
                imp(Scheme::OptRedo));
    std::printf("  HOOP throughput vs Opt-Undo: paper +45.1%%, "
                "measured %+.1f%%\n",
                imp(Scheme::OptUndo));
    std::printf("  HOOP throughput vs OSP:      paper +33.8%%, "
                "measured %+.1f%%\n",
                imp(Scheme::Osp));
    std::printf("  HOOP throughput vs LSM:      paper +27.9%%, "
                "measured %+.1f%%\n",
                imp(Scheme::Lsm));
    std::printf("  HOOP throughput vs LAD:      paper +24.3%%, "
                "measured %+.1f%%\n",
                imp(Scheme::Lad));
    std::printf("  HOOP throughput vs Ideal:    paper -20.6%%, "
                "measured %+.1f%%\n",
                imp(Scheme::Native));
    std::printf("  HOOP critical path vs Ideal: paper +24.1%%, "
                "measured %+.1f%%\n\n",
                (lat_geo.at(Scheme::Hoop) - 1.0) * 100.0);

    std::printf("HOOP read-path profile (YCSB-1KB): LLC miss ratio "
                "%.1f%% (paper 12.1%%), parallel reads %.1f%% of "
                "fills (paper: 28.3%% of misses incur them, 3.4%% "
                "of accesses)\n\n",
                profile->metrics.llcMissRatio * 100.0,
                profile_fills > 0.0
                    ? 100.0 * profile_parallel_reads / profile_fills
                    : 0.0);

    const auto traffic_geo = printNormalized(
        "Fig. 8: NVM bytes written per tx, normalized to Ideal "
        "(lower is better)",
        cols, schemes, results, Scheme::Native,
        [](const RunMetrics &m) { return m.bytesWrittenPerTx; });
    std::printf("paper-vs-measured traffic ratios (scheme / HOOP):\n");
    auto ratio = [&](Scheme s) {
        return traffic_geo.at(s) / traffic_geo.at(Scheme::Hoop);
    };
    std::printf("  Opt-Redo: paper 2.1x, measured %.2fx\n",
                ratio(Scheme::OptRedo));
    std::printf("  Opt-Undo: paper 1.9x, measured %.2fx\n",
                ratio(Scheme::OptUndo));
    std::printf("  OSP:      paper 1.21x, measured %.2fx\n",
                ratio(Scheme::Osp));
    std::printf("  LSM:      paper 1.13x, measured %.2fx\n",
                ratio(Scheme::Lsm));
    std::printf("  LAD:      paper 1.12x, measured %.2fx\n\n",
                ratio(Scheme::Lad));

    const auto energy_geo = printNormalized(
        "Fig. 9: NVM energy per tx, normalized to Ideal "
        "(lower is better)",
        cols, schemes, results, Scheme::Native,
        [](const RunMetrics &m) {
            return m.energyPj / static_cast<double>(m.transactions);
        });
    auto saving = [&](Scheme s) {
        return (1.0 - energy_geo.at(Scheme::Hoop) / energy_geo.at(s)) *
               100.0;
    };
    std::printf("paper-vs-measured energy savings of HOOP:\n");
    std::printf("  vs OSP: paper 37.6%%, measured %.1f%%\n",
                saving(Scheme::Osp));
    std::printf("  vs LSM: paper 29.6%%, measured %.1f%%\n",
                saving(Scheme::Lsm));
    std::printf("  vs LAD: paper 10.8%%, measured %.1f%%\n",
                saving(Scheme::Lad));

    BenchReport report("fig7_throughput", cfg, tx_per_core);
    report.addCells(runner);
    report.write();
    return 0;
}
