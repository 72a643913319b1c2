/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Every bench binary regenerates one of the paper's evaluation
 * artifacts (Figs. 7-13, Table IV) by running the Table III workloads
 * through full System instances — one per (scheme, workload, config)
 * cell — and printing the same rows/series the paper reports. The
 * default configuration follows Table II; the transaction counts are
 * scaled so each binary completes in seconds on a laptop while keeping
 * every cache and OOP-region mechanism exercised.
 */

#ifndef HOOPNVM_BENCH_BENCH_COMMON_HH
#define HOOPNVM_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "stats/table.hh"
#include "workloads/registry.hh"

namespace hoopnvm
{
namespace bench
{

/** Paper Table II configuration, sized for bench runtime. */
inline SystemConfig
paperConfig()
{
    SystemConfig cfg;
    cfg.numCores = 8; // the paper runs 8 threads per workload
    cfg.homeBytes = miB(256);
    cfg.oopBytes = miB(32);
    cfg.auxBytes = miB(256) + miB(16);
    return cfg;
}

/** Default workload sizing for benches. */
inline WorkloadParams
paperParams(std::size_t value_bytes)
{
    WorkloadParams p;
    p.valueBytes = value_bytes;
    p.scale = 2048;
    return p;
}

/** Transactions per core for the standard sweeps. */
inline constexpr std::uint64_t kTxPerCore = 150;

/**
 * Transactions per core for this run: kTxPerCore unless the
 * HOOP_BENCH_TX environment variable overrides it (the CI smoke test
 * sets it to a handful so every bench finishes in milliseconds).
 */
std::uint64_t benchTxPerCore();

/**
 * Parse the standard bench flags, in any order, and return the
 * worker-thread count: the value of the last `-jN` argument, or 0 when
 * absent (CellRunner then falls back to HOOP_BENCH_JOBS and finally to
 * hardware_concurrency).
 * A `--profile` argument enables the host-side wall-time profiler
 * (see common/host_profiler.hh); BenchReport then emits the
 * per-component breakdown into the JSON and the stderr summary.
 */
unsigned benchJobs(int argc, char **argv);

/** One measured cell. */
struct Cell
{
    RunMetrics metrics;
    bool verified = false;
};

/**
 * Run one (scheme, workload) cell. A non-empty @p inspect is handed the
 * finished System, for stats that RunMetrics does not carry.
 */
inline Cell
runCell(Scheme scheme, const std::string &workload,
        const WorkloadParams &params, const SystemConfig &cfg,
        std::uint64_t tx_per_core = kTxPerCore,
        const std::function<void(System &)> &inspect = {})
{
    System sys(cfg, scheme);
    const RunOutcome out =
        runWorkload(sys, makeWorkload(workload, params), tx_per_core);
    if (!out.verified) {
        HOOP_FATAL("verification failed for %s/%s",
                   schemeName(scheme), workload.c_str());
    }
    if (inspect)
        inspect(sys);
    return Cell{out.metrics, out.verified};
}

/**
 * Schedules independent (scheme, workload, config) cells across a
 * thread pool. Cells are registered up front, run() executes them all,
 * and the bench prints its tables afterwards from the bench-owned
 * result storage — so stdout is byte-identical for any job count (each
 * cell owns a full System seeded from its config; nothing is shared).
 *
 * Job-count resolution: the constructor argument (from a `-jN` flag)
 * wins, then the HOOP_BENCH_JOBS environment variable, then
 * std::thread::hardware_concurrency(). A value of 1 runs the cells
 * inline on the calling thread with no pool at all.
 */
class CellRunner
{
  public:
    /** @param jobs Worker threads; 0 resolves env/hardware default. */
    explicit CellRunner(unsigned jobs = 0);

    /** Register a cell; returns its index. Not thread-safe. */
    std::size_t add(std::string label, std::function<void()> task);

    /**
     * Point cell @p idx at the RunMetrics its task fills in, so the
     * JSON report can aggregate per-cell simulated work. The pointer
     * must stay valid until the report is written.
     */
    void noteMetrics(std::size_t idx, const RunMetrics *m);

    /** Execute every registered cell; returns total wall seconds. */
    double run();

    unsigned jobs() const { return jobs_; }
    std::size_t cells() const { return slots.size(); }
    const std::string &label(std::size_t i) const
    {
        return slots[i].label;
    }
    double cellSeconds(std::size_t i) const { return slots[i].seconds; }
    const RunMetrics *metrics(std::size_t i) const
    {
        return slots[i].metrics;
    }
    double totalSeconds() const { return totalSeconds_; }

  private:
    struct Slot
    {
        std::string label;
        std::function<void()> task;
        double seconds = 0.0;
        const RunMetrics *metrics = nullptr;
    };

    unsigned jobs_;
    std::vector<Slot> slots;
    double totalSeconds_ = 0.0;
};

/**
 * Register the standard runCell() call as a CellRunner cell writing
 * into @p out (which must outlive run()). Returns the cell index.
 */
inline std::size_t
scheduleCell(CellRunner &runner, const std::string &label, Scheme scheme,
             const std::string &workload, const WorkloadParams &params,
             const SystemConfig &cfg, std::uint64_t tx_per_core,
             Cell *out)
{
    const std::size_t idx =
        runner.add(label, [=] {
            *out = runCell(scheme, workload, params, cfg, tx_per_core);
        });
    runner.noteMetrics(idx, &out->metrics);
    return idx;
}

/**
 * Machine-readable record of one bench run: the configuration, every
 * cell's host wall time and simulator metrics, and a host-side summary
 * (cells/sec, simulated-ticks/sec). write() emits
 * `BENCH_<name>.json` into $HOOP_BENCH_JSON_DIR (or the CWD) and
 * prints the summary to stderr — never stdout, which carries only the
 * paper tables.
 */
class BenchReport
{
  public:
    BenchReport(std::string name, const SystemConfig &cfg,
                std::uint64_t tx_per_core);

    /** Copy every cell (label, seconds, metrics) out of @p runner. */
    void addCells(const CellRunner &runner);

    /** Add a cell not driven by a CellRunner (@p m may be null). */
    void addCell(std::string label, double seconds, const RunMetrics *m);

    /** Attach a custom scalar to the first cell labelled @p label. */
    void cellValue(const std::string &label, std::string key,
                   double value);

    /** Attach a custom top-level scalar (e.g. a derived ratio). */
    void value(std::string key, double v);

    /** Write BENCH_<name>.json and print the stderr summary. */
    void write() const;

  private:
    struct CellRecord
    {
        std::string label;
        double seconds = 0.0;
        bool hasMetrics = false;
        RunMetrics metrics;
        std::vector<std::pair<std::string, double>> values;
    };

    std::string name_;
    SystemConfig cfg_;
    std::uint64_t txPerCore_;
    unsigned jobs_ = 1;
    double wallSeconds_ = 0.0;
    std::vector<CellRecord> cells_;
    std::vector<std::pair<std::string, double>> values_;
};

/** Print the standard bench banner with the Table II parameters. */
inline void
banner(const char *what, const SystemConfig &cfg)
{
    std::printf("hoopnvm bench: %s\n", what);
    std::printf("  config: %u cores @ %.1f GHz, L1 %lluK/L2 %lluK/LLC "
                "%lluM, NVM r/w %.0f/%.0f ns, OOP %lluM (%llu x %lluM "
                "blocks), mapping %lluK, GC period %.0f ms\n\n",
                cfg.numCores, cfg.cpuGhz,
                static_cast<unsigned long long>(cfg.cache.l1Size >> 10),
                static_cast<unsigned long long>(cfg.cache.l2Size >> 10),
                static_cast<unsigned long long>(cfg.cache.llcSize >> 20),
                ticksToNs(cfg.nvm.readLatency),
                ticksToNs(cfg.nvm.writeLatency),
                static_cast<unsigned long long>(cfg.oopBytes >> 20),
                static_cast<unsigned long long>(cfg.oopBytes /
                                                cfg.oopBlockBytes),
                static_cast<unsigned long long>(cfg.oopBlockBytes >> 20),
                static_cast<unsigned long long>(
                    cfg.mappingTableBytes >> 10),
                ticksToMs(cfg.gcPeriod));
}

/** The workload columns of Figs. 7-9 (suite x item size). */
struct WorkloadCol
{
    std::string label;
    std::string name;
    std::size_t valueBytes;
};

inline std::vector<WorkloadCol>
figureWorkloads()
{
    std::vector<WorkloadCol> cols;
    for (const char *w :
         {"vector", "hashmap", "queue", "rbtree", "btree"}) {
        cols.push_back({std::string(w) + "-64B", w, 64});
        cols.push_back({std::string(w) + "-1KB", w, 1024});
    }
    cols.push_back({"ycsb-512B", "ycsb", 512});
    cols.push_back({"ycsb-1KB", "ycsb", 1024});
    cols.push_back({"tpcc", "tpcc", 64});
    return cols;
}

/** Schemes in the order the paper's figures plot them. */
inline std::vector<Scheme>
figureSchemes(bool include_ideal = true)
{
    // Reserve for the optional Ideal entry up front: growing from the
    // exact six-element capacity trips a spurious GCC -Warray-bounds
    // in the relocation path under -fsanitize=undefined.
    std::vector<Scheme> s;
    s.reserve(7);
    s.assign({Scheme::OptRedo, Scheme::OptUndo, Scheme::Osp,
              Scheme::Lsm, Scheme::Lad, Scheme::Hoop});
    if (include_ideal)
        s.push_back(Scheme::Native);
    return s;
}

} // namespace bench
} // namespace hoopnvm

#endif // HOOPNVM_BENCH_BENCH_COMMON_HH
