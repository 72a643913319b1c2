/**
 * @file
 * Parallel cell runner and machine-readable bench reports.
 *
 * Implementation notes on determinism: run() only decides *when* each
 * cell executes, never what it computes. Every cell builds its own
 * System from a by-value SystemConfig (per-cell seed included) and
 * touches only its own result slot, so any job count produces the same
 * per-cell RunMetrics and the same printed tables. All harness output
 * goes to stderr / the JSON file; stdout stays byte-identical to a
 * serial run.
 */

#include "bench_common.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/host_profiler.hh"

namespace hoopnvm
{
namespace bench
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               // lint: nondet-api-ok (host wall-clock for bench wall-time reporting; never feeds simulated state)
               std::chrono::steady_clock::now() - t0)
        .count();
}

unsigned
envJobs()
{
    // lint: nondet-api-ok (HOOP_BENCH_JOBS picks host worker-thread count; cells stay deterministic)
    if (const char *env = std::getenv("HOOP_BENCH_JOBS")) {
        const long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return static_cast<unsigned>(v);
    }
    return 0;
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested >= 1)
        return requested;
    if (const unsigned env = envJobs())
        return env;
    // lint: nondet-api-ok (host parallelism default; affects scheduling only, not simulated results)
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

} // namespace

std::uint64_t
benchTxPerCore()
{
    // lint: nondet-api-ok (HOOP_BENCH_TX scales the run length explicitly; the value is recorded in the report)
    if (const char *env = std::getenv("HOOP_BENCH_TX")) {
        const long long v = std::strtoll(env, nullptr, 10);
        if (v >= 1)
            return static_cast<std::uint64_t>(v);
    }
    return kTxPerCore;
}

unsigned
benchJobs(int argc, char **argv)
{
    unsigned jobs = 0;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--profile") == 0) {
            HostProfiler::enable();
            continue;
        }
        if (std::strncmp(argv[i], "-j", 2) != 0)
            continue;
        const char *num = argv[i] + 2;
        if (*num == '\0' && i + 1 < argc)
            num = argv[++i];
        const long v = std::strtol(num, nullptr, 10);
        if (v >= 1)
            jobs = static_cast<unsigned>(v);
    }
    return jobs;
}

CellRunner::CellRunner(unsigned jobs) : jobs_(resolveJobs(jobs)) {}

std::size_t
CellRunner::add(std::string label, std::function<void()> task)
{
    slots.push_back(Slot{std::move(label), std::move(task), 0.0,
                         nullptr});
    return slots.size() - 1;
}

void
CellRunner::noteMetrics(std::size_t idx, const RunMetrics *m)
{
    slots[idx].metrics = m;
}

double
CellRunner::run()
{
    // lint: nondet-api-ok (host wall-clock for bench wall-time reporting; never feeds simulated state)
    const auto t0 = std::chrono::steady_clock::now();
    const unsigned workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs_, slots.size()));

    auto worker = [this](std::atomic<std::size_t> &next) {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= slots.size())
                return;
            // lint: nondet-api-ok (host wall-clock for per-cell wall-time reporting; never feeds simulated state)
            const auto c0 = std::chrono::steady_clock::now();
            slots[i].task();
            slots[i].seconds = secondsSince(c0);
        }
    };

    std::atomic<std::size_t> next{0};
    if (workers <= 1) {
        worker(next); // -j1: inline on the calling thread, no pool
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back([&] { worker(next); });
        for (auto &t : pool)
            t.join();
    }
    totalSeconds_ += secondsSince(t0);
    return totalSeconds_;
}

BenchReport::BenchReport(std::string name, const SystemConfig &cfg,
                         std::uint64_t tx_per_core)
    : name_(std::move(name)), cfg_(cfg), txPerCore_(tx_per_core)
{
}

void
BenchReport::addCells(const CellRunner &runner)
{
    for (std::size_t i = 0; i < runner.cells(); ++i)
        addCell(runner.label(i), runner.cellSeconds(i),
                runner.metrics(i));
    jobs_ = runner.jobs();
    wallSeconds_ += runner.totalSeconds();
}

void
BenchReport::addCell(std::string label, double seconds,
                     const RunMetrics *m)
{
    CellRecord rec;
    rec.label = std::move(label);
    rec.seconds = seconds;
    if (m) {
        rec.hasMetrics = true;
        rec.metrics = *m;
    }
    cells_.push_back(std::move(rec));
}

void
BenchReport::cellValue(const std::string &label, std::string key,
                       double value)
{
    for (CellRecord &rec : cells_) {
        if (rec.label == label) {
            rec.values.emplace_back(std::move(key), value);
            return;
        }
    }
    HOOP_FATAL("BenchReport: no cell labelled '%s'", label.c_str());
}

void
BenchReport::value(std::string key, double v)
{
    values_.emplace_back(std::move(key), v);
}

void
BenchReport::write() const
{
    std::uint64_t sim_ticks = 0;
    for (const CellRecord &rec : cells_) {
        if (rec.hasMetrics)
            sim_ticks += rec.metrics.simTicks;
    }
    // HOOP_BENCH_DETERMINISTIC=1 zeroes every host-wall-clock field
    // (jobs, wall seconds, per-cell seconds, derived rates) so the
    // whole JSON is byte-comparable across runs and job counts — the
    // simulated content already is; the host timings are the only
    // nondeterministic bytes. CI's interference-smoke diffs -j1
    // against -jN this way.
    // lint: nondet-api-ok (HOOP_BENCH_DETERMINISTIC selects report normalization only; never feeds simulated state)
    const char *det_env = std::getenv("HOOP_BENCH_DETERMINISTIC");
    const bool deterministic =
        det_env != nullptr && det_env[0] != '\0' && det_env[0] != '0';
    const double wall = wallSeconds_ > 0.0 ? wallSeconds_ : 1e-9;
    const double cells_per_sec =
        deterministic ? 0.0 : cells_.size() / wall;
    const double ticks_per_sec = deterministic ? 0.0 : sim_ticks / wall;

    JsonWriter w;
    w.beginObject();
    w.field("schema_version", 6u);
    w.field("bench", name_);

    w.key("config");
    w.beginObject();
    w.field("num_cores", cfg_.numCores);
    w.field("cpu_ghz", cfg_.cpuGhz);
    w.field("l1_bytes", cfg_.cache.l1Size);
    w.field("l2_bytes", cfg_.cache.l2Size);
    w.field("llc_bytes", cfg_.cache.llcSize);
    w.field("oop_bytes", cfg_.oopBytes);
    w.field("oop_block_bytes", cfg_.oopBlockBytes);
    w.field("mapping_table_bytes", cfg_.mappingTableBytes);
    w.field("nvm_read_ns", ticksToNs(cfg_.nvm.readLatency));
    w.field("nvm_write_ns", ticksToNs(cfg_.nvm.writeLatency));
    w.field("tx_per_core", txPerCore_);
    w.endObject();

    w.key("host");
    w.beginObject();
    w.field("jobs", deterministic ? 0u : jobs_);
    w.field("wall_seconds", deterministic ? 0.0 : wallSeconds_);
    w.field("cells", cells_.size());
    w.field("cells_per_sec", cells_per_sec);
    w.field("sim_ticks", sim_ticks);
    w.field("sim_ticks_per_sec", ticks_per_sec);
    w.endObject();

    for (const auto &[key, v] : values_)
        w.field(key, v);

    // Host-side per-component wall-time breakdown (--profile only, so
    // the JSON layout is unchanged for unprofiled runs).
    if (HostProfiler::enabled()) {
        w.key("host_profile");
        w.beginObject();
        for (int c = 0; c < HostProfiler::kNumComponents; ++c) {
            w.field(std::string(HostProfiler::name(c)) + "_seconds",
                    static_cast<double>(HostProfiler::totalNs(c)) *
                        1e-9);
        }
        w.endObject();
    }

    w.key("cells");
    w.beginArray();
    for (const CellRecord &rec : cells_) {
        w.beginObject();
        w.field("label", rec.label);
        w.field("seconds", deterministic ? 0.0 : rec.seconds);
        if (rec.hasMetrics) {
            w.key("metrics");
            writeJson(w, rec.metrics);
        }
        for (const auto &[key, v] : rec.values)
            w.field(key, v);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    std::string dir = ".";
    // lint: nondet-api-ok (HOOP_BENCH_JSON_DIR selects the report output directory only)
    if (const char *env = std::getenv("HOOP_BENCH_JSON_DIR"))
        dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "[bench] cannot write %s\n", path.c_str());
        return;
    }
    std::fputs(w.str().c_str(), f);
    std::fclose(f);

    std::fprintf(stderr,
                 "[bench %s] %zu cells, jobs=%u, wall=%.2fs "
                 "(%.2f cells/s, %.3g sim ticks/s) -> %s\n",
                 name_.c_str(), cells_.size(), jobs_, wallSeconds_,
                 cells_per_sec, ticks_per_sec, path.c_str());
    if (HostProfiler::enabled()) {
        std::fprintf(stderr, "[bench %s] host profile:", name_.c_str());
        for (int c = 0; c < HostProfiler::kNumComponents; ++c) {
            std::fprintf(
                stderr, " %s=%.2fs", HostProfiler::name(c),
                static_cast<double>(HostProfiler::totalNs(c)) * 1e-9);
        }
        std::fputc('\n', stderr);
    }
}

} // namespace bench
} // namespace hoopnvm
