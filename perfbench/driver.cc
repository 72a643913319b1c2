/**
 * @file
 * Benchmark driver: runs one benchmark workload on the paper's Table II
 * configuration (bench::paperConfig) through the simulator's public
 * API and writes the raw measurements as one JSON document. run.py
 * builds this binary, runs it and turns the document into metrics.
 *
 * One repetition of a workload is:
 *
 *   setup    System construction and every core's Workload::setup()
 *   warmup   warmTxPerCore transactions per core, so the caches and
 *            the OOP region / redo log are in steady state
 *   window   beginMeasurement(), txPerCore transactions per core and
 *            finalize(): the measured window (RunMetrics)
 *   verify   every core's Workload::verify()
 *   fill     fillTxPerCore more committed transactions, not finalized
 *   crash    System::crash()
 *   recover  System::recover(), then verify() on every core again
 *
 * Traced repetitions record one span per phase and, inside the window
 * only, one per transaction and maintenance poll.
 *
 * setup, warmup, fill and crash make up the host set-up time. A run
 * repeats the repetition, each time from a fresh System with the same
 * seed, until its time is used; the simulated results of all
 * repetitions must be bit-identical, and host times are reported per
 * repetition.
 *
 * After every repetition the driver times a fixed reference kernel
 * (random read-modify-writes over a 64 MiB buffer, code of its own that
 * shares nothing with the simulator). A shared host runs the simulator
 * up to 1.7x slower while its neighbours load the memory system, for
 * stretches of seconds to minutes, and the kernel slows with it, if
 * less. Host times divided by the adjacent kernel time therefore vary
 * about half as much across such stretches, while a change to the
 * simulator moves them in full.
 *
 * The 8 simulated cores form a closed loop: a core issues its next
 * transaction only after the previous one commits, and the core with
 * the lowest clock runs next, exactly as runWorkload() schedules them.
 * Everything runs on one host thread.
 *
 * Usage:
 *   hoop_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  --out FILE [--spans FILE]
 */

#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "common/host_profiler.hh"
#include "hoop/hoop_controller.hh"

using namespace hoopnvm;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One benchmark workload: scheme, traffic mix and phase sizes. */
struct WorkloadDef
{
    const char *name;
    Scheme scheme;

    /** YCSB update fraction (1 KB values, Zipf 0.99, 2048 rec/core). */
    double updateRatio;

    /** False turns periodic GC off, as the Fig. 11 fill does. */
    bool periodicGc;

    std::uint64_t warmTxPerCore;
    std::uint64_t txPerCore;
    std::uint64_t fillTxPerCore;
};

// Window: 2000 tx/core = 16,000 committed tx, so p999 has 16 samples
// beyond it. The tx workloads leave a short un-finalized tail for
// recovery; `recovery` leaves a large one with periodic GC off, so
// RecoveryManager scans and replays a well-filled OOP region.
constexpr WorkloadDef kWorkloads[] = {
    {"ycsb_update", Scheme::Hoop, 0.80, true, 1000, 2000, 200},
    {"ycsb_read", Scheme::Hoop, 0.05, true, 1000, 2000, 2000},
    {"redo_update", Scheme::OptRedo, 0.80, true, 1000, 2000, 200},
    {"recovery", Scheme::Hoop, 0.80, false, 1000, 2000, 1200},
};

/** Recovery threads: the thread count of the paper's Fig. 11 47 ms. */
constexpr unsigned kRecoveryThreads = 16;

/** Transactions per core of the once-per-run runWorkload() check. */
constexpr std::uint64_t kEquivalenceTxPerCore = 400;

/** Fewest repetitions per run (of each kind in a traced run). */
constexpr unsigned kMinReps = 3;

/** Reference kernel: buffer words (64 MiB) and read-modify-writes. */
constexpr std::size_t kRefWords = std::size_t{1} << 23;
constexpr unsigned kRefUpdates = 4u << 20;

/** Keeps the reference kernel's updates observable. */
volatile std::uint64_t referenceSink;

/**
 * Host seconds of the reference kernel: kRefUpdates read-modify-writes
 * at xorshift-random words of a kRefWords buffer, the same sequence on
 * every call. The buffer is allocated and touched untimed on each call
 * and freed afterwards, so it never adds to the peak RSS of a
 * repetition.
 */
double
referenceSeconds()
{
    std::vector<std::uint64_t> buf(kRefWords, 1);
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    const Clock::time_point t0 = Clock::now();
    for (unsigned i = 0; i < kRefUpdates; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf[x & (kRefWords - 1)] += x;
    }
    const double s = secondsSince(t0);
    referenceSink = buf[x & (kRefWords - 1)];
    return s;
}

// ---- Tracing ----------------------------------------------------------

/**
 * In-memory span recorder. Spans are appended as they open, so a
 * span's index is fixed when its children record it as their parent;
 * the whole list is written out once, when the run ends.
 */
class Tracer
{
  public:
    void beginRun(std::uint64_t id) { run_ = id; }

    void
    open(const char *name, int core, std::int64_t index)
    {
        const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, run_, nowNs(), 0, parent, core, index});
        stack_.push_back(static_cast<std::int64_t>(spans_.size()) - 1);
    }

    void
    close()
    {
        spans_[static_cast<std::size_t>(stack_.back())].end = nowNs();
        stack_.pop_back();
    }

    /** One line per span: run name start_ns end_ns parent core index. */
    bool
    write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        for (const Span &s : spans_) {
            std::fprintf(f, "%" PRIu64 " %s %" PRId64 " %" PRId64
                            " %" PRId64 " %d %" PRId64 "\n",
                         s.run, s.name, s.start, s.end, s.parent, s.core,
                         s.index);
        }
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char *name;
        std::uint64_t run;
        std::int64_t start;
        std::int64_t end;
        std::int64_t parent;
        int core;
        std::int64_t index;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
            .count();
    }

    Clock::time_point epoch_ = Clock::now();
    std::uint64_t run_ = 0;
    std::vector<Span> spans_;
    std::vector<std::int64_t> stack_;
};

/** RAII span; a no-op when the tracer is null (the untraced run). */
class SpanScope
{
  public:
    SpanScope(Tracer *t, const char *name, int core = -1,
              std::int64_t index = -1)
        : t_(t)
    {
        if (t_)
            t_->open(name, core, index);
    }

    ~SpanScope()
    {
        if (t_)
            t_->close();
    }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer *t_;
};

// ---- Driving the system -------------------------------------------------

using Workloads = std::vector<std::unique_ptr<Workload>>;

Workloads
setUpCores(System &sys, const WorkloadFactory &factory)
{
    Workloads wls;
    for (unsigned c = 0; c < sys.config().numCores; ++c) {
        wls.push_back(factory(sys, c));
        wls.back()->setup();
    }
    return wls;
}

/**
 * Run @p per_core more transactions on every core: the core with the
 * lowest clock (lowest index on a tie) runs next, and the controller
 * gets its maintenance poll after every transaction — the calls and
 * order of runWorkload(). Returns the transactions issued.
 */
std::uint64_t
runTransactions(System &sys, Workloads &wls,
                std::vector<std::uint64_t> &done, std::uint64_t per_core,
                Tracer *t)
{
    const unsigned n = static_cast<unsigned>(wls.size());
    std::vector<std::uint64_t> target(done);
    for (std::uint64_t &x : target)
        x += per_core;
    for (std::uint64_t left = per_core * n; left > 0; --left) {
        unsigned next = n;
        for (unsigned c = 0; c < n; ++c) {
            if (done[c] < target[c] &&
                (next == n || sys.core(c).clock() < sys.core(next).clock()))
                next = c;
        }
        {
            SpanScope s(t, "tx", static_cast<int>(next),
                        static_cast<std::int64_t>(done[next]));
            wls[next]->runTransaction(done[next]);
        }
        ++done[next];
        SpanScope s(t, "maintenance");
        sys.maintenance();
    }
    return per_core * n;
}

bool
verifyAll(System &sys, const Workloads &wls)
{
    sys.caches().beginDebugBatch();
    bool ok = true;
    for (const auto &wl : wls)
        ok = ok && wl->verify();
    sys.caches().endDebugBatch();
    return ok;
}

// ---- Per-layer counters -------------------------------------------------

using Counters = std::vector<std::pair<std::string, std::uint64_t>>;

/**
 * Every per-layer count, read through the layers' public accessors.
 * Names absent from a scheme's controller read 0.
 */
Counters
readCounters(System &sys)
{
    Counters out;
    CacheHierarchy &ch = sys.caches();
    std::uint64_t l1h = 0, l1m = 0, l2h = 0, l2m = 0;
    for (unsigned c = 0; c < sys.config().numCores; ++c) {
        l1h += ch.l1(c).stats().value("hits");
        l1m += ch.l1(c).stats().value("misses");
        l2h += ch.l2(c).stats().value("hits");
        l2m += ch.l2(c).stats().value("misses");
    }
    out.emplace_back("mem.l1_hits", l1h);
    out.emplace_back("mem.l1_misses", l1m);
    out.emplace_back("mem.l2_hits", l2h);
    out.emplace_back("mem.l2_misses", l2m);
    out.emplace_back("mem.llc_hits", ch.llc().stats().value("hits"));
    out.emplace_back("mem.llc_misses", ch.llc().stats().value("misses"));
    out.emplace_back("mem.llc_fills", ch.stats().value("llc_fills"));
    out.emplace_back("mem.llc_dirty_writebacks",
                     ch.stats().value("llc_dirty_writebacks"));

    const StatSet &cs = sys.controller().stats();
    for (const char *name :
         {"tx_begun", "tx_committed", "tx_rejected", "mapping_hits",
          "parallel_reads", "eviction_buffer_hits", "data_slices",
          "addr_slices", "tx_words", "gc_on_demand",
          "oop_backpressure_stalls", "log_entries",
          "checkpoint_writes", "truncations", "log_backpressure_stalls"})
        out.emplace_back(std::string("controller.") + name, cs.value(name));

    auto *hoop = dynamic_cast<HoopController *>(&sys.controller());
    for (const char *name : {"runs", "slices_scanned", "home_lines_written"})
        out.emplace_back(std::string("gc.") + name,
                         hoop ? hoop->gc().stats().value(name) : 0);

    NvmDevice &nvm = sys.nvm();
    out.emplace_back("nvm.bytes_read", nvm.bytesRead());
    out.emplace_back("nvm.bytes_written", nvm.bytesWritten());
    out.emplace_back("nvm.read_accesses", nvm.readAccesses());
    out.emplace_back("nvm.write_accesses", nvm.writeAccesses());
    out.emplace_back("nvm.channel_busy_ticks", nvm.channelBusyTicks());
    out.emplace_back("nvm.channel_wait_ticks", nvm.channelWaitTicks());
    out.emplace_back("nvm.drain_fences", nvm.drainFences());
    return out;
}

/** after - before, name by name; @p monotonic clears on a decrease. */
Counters
delta(const Counters &after, const Counters &before, bool *monotonic)
{
    Counters d = after;
    for (std::size_t i = 0; i < d.size(); ++i) {
        if (after[i].second < before[i].second)
            *monotonic = false;
        d[i].second = after[i].second - before[i].second;
    }
    return d;
}

// ---- Exact fingerprints of simulated results ----------------------------

void
put(std::string &s, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a,", v);
    s += buf;
}

void
put(std::string &s, std::uint64_t v)
{
    s += std::to_string(v);
    s += ',';
}

void
put(std::string &s, const LatencySummary &l)
{
    put(s, l.count);
    for (double v : {l.p50Ns, l.p95Ns, l.p99Ns, l.p999Ns, l.maxNs, l.meanNs})
        put(s, v);
}

/** Every field of @p m, bit-exact. */
std::string
fingerprint(const RunMetrics &m)
{
    std::string s;
    for (std::uint64_t v :
         {m.transactions, std::uint64_t{m.simTicks}, m.nvmBytesWritten,
          m.nvmBytesRead, m.eccCorrectedWords, m.uncorrectableReads,
          m.readRetries, m.retiredUnits, m.txRejected, m.channelBusyTicks,
          m.channelWaitTicks, m.drainFences})
        put(s, v);
    for (double v : {m.txPerSecond, m.avgCriticalPathNs, m.bytesWrittenPerTx,
                     m.energyPj, m.llcMissRatio, m.degradedFraction,
                     m.channelUtilization})
        put(s, v);
    for (const LatencySummary *l :
         {&m.critPath, &m.llcMiss, &m.gcPause, &m.scrubPause})
        put(s, *l);
    for (const RoleMetrics &r : m.roles) {
        s += r.name;
        put(s, r.transactions);
        put(s, r.txPerSecond);
        put(s, r.latency);
    }
    for (const EpochSample &e : m.epochs) {
        for (std::uint64_t v :
             {std::uint64_t{e.at}, e.mappingEntries, e.structBytes,
              e.backpressureStalls, e.inflightWrites, e.retiredUnits,
              e.correctedWords, e.txRejected, e.channelBusyTicks,
              e.channelWaitTicks})
            put(s, v);
    }
    return s;
}

// ---- One repetition -------------------------------------------------------

struct Rep
{
    bool traced = false;

    // Host seconds.
    double setupS = 0.0;  ///< setup + warmup + fill + crash
    double windowS = 0.0; ///< measured transactions + finalize
    double recoverS = 0.0;
    double gcHostS = 0.0; ///< HostProfiler kGc over the window
    double refS = 0.0;    ///< reference kernel, right after the rep

    // Simulated results (identical in every repetition of a seed).
    std::uint64_t attempted = 0;
    std::uint64_t committed = 0;
    RunMetrics metrics;
    Counters counters;
    Tick recoveryTicks = 0;
    RecoveryResult recovery{};

    // Checks.
    bool verifiedWindow = false;
    bool verifiedRecovered = false;
    bool countersMonotonic = true;

    std::string
    simFingerprint() const
    {
        std::string s = fingerprint(metrics);
        put(s, attempted);
        put(s, committed);
        for (const auto &c : counters)
            put(s, c.second);
        for (std::uint64_t v :
             {std::uint64_t{recoveryTicks}, recovery.slicesScanned,
              recovery.bytesScanned, recovery.committedTxReplayed,
              recovery.homeLinesWritten, std::uint64_t{recovery.crcVerifyCost},
              recovery.slicesRejected, recovery.tornCommitsDetected})
            put(s, v);
        return s;
    }
};

Rep
runRep(const WorkloadDef &def, const SystemConfig &cfg,
       const WorkloadFactory &factory, Tracer *t, std::uint64_t run_id)
{
    Rep r;
    r.traced = t != nullptr;
    if (t)
        t->beginRun(run_id);
    SpanScope run(t, "run");

    // Host speed depends on where the heap places the simulator's
    // structures: one fixed layout can run 10 % faster or slower than
    // another. Shifting the heap by a pad that varies with the
    // repetition lets a run's median average over layouts. The pad
    // depends on the repetition index alone, so every run and every
    // commit sees the same sequence of layouts.
    std::vector<std::uint8_t> pad(64 * (1 + run_id * 2654435761u % 8192));
    for (std::size_t i = 0; i < pad.size(); i += 64)
        pad[i] = 1;

    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<System> sys;
    Workloads wls;
    {
        SpanScope s(t, "setup");
        sys = std::make_unique<System>(cfg, def.scheme);
        wls = setUpCores(*sys, factory);
    }
    std::vector<std::uint64_t> done(wls.size(), 0);
    {
        SpanScope s(t, "warmup");
        runTransactions(*sys, wls, done, def.warmTxPerCore, nullptr);
    }
    r.setupS = secondsSince(t0);

    sys->beginMeasurement();
    const Counters before = readCounters(*sys);
    const std::uint64_t committed0 = sys->committedTx();
    const std::uint64_t gc0 = HostProfiler::totalNs(HostProfiler::kGc);
    const Clock::time_point w0 = Clock::now();
    {
        SpanScope s(t, "window");
        r.attempted = runTransactions(*sys, wls, done, def.txPerCore, t);
        SpanScope f(t, "finalize");
        sys->finalize();
    }
    r.windowS = secondsSince(w0);
    r.gcHostS =
        1e-9 * static_cast<double>(
                   HostProfiler::totalNs(HostProfiler::kGc) - gc0);
    r.committed = sys->committedTx() - committed0;
    r.metrics = sys->metrics();
    r.counters = delta(readCounters(*sys), before, &r.countersMonotonic);
    {
        SpanScope s(t, "verify");
        r.verifiedWindow = verifyAll(*sys, wls);
    }

    const Clock::time_point f0 = Clock::now();
    {
        SpanScope s(t, "fill");
        runTransactions(*sys, wls, done, def.fillTxPerCore, nullptr);
    }
    {
        SpanScope s(t, "crash");
        sys->crash();
    }
    r.setupS += secondsSince(f0);

    const Clock::time_point r0 = Clock::now();
    {
        SpanScope s(t, "recover");
        r.recoveryTicks = sys->recover(kRecoveryThreads);
    }
    r.recoverS = secondsSince(r0);
    if (auto *hoop = dynamic_cast<HoopController *>(&sys->controller()))
        r.recovery = hoop->lastRecovery();
    {
        SpanScope s(t, "verify");
        r.verifiedRecovered = verifyAll(*sys, wls);
    }
    return r;
}

/**
 * RunMetrics of runTransactions() against a runWorkload() call with the
 * same configuration, seed and size, both from a fresh System with no
 * warm-up. Equal fingerprints mean the benchmark's loop makes the same
 * calls in the same order as runWorkload().
 */
bool
matchesRunWorkload(const WorkloadDef &def, const SystemConfig &cfg,
                   const WorkloadFactory &factory)
{
    std::string mine;
    {
        System sys(cfg, def.scheme);
        Workloads wls = setUpCores(sys, factory);
        sys.beginMeasurement();
        std::vector<std::uint64_t> done(wls.size(), 0);
        runTransactions(sys, wls, done, kEquivalenceTxPerCore, nullptr);
        sys.finalize();
        mine = fingerprint(sys.metrics());
        if (!verifyAll(sys, wls))
            return false;
    }
    System sys(cfg, def.scheme);
    const RunOutcome ref =
        runWorkload(sys, factory, kEquivalenceTxPerCore);
    return ref.verified && fingerprint(ref.metrics) == mine;
}

// ---- Output ---------------------------------------------------------------

struct Check
{
    std::string name;
    bool ok;
    std::string detail;
};

void
emitRep(std::FILE *f, const Rep &r)
{
    std::fprintf(f,
                 "{\"traced\": %s, \"setup_s\": %.9g, \"window_s\": %.9g, "
                 "\"recover_s\": %.9g, \"gc_host_s\": %.9g, "
                 "\"ref_s\": %.9g, \"window_tx\": %" PRIu64 "}",
                 r.traced ? "true" : "false", r.setupS, r.windowS,
                 r.recoverS, r.gcHostS, r.refS, r.attempted);
}

void
emitSim(std::FILE *f, const Rep &r)
{
    const RunMetrics &m = r.metrics;
    std::fprintf(
        f,
        "{\"committed\": %" PRIu64 ", \"rejected\": %" PRIu64
        ", \"sim_ticks\": %" PRIu64 ", \"tx_per_s\": %.17g"
        ", \"crit_path_count\": %" PRIu64 ", \"crit_path_p50_ns\": %.17g"
        ", \"crit_path_p99_ns\": %.17g, \"crit_path_p999_ns\": %.17g"
        ", \"bytes_written_per_tx\": %.17g, \"energy_pj\": %.17g"
        ", \"llc_miss_p50_ns\": %.17g, \"llc_miss_p99_ns\": %.17g"
        ", \"gc_pause_max_ns\": %.17g, \"recovery_ticks\": %" PRIu64,
        r.committed, m.txRejected, std::uint64_t{m.simTicks}, m.txPerSecond,
        m.critPath.count, m.critPath.p50Ns, m.critPath.p99Ns,
        m.critPath.p999Ns, m.bytesWrittenPerTx, m.energyPj, m.llcMiss.p50Ns,
        m.llcMiss.p99Ns, m.gcPause.maxNs, std::uint64_t{r.recoveryTicks});
    const RecoveryResult &rr = r.recovery;
    std::fprintf(f,
                 ", \"recovery\": {\"slices_scanned\": %" PRIu64
                 ", \"bytes_scanned\": %" PRIu64
                 ", \"tx_replayed\": %" PRIu64
                 ", \"home_lines_written\": %" PRIu64
                 ", \"crc_verify_ticks\": %" PRIu64
                 ", \"slices_rejected\": %" PRIu64
                 ", \"torn_commits\": %" PRIu64 "}",
                 rr.slicesScanned, rr.bytesScanned, rr.committedTxReplayed,
                 rr.homeLinesWritten, std::uint64_t{rr.crcVerifyCost},
                 rr.slicesRejected, rr.tornCommitsDetected);
    std::fprintf(f, ", \"counters\": {");
    for (std::size_t i = 0; i < r.counters.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %" PRIu64, i ? ", " : "",
                     r.counters[i].first.c_str(), r.counters[i].second);
    }
    std::fprintf(f, "}}");
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hoop_perfbench: %s\nusage: hoop_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 --out FILE "
                 "[--spans FILE]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_path, spans_path;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *v = argv[i + 1];
        if (flag == "--workload")
            workload = v;
        else if (flag == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (flag == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (flag == "--trace")
            trace = std::atoi(v);
        else if (flag == "--out")
            out_path = v;
        else if (flag == "--spans")
            spans_path = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (argc % 2 == 0)
        usage("flags take one value each");
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : kWorkloads) {
        if (workload == d.name)
            def = &d;
    }
    if (!def)
        usage(("unknown workload '" + workload + "'").c_str());
    if (!(seconds > 0.0) || (trace != 0 && trace != 1) || out_path.empty())
        usage("--seconds must be positive, --trace 0 or 1, --out given");
    if (trace == 1 && spans_path.empty())
        usage("--trace 1 needs --spans");

    SystemConfig cfg = bench::paperConfig();
    cfg.seed = seed;
    if (!def->periodicGc)
        cfg.gcPeriod = nsToTicks(1e12);
    WorkloadParams params = bench::paperParams(1024);
    params.ycsbUpdateRatio = def->updateRatio;
    const WorkloadFactory factory = makeWorkload("ycsb", params);

    std::vector<Check> checks;
    checks.push_back({"loop_matches_run_workload",
                      matchesRunWorkload(*def, cfg, factory),
                      "RunMetrics of the benchmark loop vs runWorkload()"});

    // A traced run alternates untraced and traced repetitions, so the
    // tracing overhead compares neighbours in time. HostProfiler stays
    // on for the whole traced run; it times only GC runs and recovery,
    // a few clock reads per call.
    std::unique_ptr<Tracer> tracer;
    if (trace) {
        tracer = std::make_unique<Tracer>();
        HostProfiler::enable();
    }
    std::vector<Rep> reps;
    struct rusage ru{};
    const Clock::time_point start = Clock::now();
    for (unsigned n = 0;
         n < (trace ? 2 : 1) * kMinReps || secondsSince(start) < seconds;
         ++n) {
        Tracer *t = trace && n % 2 ? tracer.get() : nullptr;
        reps.push_back(runRep(*def, cfg, factory, t, n));
        // Peak RSS of one repetition (every one does the same work),
        // read before the reference kernel's buffer can add to it.
        if (n == 0)
            getrusage(RUSAGE_SELF, &ru);
        reps.back().refS = referenceSeconds();
    }

    bool verified_window = true, verified_recovered = true;
    bool monotonic = true, deterministic = true, traced_equal = true;
    const std::string fp0 = reps.front().simFingerprint();
    for (const Rep &r : reps) {
        verified_window = verified_window && r.verifiedWindow;
        verified_recovered = verified_recovered && r.verifiedRecovered;
        monotonic = monotonic && r.countersMonotonic;
        const bool same = r.simFingerprint() == fp0;
        deterministic = deterministic && same;
        traced_equal = traced_equal && (!r.traced || same);
    }
    const Rep &r0 = reps.front();
    checks.push_back({"verify_after_window", verified_window,
                      "Workload::verify() on every core after finalize()"});
    checks.push_back({"verify_after_recover", verified_recovered,
                      "Workload::verify() on every core after recover()"});
    checks.push_back({"recovery_clean",
                      r0.recovery.slicesRejected == 0 &&
                          r0.recovery.tornCommitsDetected == 0,
                      "0 rejected slices and 0 torn commits after a clean "
                      "crash"});
    std::uint64_t busy = 0, nvm_written = 0, ctrl_committed = 0,
                  ctrl_rejected = 0;
    for (const auto &c : r0.counters) {
        if (c.first == "nvm.channel_busy_ticks")
            busy = c.second;
        else if (c.first == "nvm.bytes_written")
            nvm_written = c.second;
        else if (c.first == "controller.tx_committed")
            ctrl_committed = c.second;
        else if (c.first == "controller.tx_rejected")
            ctrl_rejected = c.second;
    }
    checks.push_back({"channel_busy_within_window",
                      busy <= r0.metrics.simTicks,
                      "nvm channel busy ticks <= window ticks"});
    checks.push_back({"committed_is_attempted_minus_rejected",
                      r0.committed == r0.attempted - ctrl_rejected &&
                          ctrl_committed == r0.committed,
                      "System and controller commit counts over the "
                      "window"});
    checks.push_back({"window_counters_agree",
                      nvm_written == r0.metrics.nvmBytesWritten &&
                          r0.metrics.transactions == r0.committed,
                      "counter deltas equal RunMetrics over the window"});
    checks.push_back({"counters_monotonic", monotonic,
                      "no per-layer counter fell during the window"});
    checks.push_back({"reps_bit_identical", deterministic,
                      "simulated results equal in every repetition"});
    if (trace) {
        checks.push_back({"traced_matches_untraced", traced_equal,
                          "traced simulated results equal untraced"});
    }

    // Paper standing: Opt-Redo is Fig. 7a's base, so the redo run also
    // measures HOOP on the same traffic (untimed).
    double hoop_tx_per_s = 0.0;
    if (def->scheme == Scheme::OptRedo) {
        WorkloadDef hoop_def = *def;
        hoop_def.scheme = Scheme::Hoop;
        hoop_tx_per_s =
            runRep(hoop_def, cfg, factory, nullptr, 0).metrics.txPerSecond;
    }

    if (tracer && !tracer->write(spans_path)) {
        std::fprintf(stderr, "hoop_perfbench: cannot write %s\n",
                     spans_path.c_str());
        return 1;
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "hoop_perfbench: cannot write %s\n",
                     out_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"scheme\": \"%s\", \"seed\": "
                 "%" PRIu64 ", \"trace\": %d, \"cores\": %u, "
                 "\"recovery_threads\": %u, \"peak_rss_kib\": %ld, "
                 "\"nvm_bandwidth_bytes_per_s\": %.17g, "
                 "\"standing_hoop_tx_per_s\": %.17g,\n\"checks\": [",
                 def->name, schemeName(def->scheme), seed, trace,
                 cfg.numCores, kRecoveryThreads, ru.ru_maxrss,
                 cfg.nvm.bandwidthBytesPerSec, hoop_tx_per_s);
    for (std::size_t i = 0; i < checks.size(); ++i) {
        std::fprintf(f, "%s{\"name\": \"%s\", \"ok\": %s, \"detail\": %s}",
                     i ? ", " : "", checks[i].name.c_str(),
                     checks[i].ok ? "true" : "false",
                     jsonQuote(checks[i].detail).c_str());
    }
    std::fprintf(f, "],\n\"sim\": ");
    emitSim(f, r0);
    std::fprintf(f, ",\n\"reps\": [");
    for (std::size_t i = 0; i < reps.size(); ++i) {
        std::fprintf(f, "%s", i ? ",\n" : "\n");
        emitRep(f, reps[i]);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0 ? 0 : 1;
}
