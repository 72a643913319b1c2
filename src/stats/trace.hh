/**
 * @file
 * Chrome trace-event tracer (Perfetto / chrome://tracing loadable).
 *
 * Each System owns a TraceBuffer; components append complete ("ph":"X")
 * spans for transactions, GC steps, migrations and recovery phases with
 * timestamps taken from the simulated clock. Buffers are single-threaded
 * (one per simulated System, matching the bench harness's
 * one-cell-per-thread model) and keep plain event records; the global
 * sink gathers them under a mutex and renders the whole document once,
 * through JsonWriter, when the trace is written.
 *
 * Tracing is off unless the HOOP_TRACE environment variable names an
 * output file (or a tool calls Trace::setPath()). When off, no
 * TraceBuffer exists and the hot-path check is a single null-pointer
 * test — zero allocation, zero formatting.
 *
 * Timestamps: the trace-event format wants microseconds; the simulator
 * clock is ticks (integer picoseconds). `ts` and `dur` are written as
 * fractional microseconds in their shortest round-trip form, which is
 * the exact tick count for any time below 10^15 ps (1000 simulated
 * seconds), so every distinct tick stays a distinct timestamp.
 */

#ifndef HOOPNVM_STATS_TRACE_HH
#define HOOPNVM_STATS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hoopnvm
{

/** One recorded trace event. The phase says which fields apply:
 *  'M' names process @p pid @p name; 'X' is a span of @p dur ticks;
 *  'i' an instant; 'C' a counter sample of @p value. */
struct TraceEvent
{
    char ph;
    int pid;
    unsigned tid;
    std::string name;
    std::string cat;
    Tick ts;
    Tick dur;
    std::uint64_t value;
};

/** Per-System collector of Chrome trace events. */
class TraceBuffer
{
  public:
    /**
     * @param processName Label shown for this System in the trace UI
     *                    (e.g. "hoop/updates-heavy").
     */
    explicit TraceBuffer(std::string processName);
    ~TraceBuffer();

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /**
     * Append a complete span.
     *
     * @param name  Event name ("tx", "gc", "recovery.scan", ...).
     * @param cat   Category ("tx", "gc", "recovery", "migration").
     * @param tid   Simulated thread id (core id, or a synthetic lane).
     * @param start Span start, in ticks.
     * @param end   Span end, in ticks (clamped to >= start).
     */
    void span(const char *name, const char *cat, unsigned tid,
              Tick start, Tick end);

    /** Append an instant event at @p at ticks. */
    void instant(const char *name, const char *cat, unsigned tid,
                 Tick at);

    /** Append a counter event (one numeric series) at @p at ticks. */
    void counter(const char *name, Tick at, std::uint64_t value);

    /** Flush this buffer's events into the global sink. */
    void flush();

    std::size_t eventCount() const { return events_.size(); }

  private:
    int pid_;
    std::vector<TraceEvent> events_;
};

/** Process-wide trace sink. */
namespace Trace
{

/** True when a trace file is armed (env HOOP_TRACE or setPath()). */
bool enabled();

/** Arm (or, with an empty path, disarm) tracing programmatically. */
void setPath(const std::string &path);

/** Path the trace will be written to, empty when disabled. */
std::string path();

/**
 * Write all flushed events as one Chrome trace JSON object. Called
 * automatically at process exit; tools may call it earlier. Returns
 * false if the file could not be written. Safe to call when disabled
 * (no-op, returns true).
 */
bool write();

/** Drop all flushed events (tests). */
void clearForTest();

} // namespace Trace

} // namespace hoopnvm

#endif // HOOPNVM_STATS_TRACE_HH
