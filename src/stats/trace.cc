#include "stats/trace.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string_view>
#include <utility>

#include "common/json.hh"

namespace hoopnvm
{

namespace
{

struct Sink
{
    std::mutex mu;
    std::string path;
    bool pathSet = false; // setPath() overrides the environment
    std::vector<TraceEvent> events;
    std::atomic<int> nextPid{1};
    bool atexitArmed = false;
};

Sink &
sink()
{
    static Sink s;
    return s;
}

std::string
envPath()
{
    // lint: nondet-api-ok (HOOP_TRACE selects the trace output path; it never feeds simulated state)
    const char *p = std::getenv("HOOP_TRACE");
    return p ? std::string(p) : std::string();
}

/** Ticks (picoseconds) as the trace format's microseconds. */
double
micros(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

void
writeEvent(JsonWriter &w, const TraceEvent &e)
{
    w.beginObject();
    w.field("ph", std::string_view(&e.ph, 1));
    if (e.ph == 'M') {
        w.field("pid", static_cast<std::uint64_t>(e.pid));
        w.field("name", "process_name");
        w.key("args");
        w.beginObject();
        w.field("name", e.name);
        w.endObject();
        w.endObject();
        return;
    }
    if (e.ph == 'i')
        w.field("s", "t");
    w.field("name", e.name);
    if (e.ph != 'C')
        w.field("cat", e.cat);
    w.field("pid", static_cast<std::uint64_t>(e.pid));
    if (e.ph != 'C')
        w.field("tid", e.tid);
    w.field("ts", micros(e.ts));
    if (e.ph == 'X')
        w.field("dur", micros(e.dur));
    if (e.ph == 'C') {
        w.key("args");
        w.beginObject();
        w.field("value", e.value);
        w.endObject();
    }
    w.endObject();
}

void
atexitWrite()
{
    Trace::write();
}

} // namespace

TraceBuffer::TraceBuffer(std::string processName)
    : pid_(sink().nextPid.fetch_add(1, std::memory_order_relaxed))
{
    // Name the process in the trace UI.
    events_.push_back({'M', pid_, 0, std::move(processName), {}, 0, 0, 0});
}

TraceBuffer::~TraceBuffer()
{
    flush();
}

void
TraceBuffer::span(const char *name, const char *cat, unsigned tid,
                  Tick start, Tick end)
{
    if (end < start)
        end = start;
    events_.push_back({'X', pid_, tid, name, cat, start, end - start, 0});
}

void
TraceBuffer::instant(const char *name, const char *cat, unsigned tid,
                     Tick at)
{
    events_.push_back({'i', pid_, tid, name, cat, at, 0, 0});
}

void
TraceBuffer::counter(const char *name, Tick at, std::uint64_t value)
{
    events_.push_back({'C', pid_, 0, name, {}, at, 0, value});
}

void
TraceBuffer::flush()
{
    if (events_.empty())
        return;
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    for (auto &e : events_)
        s.events.push_back(std::move(e));
    events_.clear();
}

namespace Trace
{

bool
enabled()
{
    return !path().empty();
}

void
setPath(const std::string &p)
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    s.path = p;
    s.pathSet = true;
    if (!p.empty() && !s.atexitArmed) {
        s.atexitArmed = true;
        std::atexit(atexitWrite);
    }
}

std::string
path()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.pathSet)
        return s.path;
    const std::string p = envPath();
    if (!p.empty() && !s.atexitArmed) {
        s.atexitArmed = true;
        std::atexit(atexitWrite);
    }
    return p;
}

bool
write()
{
    const std::string p = path();
    if (p.empty())
        return true;
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    std::FILE *f = std::fopen(p.c_str(), "w");
    if (!f)
        return false;
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    for (const TraceEvent &e : s.events)
        writeEvent(w, e);
    w.endArray();
    w.endObject();
    const bool wrote = std::fputs(w.str().c_str(), f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

void
clearForTest()
{
    Sink &s = sink();
    std::lock_guard<std::mutex> lk(s.mu);
    s.events.clear();
}

} // namespace Trace

} // namespace hoopnvm
