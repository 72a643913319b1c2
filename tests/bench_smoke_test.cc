/**
 * @file
 * End-to-end smoke test for a bench binary: runs it with a tiny
 * transaction count (HOOP_BENCH_TX) on a 2-thread pool and validates
 * the machine-readable BENCH_<name>.json it emits against the schema —
 * well-formed JSON, schema_version, the config/host summary blocks,
 * and per-cell records with labels, wall seconds, and metrics.
 *
 * Usage: bench_smoke_test <path-to-bench-binary> <expected-json-name>
 * (wired up by tests/CMakeLists.txt with $<TARGET_FILE:bench_workloads>).
 * Plain main, no gtest: the bench path comes in via argv.
 */

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace
{

int failures = 0;

#define CHECK(cond, ...)                                                \
    do {                                                                \
        if (!(cond)) {                                                  \
            std::fprintf(stderr, "FAIL %s:%d: ", __FILE__, __LINE__);   \
            std::fprintf(stderr, __VA_ARGS__);                          \
            std::fprintf(stderr, "\n");                                 \
            ++failures;                                                 \
        }                                                               \
    } while (0)

/** Minimal JSON value: just enough to validate the bench schema. */
struct Json
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
    double num = 0.0;
    bool boolean = false;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json *find(const std::string &key) const
    {
        auto it = obj.find(key);
        return it == obj.end() ? nullptr : &it->second;
    }
};

/** Recursive-descent parser; returns false on malformed input. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : s(text) {}

    bool parse(Json &out)
    {
        skipWs();
        if (!value(out))
            return false;
        skipWs();
        return pos == s.size();
    }

  private:
    const std::string &s;
    std::size_t pos = 0;

    void skipWs()
    {
        while (pos < s.size() && std::isspace(
                   static_cast<unsigned char>(s[pos])))
            ++pos;
    }
    bool eat(char c)
    {
        skipWs();
        if (pos < s.size() && s[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }
    bool value(Json &out)
    {
        skipWs();
        if (pos >= s.size())
            return false;
        const char c = s[pos];
        if (c == '{')
            return object(out);
        if (c == '[')
            return array(out);
        if (c == '"') {
            out.kind = Json::Str;
            return string(out.str);
        }
        if (s.compare(pos, 4, "true") == 0) {
            out.kind = Json::Bool;
            out.boolean = true;
            pos += 4;
            return true;
        }
        if (s.compare(pos, 5, "false") == 0) {
            out.kind = Json::Bool;
            pos += 5;
            return true;
        }
        if (s.compare(pos, 4, "null") == 0) {
            pos += 4;
            return true;
        }
        return number(out);
    }
    bool number(Json &out)
    {
        const char *start = s.c_str() + pos;
        char *end = nullptr;
        out.num = std::strtod(start, &end);
        if (end == start)
            return false;
        out.kind = Json::Num;
        pos += static_cast<std::size_t>(end - start);
        return true;
    }
    bool string(std::string &out)
    {
        if (!eat('"'))
            return false;
        out.clear();
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                if (++pos >= s.size())
                    return false;
                switch (s[pos]) {
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'r': out += '\r'; break;
                case '\\': out += '\\'; break;
                case '"': out += '"'; break;
                case '/': out += '/'; break;
                case 'u': {
                    // The bench only emits \u00XX (control bytes).
                    if (pos + 4 >= s.size())
                        return false;
                    unsigned v = 0;
                    for (int d = 1; d <= 4; ++d) {
                        const char h = s[pos + d];
                        if (!std::isxdigit(
                                static_cast<unsigned char>(h)))
                            return false;
                        v = v * 16 +
                            (h <= '9' ? h - '0'
                                      : (std::tolower(h) - 'a') + 10);
                    }
                    if (v > 0xff)
                        return false;
                    out += static_cast<char>(v);
                    pos += 4;
                    break;
                }
                default: return false;
                }
                ++pos;
            } else {
                out += s[pos++];
            }
        }
        return pos < s.size() && s[pos++] == '"';
    }
    bool object(Json &out)
    {
        if (!eat('{'))
            return false;
        out.kind = Json::Obj;
        skipWs();
        if (eat('}'))
            return true;
        do {
            std::string key;
            if (!string(key) || !eat(':'))
                return false;
            Json v;
            if (!value(v))
                return false;
            out.obj.emplace(std::move(key), std::move(v));
        } while (eat(','));
        return eat('}');
    }
    bool array(Json &out)
    {
        if (!eat('['))
            return false;
        out.kind = Json::Arr;
        skipWs();
        if (eat(']'))
            return true;
        do {
            Json v;
            if (!value(v))
                return false;
            out.arr.push_back(std::move(v));
        } while (eat(','));
        return eat(']');
    }
};

void
requireNum(const Json &obj, const char *key, const char *where)
{
    const Json *v = obj.find(key);
    CHECK(v != nullptr, "%s missing key \"%s\"", where, key);
    if (v)
        CHECK(v->kind == Json::Num, "%s key \"%s\" is not a number",
              where, key);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: %s <bench-binary> <expected-json-name>\n",
                     argv[0]);
        return 2;
    }
    const std::string bench = argv[1];
    const std::string jsonName = argv[2];

    // Tiny run: a handful of transactions on a 2-thread pool, JSON
    // into the CWD (the ctest working directory).
    ::setenv("HOOP_BENCH_TX", "3", 1);
    ::setenv("HOOP_BENCH_JOBS", "2", 1);
    ::setenv("HOOP_BENCH_JSON_DIR", ".", 1);
    std::remove(jsonName.c_str());

    // lint: raw-json-ok (shell-command quoting for std::system, not JSON emission)
    const std::string cmd = "\"" + bench + "\" > bench_smoke_stdout.txt";
    const int rc = std::system(cmd.c_str());
    CHECK(rc == 0, "bench exited with status %d", rc);

    std::ifstream in(jsonName);
    CHECK(in.good(), "bench did not write %s", jsonName.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    CHECK(!text.empty(), "%s is empty", jsonName.c_str());

    Json root;
    CHECK(Parser(text).parse(root), "%s is not well-formed JSON",
          jsonName.c_str());
    if (failures)
        return 1;

    CHECK(root.kind == Json::Obj, "root is not an object");
    const Json *ver = root.find("schema_version");
    CHECK(ver && ver->kind == Json::Num && ver->num == 6.0,
          "schema_version != 6");
    const Json *name = root.find("bench");
    CHECK(name && name->kind == Json::Str && !name->str.empty(),
          "missing bench name");

    const Json *config = root.find("config");
    CHECK(config && config->kind == Json::Obj, "missing config object");
    if (config && config->kind == Json::Obj) {
        for (const char *k :
             {"num_cores", "cpu_ghz", "l1_bytes", "l2_bytes",
              "llc_bytes", "oop_bytes", "oop_block_bytes",
              "mapping_table_bytes", "nvm_read_ns", "nvm_write_ns",
              "tx_per_core"})
            requireNum(*config, k, "config");
    }

    const Json *host = root.find("host");
    CHECK(host && host->kind == Json::Obj, "missing host object");
    if (host && host->kind == Json::Obj) {
        for (const char *k : {"jobs", "wall_seconds", "cells",
                              "cells_per_sec", "sim_ticks",
                              "sim_ticks_per_sec"})
            requireNum(*host, k, "host");
        const Json *jobs = host->find("jobs");
        if (jobs)
            CHECK(jobs->num == 2.0, "host.jobs should honour "
                  "HOOP_BENCH_JOBS=2, got %g", jobs->num);
    }

    const Json *cells = root.find("cells");
    CHECK(cells && cells->kind == Json::Arr, "missing cells array");
    if (cells && cells->kind == Json::Arr) {
        CHECK(!cells->arr.empty(), "cells array is empty");
        for (std::size_t i = 0; i < cells->arr.size(); ++i) {
            const Json &cell = cells->arr[i];
            CHECK(cell.kind == Json::Obj, "cell %zu not an object", i);
            const Json *label = cell.find("label");
            CHECK(label && label->kind == Json::Str &&
                      !label->str.empty(),
                  "cell %zu missing label", i);
            requireNum(cell, "seconds", "cell");
            const Json *metrics = cell.find("metrics");
            if (metrics) {
                CHECK(metrics->kind == Json::Obj,
                      "cell %zu metrics not an object", i);
                for (const char *k :
                     {"transactions", "sim_ticks", "tx_per_second",
                      "nvm_bytes_written", "nvm_bytes_read"})
                    requireNum(*metrics, k, "metrics");
                // Schema v2: latency quantile summaries + epoch ring.
                // Schema v3 adds the scrub pause summary and the
                // media-tolerance tallies below. Schema v4 adds the
                // p999 tail quantile. Schema v5 adds the
                // under-populated-quantile markers, the NVM
                // channel-occupancy gauges and the per-role block.
                // Schema v6 drops v4's four client_* epoch gauges,
                // which nothing fed.
                for (const char *k :
                     {"crit_path", "llc_miss_lat", "gc_pause",
                      "scrub_pause"}) {
                    const Json *sum = metrics->find(k);
                    CHECK(sum && sum->kind == Json::Obj,
                          "cell %zu metrics missing summary \"%s\"",
                          i, k);
                    if (sum && sum->kind == Json::Obj) {
                        for (const char *q :
                             {"count", "p50_ns", "p95_ns", "p99_ns",
                              "p999_ns", "max_ns", "mean_ns",
                              "p50_saturated", "p95_saturated",
                              "p99_saturated", "p999_saturated"})
                            requireNum(*sum, q, k);
                    }
                }
                for (const char *k :
                     {"ecc_corrected_words", "uncorrectable_reads",
                      "read_retries", "retired_units", "tx_rejected",
                      "degraded_fraction", "channel_busy_ticks",
                      "channel_wait_ticks", "drain_fences",
                      "channel_utilization"})
                    requireNum(*metrics, k, "metrics");
                const Json *roles = metrics->find("roles");
                CHECK(roles && roles->kind == Json::Arr,
                      "cell %zu metrics missing roles array", i);
                if (roles && roles->kind == Json::Arr) {
                    // Empty for every non-interference bench; when a
                    // role is present it carries the full record.
                    for (const Json &r : roles->arr) {
                        CHECK(r.kind == Json::Obj,
                              "role entry not an object");
                        const Json *rn = r.find("role");
                        CHECK(rn && rn->kind == Json::Str &&
                                  !rn->str.empty(),
                              "role entry missing name");
                        requireNum(r, "transactions", "role");
                        requireNum(r, "tx_per_second", "role");
                        const Json *lat = r.find("latency");
                        CHECK(lat && lat->kind == Json::Obj,
                              "role entry missing latency summary");
                    }
                }
                const Json *epochs = metrics->find("epochs");
                CHECK(epochs && epochs->kind == Json::Arr,
                      "cell %zu metrics missing epochs array", i);
                if (epochs && epochs->kind == Json::Arr) {
                    for (const Json &e : epochs->arr) {
                        CHECK(e.kind == Json::Obj,
                              "epoch entry not an object");
                        for (const char *k :
                             {"at_ticks", "mapping_entries",
                              "struct_bytes", "backpressure_stalls",
                              "inflight_writes", "retired_units",
                              "corrected_words", "degraded_fraction",
                              "tx_rejected", "channel_busy_ticks",
                              "channel_wait_ticks"})
                            requireNum(e, k, "epoch");
                    }
                }
            }
        }
    }

    if (failures) {
        std::fprintf(stderr, "%d check(s) failed\n", failures);
        return 1;
    }
    std::printf("bench smoke OK: %s -> %s (%zu cells)\n", bench.c_str(),
                jsonName.c_str(),
                cells ? cells->arr.size() : 0);
    return 0;
}
