/**
 * @file
 * Command-line scaffold shared by the hoop_* tools.
 *
 * Every tool follows one convention: a table of flags parsed in
 * argument order, `--help`/`-h` printing the usage text to stdout, and
 * every usage error printed as "<tool>: <message>" plus the usage text
 * on stderr with exit code 2. The checkers (crashcheck, soak, fleet)
 * also share `--replay` spec loading, `--out` directory creation,
 * "all" expansion of the scheme and workload lists, and the
 * reproducer files they write for each shrunk violation.
 */

#ifndef HOOPNVM_TOOLS_CLI_HH
#define HOOPNVM_TOOLS_CLI_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "check/crash_schedule.hh"

namespace hoopnvm::cli
{

/** The schemes a `--scheme all` sweep covers (all but Native). */
inline constexpr Scheme kPersistentSchemes[] = {
    Scheme::Hoop, Scheme::OptRedo, Scheme::OptUndo,
    Scheme::Osp,  Scheme::Lsm,     Scheme::Lad};

/** The workloads a `--workload all` sweep covers. */
inline constexpr const char *kAllWorkloads[] = {
    "vector", "hashmap", "queue", "rbtree", "btree", "ycsb", "tpcc"};

/**
 * Where a flag's value goes. A `bool *` flag is a switch; every other
 * flag consumes the next argument, parsed for its target type
 * (integers base 10, unchecked, like strtoull).
 */
using FlagTarget =
    std::variant<bool *, std::string *, std::uint64_t *, unsigned *,
                 double *, std::function<void(const char *)>>;

struct Flag
{
    const char *name;
    FlagTarget target;

    /**
     * Accepted values; empty accepts any. A missing or unlisted value
     * is reported as "<flag> must be a, b or c".
     */
    std::vector<std::string> choices = {};
};

/** Slurp @p path. @return false when it cannot be opened. */
inline bool
readFile(const std::filesystem::path &path, std::string *out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    *out = ss.str();
    return true;
}

/** Expand a `--workload` argument ("all" = kAllWorkloads). */
inline std::vector<std::string>
expandWorkloads(const std::string &arg)
{
    if (arg != "all")
        return {arg};
    return {std::begin(kAllWorkloads), std::end(kAllWorkloads)};
}

/**
 * Write a shrunk violation's spec JSON to
 * `<dir>/<prefix>_violation_<scheme>_<cell>_<index>.json` and report
 * the violation and the file on stdout.
 */
inline void
writeReproducer(const std::string &dir, const char *prefix, Scheme scheme,
                const std::string &cell, std::size_t index,
                const std::string &detail, const std::string &json)
{
    const std::string path = dir + "/" + prefix + "_violation_" +
                             schemeToken(scheme) + "_" + cell + "_" +
                             std::to_string(index) + ".json";
    std::ofstream(path) << json;
    std::printf("  VIOLATION: %s\n  reproducer: %s\n", detail.c_str(),
                path.c_str());
}

/** Print a replay's verdict. @return its exit code (1 = violated). */
inline int
replayVerdict(bool violated, const std::string &detail)
{
    if (violated) {
        std::printf("  VIOLATION: %s\n", detail.c_str());
        return 1;
    }
    std::printf("  no violation\n");
    return 0;
}

/** One tool's name and usage text, and the conventions built on them. */
class Tool
{
  public:
    constexpr Tool(const char *name, const char *usage)
        : name_(name), usage_(usage)
    {
    }

    /** Report @p msg and the usage text. @return exit code 2. */
    int
    usageError(const std::string &msg) const
    {
        std::fprintf(stderr, "%s: %s\n%s", name_, msg.c_str(), usage_);
        return 2;
    }

    /**
     * Parse @p argv against @p flags, in argument order. Arguments
     * that are not flags go to @p positional when given (a leading '-'
     * still marks an unknown option), else are unknown options.
     * @return the exit code when the tool must stop now (0 after
     * `--help`, 2 on a usage error), nullopt to go on.
     */
    std::optional<int>
    parse(int argc, char **argv, const std::vector<Flag> &flags,
          std::vector<std::string> *positional = nullptr) const
    {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--help" || a == "-h") {
                std::fputs(usage_, stdout);
                return 0;
            }
            const Flag *flag = nullptr;
            for (const Flag &f : flags) {
                if (a == f.name) {
                    flag = &f;
                    break;
                }
            }
            if (!flag) {
                if (positional && (a.empty() || a[0] != '-')) {
                    positional->push_back(a);
                    continue;
                }
                return usageError("unknown option " + a);
            }
            if (bool *const *on = std::get_if<bool *>(&flag->target)) {
                **on = true;
                continue;
            }
            const char *v = i + 1 < argc ? argv[++i] : nullptr;
            const std::vector<std::string> &ok = flag->choices;
            if (!ok.empty() &&
                (!v || std::find(ok.begin(), ok.end(), v) == ok.end()))
                return usageError(a + " must be " + choiceList(ok));
            if (!v)
                return usageError(a + " needs a value");
            std::visit(
                [v](auto &&t) {
                    using T = std::decay_t<decltype(t)>;
                    if constexpr (std::is_same_v<T, std::string *>)
                        *t = v;
                    else if constexpr (std::is_same_v<T, std::uint64_t *>)
                        *t = std::strtoull(v, nullptr, 10);
                    else if constexpr (std::is_same_v<T, unsigned *>)
                        *t = static_cast<unsigned>(
                            std::strtoul(v, nullptr, 10));
                    else if constexpr (std::is_same_v<T, double *>)
                        *t = std::strtod(v, nullptr);
                    else if constexpr (!std::is_same_v<T, bool *>)
                        t(v);
                },
                flag->target);
        }
        return std::nullopt;
    }

    /**
     * Load a `--replay` spec from @p path into @p out (@p what names
     * the spec kind in the malformed-input message).
     * @return exit code 2 on failure, nullopt on success.
     */
    template <typename Spec>
    std::optional<int>
    readSpec(const std::string &path, const char *what, Spec *out) const
    {
        std::string text;
        if (!readFile(path, &text))
            return usageError("cannot open replay file " + path);
        std::string err;
        if (!Spec::fromJson(text, out, &err))
            return usageError(std::string("malformed ") + what + ": " +
                              err);
        return std::nullopt;
    }

    /**
     * Create the `--out` directory up front: reproducers are written
     * with plain ofstream, which silently drops a file whose directory
     * is missing. @return exit code 2 on failure, nullopt on success.
     */
    std::optional<int>
    makeOutDir(const std::string &dir) const
    {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (!ec)
            return std::nullopt;
        std::fprintf(stderr, "%s: cannot create --out %s: %s\n", name_,
                     dir.c_str(), ec.message().c_str());
        return 2;
    }

    /**
     * Expand a `--scheme` argument ("all" = kPersistentSchemes) into
     * @p out. @return exit code 2 for an unknown scheme or Native.
     */
    std::optional<int>
    expandSchemes(const std::string &arg, std::vector<Scheme> *out) const
    {
        Scheme s = Scheme::Hoop;
        if (arg == "all") {
            // push_back rather than assign(first, last): GCC's UBSan
            // build flags the range-assign growth path with a spurious
            // -Warray-bounds on the 6-element source array.
            for (Scheme p : kPersistentSchemes)
                out->push_back(p);
        } else if (schemeFromToken(arg, &s) && s != Scheme::Native) {
            out->push_back(s);
        } else {
            return usageError("unknown scheme " + arg);
        }
        return std::nullopt;
    }

  private:
    /** "a, b or c". */
    static std::string
    choiceList(const std::vector<std::string> &choices)
    {
        std::string out;
        for (std::size_t i = 0; i < choices.size(); ++i) {
            if (i > 0)
                out += i + 1 < choices.size() ? ", " : " or ";
            out += choices[i];
        }
        return out;
    }

    const char *name_;
    const char *usage_;
};

} // namespace hoopnvm::cli

#endif // HOOPNVM_TOOLS_CLI_HH
