/**
 * @file
 * hoop_lint: the determinism & durability invariant checker CLI.
 *
 * Scans src/ bench/ tools/ tests/ (or explicit paths) with the
 * token-level rule engine in src/lint/ and prints file:line
 * diagnostics. Suppression is in-source (`// lint: <rule>-ok
 * (reason)`) or via the checked-in baseline file (lint_baseline.txt
 * at the repo root — kept empty by policy; entries exist only to
 * stage large migrations and go stale loudly).
 *
 * --self-test mirrors ordercheck's seeded-bug knobs: every rule must
 * fire on its embedded bad fixture, stay quiet on the clean fixture,
 * and the real tree must report 0 unsuppressed violations.
 *
 * Exit codes match the other check tools: 0 = clean, 1 = violations
 * (or malformed annotations / stale baseline entries / failed
 * self-test), 2 = usage error.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "cli.hh"
#include "lint/lint.hh"

namespace
{

using namespace hoopnvm;

constexpr const char *kUsage =
    "usage: hoop_lint [options] [paths...]\n"
    "  paths           files or directories to scan, relative to\n"
    "                  --root (default: src bench tools tests)\n"
    "  --root DIR      repository root (default .)\n"
    "  --baseline FILE suppression baseline (default\n"
    "                  <root>/lint_baseline.txt when present)\n"
    "  --list-rules    print the rule catalog and exit\n"
    "  --self-test     prove every rule live on its embedded bad\n"
    "                  fixture, quiet on the clean fixture, and the\n"
    "                  real tree unsuppressed-clean\n"
    "  --verbose       also print suppressed hits with their reasons\n";

constexpr cli::Tool kCli("hoop_lint", kUsage);

bool
lintableExtension(const std::filesystem::path &p)
{
    const std::string e = p.extension().string();
    return e == ".cc" || e == ".hh" || e == ".cpp" || e == ".hpp" ||
           e == ".h";
}

/** Collect lintable files under root/path, repo-relative, sorted. */
bool
collectFiles(const std::filesystem::path &root,
             const std::vector<std::string> &paths,
             std::vector<lint::SourceFile> *files)
{
    namespace fs = std::filesystem;
    std::vector<std::string> rels;
    for (const std::string &p : paths) {
        const fs::path full = root / p;
        std::error_code ec;
        if (fs::is_directory(full, ec)) {
            for (fs::recursive_directory_iterator
                     it(full, fs::directory_options::skip_permission_denied,
                        ec),
                 end;
                 it != end && !ec; it.increment(ec)) {
                if (!it->is_regular_file(ec) ||
                    !lintableExtension(it->path()))
                    continue;
                rels.push_back(
                    fs::relative(it->path(), root, ec).generic_string());
            }
        } else if (fs::is_regular_file(full, ec)) {
            rels.push_back(fs::path(p).generic_string());
        } else {
            std::fprintf(stderr, "hoop_lint: no such path: %s\n",
                         full.string().c_str());
            return false;
        }
    }
    std::sort(rels.begin(), rels.end());
    rels.erase(std::unique(rels.begin(), rels.end()), rels.end());
    for (const std::string &rel : rels) {
        lint::SourceFile sf;
        sf.path = rel;
        if (!cli::readFile(root / rel, &sf.content)) {
            std::fprintf(stderr, "hoop_lint: cannot read %s\n",
                         rel.c_str());
            return false;
        }
        files->push_back(std::move(sf));
    }
    return true;
}

void
printReport(const lint::LintReport &rep, bool verbose)
{
    for (const lint::Diagnostic &d : rep.diags) {
        if (d.suppressed) {
            if (verbose)
                std::printf("%s:%u: suppressed [%s] (%s)\n",
                            d.file.c_str(), d.line, d.rule.c_str(),
                            d.suppressedBy.c_str());
            continue;
        }
        std::printf("%s:%u: error: [%s] %s\n", d.file.c_str(), d.line,
                    d.rule.c_str(), d.message.c_str());
    }
    for (const std::string &e : rep.annotationErrors)
        std::printf("%s: error: %s\n", e.c_str(),
                    "(malformed suppressions count as violations)");
    for (const std::string &b : rep.staleBaseline)
        std::printf("baseline: error: stale entry '%s' matches "
                    "nothing — remove it\n",
                    b.c_str());
}

int
selfTest(const std::vector<lint::SourceFile> &treeFiles,
         const lint::LintOptions &opts)
{
    bool ok = true;

    // 1. Every rule fires on its bad fixture — and only rules with a
    // fixture exist (rule without proof-of-life = dead rule).
    std::vector<std::string> provenRules;
    for (const lint::Fixture &fx : lint::badFixtures()) {
        lint::LintReport rep = lint::lintFiles(
            {{fx.path, fx.code}}, lint::LintOptions{});
        std::size_t fires = 0;
        for (const lint::Diagnostic &d : rep.diags) {
            if (d.rule == fx.rule && !d.suppressed)
                ++fires;
        }
        if (fires == 0) {
            std::printf("self-test: rule %-16s DEAD (bad fixture did "
                        "not fire)\n",
                        fx.rule);
            ok = false;
        } else {
            std::printf("self-test: rule %-16s fires %zu on bad "
                        "fixture\n",
                        fx.rule, fires);
        }
        provenRules.push_back(fx.rule);
    }
    for (const lint::RuleInfo &r : lint::ruleCatalog()) {
        if (std::find(provenRules.begin(), provenRules.end(),
                      r.name) == provenRules.end()) {
            std::printf("self-test: rule %-16s has NO bad fixture\n",
                        r.name);
            ok = false;
        }
    }

    // 2. The clean fixture stays quiet under every rule.
    {
        lint::LintReport rep =
            lint::lintFiles({lint::cleanFixture()}, lint::LintOptions{});
        if (rep.unsuppressed != 0 || !rep.annotationErrors.empty()) {
            std::printf("self-test: clean fixture raised %zu "
                        "diagnostics:\n",
                        rep.unsuppressed);
            printReport(rep, false);
            ok = false;
        } else {
            std::printf("self-test: clean fixture quiet\n");
        }
    }

    // 3. The real tree reports 0 unsuppressed violations.
    {
        lint::LintReport rep = lint::lintFiles(treeFiles, opts);
        std::size_t suppressed = 0;
        for (const lint::Diagnostic &d : rep.diags)
            suppressed += d.suppressed ? 1 : 0;
        if (!rep.clean()) {
            std::printf("self-test: tree NOT clean (%zu unsuppressed, "
                        "%zu annotation errors, %zu stale baseline):\n",
                        rep.unsuppressed, rep.annotationErrors.size(),
                        rep.staleBaseline.size());
            printReport(rep, false);
            ok = false;
        } else {
            std::printf("self-test: tree clean (%zu files, %zu "
                        "suppressed by annotation/baseline)\n",
                        treeFiles.size(), suppressed);
        }
    }

    std::printf("self-test: %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    namespace fs = std::filesystem;

    std::string root = ".";
    std::string baselinePath;
    std::vector<std::string> paths;
    bool listRules = false;
    bool doSelfTest = false;
    bool verbose = false;

    if (const auto rc = kCli.parse(argc, argv,
                                   {{"--root", &root},
                                    {"--baseline", &baselinePath},
                                    {"--list-rules", &listRules},
                                    {"--self-test", &doSelfTest},
                                    {"--verbose", &verbose}},
                                   &paths))
        return *rc;

    if (listRules) {
        for (const lint::RuleInfo &r : lint::ruleCatalog())
            std::printf("%-16s %s\n", r.name, r.summary);
        return 0;
    }

    if (paths.empty())
        paths = {"src", "bench", "tools", "tests"};

    lint::LintOptions opts;
    {
        fs::path bp = baselinePath.empty()
                          ? fs::path(root) / "lint_baseline.txt"
                          : fs::path(baselinePath);
        std::string text;
        if (cli::readFile(bp, &text)) {
            opts.baseline = lint::parseBaselineText(text);
        } else if (!baselinePath.empty()) {
            return kCli.usageError("cannot read baseline " +
                                   baselinePath);
        }
    }

    std::vector<lint::SourceFile> files;
    if (!collectFiles(root, paths, &files))
        return 2;
    if (files.empty())
        return kCli.usageError("no lintable files found");

    if (doSelfTest)
        return selfTest(files, opts);

    lint::LintReport rep = lint::lintFiles(files, opts);
    printReport(rep, verbose);

    std::size_t suppressed = 0;
    for (const lint::Diagnostic &d : rep.diags)
        suppressed += d.suppressed ? 1 : 0;
    std::printf("hoop_lint: %zu files, %zu violations "
                "(%zu suppressed), %zu annotation errors, %zu stale "
                "baseline entries\n",
                files.size(), rep.unsuppressed, suppressed,
                rep.annotationErrors.size(), rep.staleBaseline.size());
    return rep.clean() ? 0 : 1;
}
