#include "lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <utility>

namespace hoopnvm
{
namespace lint
{

namespace
{

// Filler written over string/char literal contents in the code view so
// rule tokens inside literals never match. Offsets are preserved: the
// code view has exactly the same length as the raw content.
constexpr char kFill = '\x01';

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
startsWith(const std::string &s, const char *prefix)
{
    return s.rfind(prefix, 0) == 0;
}

/** A string literal in the code view: offset of the opening quote plus
 *  the raw source characters between the quotes (escapes unexpanded,
 *  one filler char per source char, so close = open + text.size() + 1). */
struct Literal
{
    std::size_t open = 0;
    std::string text;
};

/** One token of the stripped code view. */
struct Token
{
    enum Kind
    {
        Ident,
        Number,
        Punct,
        Str, ///< a literal; lit indexes FileView::literals
    };
    Kind kind;
    std::size_t off = 0;
    std::string text;       ///< ident/number text, or 1-char punct
    std::size_t lit = 0;    ///< Str only
};

struct Annotation
{
    std::string rule;
    std::string reason;
};

struct FileView
{
    std::string path;
    std::string code;               ///< stripped, offset-preserving
    std::vector<std::size_t> lineStarts;
    std::vector<Literal> literals;
    std::vector<Token> tokens;
    std::vector<std::string> rawLines;
    std::vector<std::string> commentLines; ///< comment text per line
    std::vector<bool> ctorLine;     ///< inside a constructor region
    /** line -> annotations targeting it. */
    std::map<unsigned, std::vector<Annotation>> annotations;
    std::vector<std::string> annotationErrors;

    unsigned
    lineOf(std::size_t off) const
    {
        const auto it = std::upper_bound(lineStarts.begin(),
                                         lineStarts.end(), off);
        return static_cast<unsigned>(it - lineStarts.begin());
    }
};

// ---- Pass 1: strip comments, literals and preprocessor lines ----

void
stripSource(const SourceFile &src, FileView *fv)
{
    const std::string &in = src.content;
    std::string &out = fv->code;
    out = in;

    enum State
    {
        Code,
        Str,
        RawStr,
        Chr,
        LineComment,
        BlockComment,
    };
    State st = Code;
    bool atLineStart = true;
    bool pp = false; // inside a preprocessor directive (incl. continuations)

    fv->lineStarts.push_back(0);
    std::string curRaw, curComment;
    Literal lit;
    std::string rawEnd;         // `)delim"` terminator of a raw string
    std::size_t rawMatched = 0; // chars of rawEnd matched so far

    for (std::size_t i = 0; i < in.size(); ++i) {
        const char c = in[i];
        const char n = i + 1 < in.size() ? in[i + 1] : '\0';

        if (c == '\n') {
            if (st == LineComment)
                st = Code;
            if (st == RawStr)
                rawMatched = 0; // terminator cannot span lines
            if (pp && !(i > 0 && in[i - 1] == '\\'))
                pp = false;
            fv->rawLines.push_back(curRaw);
            fv->commentLines.push_back(curComment);
            curRaw.clear();
            curComment.clear();
            fv->lineStarts.push_back(i + 1);
            atLineStart = true;
            continue;
        }
        curRaw += c;

        if (atLineStart && st == Code &&
            !std::isspace(static_cast<unsigned char>(c))) {
            atLineStart = false;
            if (c == '#')
                pp = true;
        }

        switch (st) {
          case Code:
            if (c == '/' && n == '/') {
                st = LineComment;
                out[i] = ' ';
                break;
            }
            if (c == '/' && n == '*') {
                st = BlockComment;
                out[i] = ' ';
                out[i + 1] = ' ';
                curRaw += n;
                ++i;
                break;
            }
            if (pp) {
                out[i] = ' ';
                break;
            }
            if (c == '"') {
                // R"delim( ... )delim" — fill the whole literal
                // (delimiters included) so no token survives it.
                if (i > 0 && in[i - 1] == 'R' &&
                    (i == 1 || !isIdentChar(in[i - 2]))) {
                    rawEnd = ")";
                    for (std::size_t j = i + 1;
                         j < in.size() && in[j] != '(' &&
                         in[j] != '\n' && rawEnd.size() <= 17;
                         ++j)
                        rawEnd += in[j];
                    rawEnd += '"';
                    rawMatched = 0;
                    st = RawStr;
                    out[i] = kFill;
                    break;
                }
                st = Str;
                lit.open = i;
                lit.text.clear();
                break;
            }
            if (c == '\'') {
                st = Chr;
                break;
            }
            break;
          case Str:
            if (c == '\\') {
                lit.text += c;
                out[i] = kFill;
                if (n != '\0' && n != '\n') {
                    lit.text += n;
                    out[i + 1] = kFill;
                    curRaw += n;
                    ++i;
                }
                break;
            }
            if (c == '"') {
                fv->literals.push_back(lit);
                st = Code;
                break;
            }
            lit.text += c;
            out[i] = kFill;
            break;
          case RawStr:
            out[i] = kFill;
            if (c == rawEnd[rawMatched]) {
                if (++rawMatched == rawEnd.size())
                    st = Code;
            } else {
                rawMatched = c == rawEnd[0] ? 1 : 0;
            }
            break;
          case Chr:
            if (c == '\\') {
                out[i] = kFill;
                if (n != '\0' && n != '\n') {
                    out[i + 1] = kFill;
                    curRaw += n;
                    ++i;
                }
                break;
            }
            if (c == '\'') {
                st = Code;
                break;
            }
            out[i] = kFill;
            break;
          case LineComment:
            curComment += c;
            out[i] = ' ';
            break;
          case BlockComment:
            curComment += c;
            out[i] = ' ';
            if (c == '*' && n == '/') {
                out[i + 1] = ' ';
                curRaw += n;
                ++i;
                st = Code;
            }
            break;
        }
    }
    fv->rawLines.push_back(curRaw);
    fv->commentLines.push_back(curComment);
    fv->ctorLine.assign(fv->rawLines.size() + 2, false);
}

// ---- Pass 2: tokenize the code view ----

void
tokenize(FileView *fv)
{
    const std::string &s = fv->code;
    std::size_t litIdx = 0;
    for (std::size_t i = 0; i < s.size();) {
        const char c = s[i];
        if (std::isspace(static_cast<unsigned char>(c)) || c == kFill) {
            ++i;
            continue;
        }
        if (isIdentChar(c) &&
            !std::isdigit(static_cast<unsigned char>(c))) {
            Token t;
            t.kind = Token::Ident;
            t.off = i;
            while (i < s.size() && isIdentChar(s[i]))
                t.text += s[i++];
            fv->tokens.push_back(std::move(t));
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < s.size() &&
             std::isdigit(static_cast<unsigned char>(s[i + 1])))) {
            Token t;
            t.kind = Token::Number;
            t.off = i;
            while (i < s.size() &&
                   (isIdentChar(s[i]) || s[i] == '.' ||
                    ((s[i] == '+' || s[i] == '-') && i > 0 &&
                     (s[i - 1] == 'e' || s[i - 1] == 'E') &&
                     !t.text.empty() &&
                     (t.text.front() != '0' || t.text.size() < 2 ||
                      (t.text[1] != 'x' && t.text[1] != 'X')))))
                t.text += s[i++];
            fv->tokens.push_back(std::move(t));
            continue;
        }
        if (c == '"') {
            Token t;
            t.kind = Token::Str;
            t.off = i;
            t.lit = litIdx;
            // Skip the filler body to the closing quote.
            if (litIdx < fv->literals.size() &&
                fv->literals[litIdx].open == i) {
                i += fv->literals[litIdx].text.size() + 2;
                ++litIdx;
            } else {
                ++i; // stray quote (should not happen)
            }
            fv->tokens.push_back(std::move(t));
            continue;
        }
        Token t;
        t.kind = Token::Punct;
        t.off = i;
        t.text = c;
        fv->tokens.push_back(std::move(t));
        ++i;
    }
}

// ---- Pass 3: annotations ----

void
parseAnnotations(FileView *fv)
{
    const std::size_t nLines = fv->commentLines.size();
    for (std::size_t li = 0; li < nLines; ++li) {
        const std::string &cm = fv->commentLines[li];
        std::size_t pos = 0;
        while ((pos = cm.find("lint:", pos)) != std::string::npos) {
            // Word boundary: "hoop_lint:" in prose is not a marker,
            // and neither is doc text quoting the grammar itself
            // ("lint: <rule>-ok") — the marker must be followed by an
            // identifier character after optional spaces.
            if (pos > 0 && isIdentChar(cm[pos - 1])) {
                pos += 5;
                continue;
            }
            pos += 5;
            while (pos < cm.size() &&
                   std::isspace(static_cast<unsigned char>(cm[pos])))
                ++pos;
            if (pos >= cm.size() || !isIdentChar(cm[pos]))
                continue;
            std::string tok;
            while (pos < cm.size() &&
                   (isIdentChar(cm[pos]) || cm[pos] == '-'))
                tok += cm[pos++];
            const unsigned hereLine = static_cast<unsigned>(li + 1);
            auto err = [&](const std::string &msg) {
                fv->annotationErrors.push_back(
                    fv->path + ":" + std::to_string(hereLine) + ": " +
                    msg);
            };
            if (tok.size() < 4 ||
                tok.compare(tok.size() - 3, 3, "-ok") != 0) {
                err("malformed lint annotation '" + tok +
                    "' (expected '<rule>-ok (reason)')");
                continue;
            }
            const std::string rule = tok.substr(0, tok.size() - 3);
            if (!ruleKnown(rule)) {
                err("lint annotation names unknown rule '" + rule +
                    "'");
                continue;
            }
            while (pos < cm.size() &&
                   std::isspace(static_cast<unsigned char>(cm[pos])))
                ++pos;
            if (pos >= cm.size() || cm[pos] != '(') {
                err("lint annotation '" + rule +
                    "-ok' is missing its (reason)");
                continue;
            }
            const std::size_t close = cm.find(')', pos);
            const std::string reason =
                close == std::string::npos
                    ? std::string()
                    : trim(cm.substr(pos + 1, close - pos - 1));
            if (reason.empty()) {
                err("lint annotation '" + rule +
                    "-ok' has an empty reason");
                continue;
            }
            pos = close + 1;

            // Target: this line if it carries code, else the next
            // line that does (a comment-only line annotates the code
            // below it).
            unsigned target = hereLine;
            auto lineHasCode = [&](std::size_t l0) {
                const std::size_t a = fv->lineStarts[l0];
                const std::size_t b = l0 + 1 < fv->lineStarts.size()
                                          ? fv->lineStarts[l0 + 1]
                                          : fv->code.size();
                for (std::size_t k = a; k < b && k < fv->code.size();
                     ++k) {
                    const char ch = fv->code[k];
                    if (!std::isspace(static_cast<unsigned char>(ch)) &&
                        ch != kFill && ch != '\n')
                        return true;
                }
                return false;
            };
            if (!lineHasCode(li)) {
                for (std::size_t l = li + 1;
                     l < nLines && l <= li + 5; ++l) {
                    if (lineHasCode(l)) {
                        target = static_cast<unsigned>(l + 1);
                        break;
                    }
                }
            }
            fv->annotations[target].push_back(Annotation{rule, reason});
        }
    }
}

// ---- Pass 4: constructor regions (for the stats-lookup rule) ----

void
markCtorRegions(FileView *fv)
{
    struct Scope
    {
        bool ctor = false;
        bool klass = false;
        std::string className;
        std::size_t sigStart = 0;
    };
    std::vector<Scope> stack;
    const std::vector<Token> &ts = fv->tokens;
    std::size_t sigTok = 0; // first token of the pending signature

    auto enclosingClass = [&]() -> const std::string * {
        for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            if (it->klass)
                return &it->className;
        }
        return nullptr;
    };

    for (std::size_t i = 0; i < ts.size(); ++i) {
        const Token &t = ts[i];
        if (t.kind == Token::Punct && t.text == ";") {
            sigTok = i + 1;
            continue;
        }
        if (t.kind == Token::Punct && t.text == "}") {
            if (!stack.empty()) {
                const Scope sc = stack.back();
                stack.pop_back();
                if (sc.ctor) {
                    const unsigned a = fv->lineOf(sc.sigStart);
                    const unsigned b = fv->lineOf(t.off);
                    for (unsigned l = a;
                         l <= b && l < fv->ctorLine.size(); ++l)
                        fv->ctorLine[l] = true;
                }
            }
            sigTok = i + 1;
            continue;
        }
        if (!(t.kind == Token::Punct && t.text == "{"))
            continue;

        // Classify the brace from the signature tokens [sigTok, i).
        Scope sc;
        bool isNamespace = false;
        std::string className;
        const std::string *encl = enclosingClass();
        for (std::size_t k = sigTok; k < i; ++k) {
            const Token &s = ts[k];
            if (s.kind != Token::Ident)
                continue;
            if (s.text == "namespace") {
                isNamespace = true;
                break;
            }
            if ((s.text == "class" || s.text == "struct") &&
                k + 1 < i && ts[k + 1].kind == Token::Ident) {
                className = ts[k + 1].text;
                // keep scanning: "enum class" never declares ctors but
                // classifying it as a class is harmless (no ctor name
                // will match inside).
            }
            // Out-of-class constructor: A :: A (
            if (k + 3 < i && ts[k + 1].kind == Token::Punct &&
                ts[k + 1].text == ":" && ts[k + 2].kind == Token::Punct &&
                ts[k + 2].text == ":" && ts[k + 3].kind == Token::Ident &&
                ts[k + 3].text == s.text && k + 4 < i &&
                ts[k + 4].kind == Token::Punct && ts[k + 4].text == "(") {
                sc.ctor = true;
            }
            // In-class constructor: <ClassName> (
            if (encl && s.text == *encl && k + 1 < i &&
                ts[k + 1].kind == Token::Punct &&
                ts[k + 1].text == "(" &&
                (k == sigTok || ts[k - 1].text != ":"))
                sc.ctor = true;
        }
        if (isNamespace) {
            stack.push_back(Scope{});
        } else if (sc.ctor) {
            sc.sigStart = ts[sigTok < i ? sigTok : i].off;
            stack.push_back(sc);
        } else if (!className.empty()) {
            Scope k2;
            k2.klass = true;
            k2.className = className;
            stack.push_back(k2);
        } else {
            stack.push_back(Scope{});
        }
        sigTok = i + 1;
    }
}

// ---- Rule helpers ----

char
prevNonSpace(const FileView &fv, std::size_t off)
{
    while (off > 0) {
        --off;
        const char c = fv.code[off];
        if (!std::isspace(static_cast<unsigned char>(c)) && c != kFill)
            return c;
    }
    return '\0';
}

char
nextNonSpace(const FileView &fv, std::size_t off)
{
    for (std::size_t i = off; i < fv.code.size(); ++i) {
        const char c = fv.code[i];
        if (!std::isspace(static_cast<unsigned char>(c)) && c != kFill)
            return c;
    }
    return '\0';
}

bool
inDir(const std::string &path, const char *dir)
{
    return startsWith(path, dir);
}

using Sink = std::vector<Diagnostic>;

void
emit(const FileView &fv, Sink *sink, std::size_t off,
     const char *rule, std::string msg)
{
    Diagnostic d;
    d.file = fv.path;
    d.line = fv.lineOf(off);
    d.rule = rule;
    d.message = std::move(msg);
    sink->push_back(std::move(d));
}

// ---- Rule: nondet-api ----

void
ruleNondetApi(const FileView &fv, Sink *sink)
{
    // Identifiers that must never appear in simulation code: every
    // random draw goes through the seeded common/rng.hh, every
    // timestamp is simulated ticks, and behavior must not depend on
    // the process environment. Call-shaped names additionally require
    // a '(' so struct fields that merely share a name stay quiet.
    static const std::set<std::string> callBanned = {
        "rand",       "srand",     "drand48",       "lrand48",
        "getenv",     "gettimeofday", "clock_gettime", "localtime",
        "gmtime",     "hardware_concurrency",
    };
    static const std::set<std::string> typeBanned = {
        "random_device", "mt19937", "mt19937_64", "minstd_rand",
        "default_random_engine", "knuth_b", "ranlux24", "ranlux48",
    };
    for (const Token &t : fv.tokens) {
        if (t.kind != Token::Ident)
            continue;
        const bool call = callBanned.count(t.text) > 0;
        const bool type = typeBanned.count(t.text) > 0;
        if (call || type) {
            if (call) {
                const char prev = prevNonSpace(fv, t.off);
                if (nextNonSpace(fv, t.off + t.text.size()) != '(')
                    continue;
                if (prev == '.' || prev == '>')
                    continue; // member call on some other object
            }
            emit(fv, sink, t.off, "nondet-api",
                 "banned nondeterminism API '" + t.text +
                     "' (simulation code must be seeded and "
                     "environment-independent; use common/rng.hh / "
                     "simulated ticks)");
            continue;
        }
        // Wall-clock reads: any ::now() call (steady_clock,
        // system_clock, high_resolution_clock, file_clock...).
        if (t.text == "now" && t.off >= 2 &&
            fv.code[t.off - 1] == ':' && fv.code[t.off - 2] == ':' &&
            nextNonSpace(fv, t.off + 3) == '(') {
            emit(fv, sink, t.off, "nondet-api",
                 "wall-clock read '::now()' (simulated time only; "
                 "host profiling must be annotated)");
        }
    }
}

// ---- Rule: unordered-iter ----

/** Names declared with an unordered container type anywhere in this
 *  file (members, locals, parameters). Shared between the rule itself
 *  and lintFiles's header pairing: a member declared unordered in
 *  foo.hh must still flag a range-for in foo.cc. */
std::set<std::string>
collectUnorderedNames(const FileView &fv)
{
    const std::vector<Token> &ts = fv.tokens;
    std::set<std::string> names;
    for (std::size_t i = 0; i < ts.size(); ++i) {
        if (ts[i].kind != Token::Ident ||
            (ts[i].text != "unordered_map" &&
             ts[i].text != "unordered_set" &&
             ts[i].text != "unordered_multimap" &&
             ts[i].text != "unordered_multiset"))
            continue;
        std::size_t k = i + 1;
        if (k >= ts.size() || ts[k].text != "<")
            continue;
        int depth = 0;
        for (; k < ts.size(); ++k) {
            if (ts[k].text == "<")
                ++depth;
            else if (ts[k].text == ">" && --depth == 0)
                break;
        }
        ++k;
        while (k < ts.size() &&
               (ts[k].text == ">" || ts[k].text == "*" ||
                ts[k].text == "&" || ts[k].text == "const"))
            ++k;
        if (k < ts.size() && ts[k].kind == Token::Ident) {
            const std::string next =
                k + 1 < ts.size() ? ts[k + 1].text : "";
            if (next == ";" || next == "=" || next == "," ||
                next == ")" || next == "{" || next == "(" ||
                next == "[")
                names.insert(ts[k].text);
        }
    }
    return names;
}

void
ruleUnorderedIter(const FileView &fv,
                  const std::set<std::string> &pairedNames, Sink *sink)
{
    const std::vector<Token> &ts = fv.tokens;
    std::set<std::string> names = collectUnorderedNames(fv);
    names.insert(pairedNames.begin(), pairedNames.end());
    if (names.empty())
        return;

    // Flag range-for statements whose range expression mentions one
    // of those names.
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (ts[i].kind != Token::Ident || ts[i].text != "for" ||
            ts[i + 1].text != "(")
            continue;
        int depth = 0;
        std::size_t colon = 0, close = 0;
        for (std::size_t k = i + 1; k < ts.size(); ++k) {
            if (ts[k].text == "(") {
                ++depth;
            } else if (ts[k].text == ")") {
                if (--depth == 0) {
                    close = k;
                    break;
                }
            } else if (depth == 1 && colon == 0 && ts[k].text == ":" &&
                       (k + 1 >= ts.size() || ts[k + 1].text != ":") &&
                       (k == 0 || ts[k - 1].text != ":")) {
                colon = k;
            }
        }
        if (colon == 0 || close == 0)
            continue;
        // A range expression routed through sortedKeys() already has a
        // deterministic order — that is the blessed fix for this rule.
        bool sorted = false;
        for (std::size_t k = colon + 1; k < close && !sorted; ++k)
            sorted = ts[k].kind == Token::Ident &&
                     (ts[k].text == "sortedKeys" ||
                      ts[k].text == "sortedValues");
        if (sorted)
            continue;
        for (std::size_t k = colon + 1; k < close; ++k) {
            if (ts[k].kind == Token::Ident && names.count(ts[k].text)) {
                emit(fv, sink, ts[i].off, "unordered-iter",
                     "iteration over unordered container '" +
                         ts[k].text +
                         "' (hash/address iteration order is not a "
                         "deterministic contract; sort first, use "
                         "common/flat_map.hh, or annotate an "
                         "order-insensitive fold)");
                break;
            }
        }
    }
}

// ---- Rule: ptr-key ----

void
rulePtrKey(const FileView &fv, Sink *sink)
{
    static const std::set<std::string> containers = {
        "map",      "unordered_map", "multimap", "unordered_multimap",
        "set",      "unordered_set", "multiset", "unordered_multiset",
        "hash",
    };
    const std::vector<Token> &ts = fv.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (ts[i].kind != Token::Ident || !containers.count(ts[i].text))
            continue;
        if (ts[i + 1].text != "<")
            continue;
        // First template argument: tokens at depth 1 until ',' or the
        // matching '>'.
        int depth = 0;
        std::string arg;
        std::string lastTok;
        for (std::size_t k = i + 1; k < ts.size(); ++k) {
            if (ts[k].text == "<") {
                if (++depth == 1)
                    continue;
            } else if (ts[k].text == ">") {
                if (--depth == 0)
                    break;
            } else if (ts[k].text == "," && depth == 1) {
                break;
            }
            lastTok = ts[k].text;
            arg += ts[k].text;
        }
        if (lastTok == "*") {
            emit(fv, sink, ts[i].off, "ptr-key",
                 "pointer-keyed container '" + ts[i].text + "<" + arg +
                     ", ...>' (pointer order/hash is allocation order "
                     "— nondeterministic across runs; key by a stable "
                     "id instead)");
        }
    }
}

// ---- Rule: stats-lookup ----

void
ruleStatsLookup(const FileView &fv, Sink *sink)
{
    if (!inDir(fv.path, "src/"))
        return;
    const std::vector<Token> &ts = fv.tokens;
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
        if (ts[i].kind != Token::Ident ||
            (ts[i].text != "counter" && ts[i].text != "histogram"))
            continue;
        const char prev = prevNonSpace(fv, ts[i].off);
        if (prev != '.' && prev != '>')
            continue;
        if (ts[i + 1].text != "(" || ts[i + 2].kind != Token::Str)
            continue;
        // Exactly one (string) argument: `counter("k", ts, v)` is the
        // trace event emitter, not a StatSet lookup.
        if (i + 3 < ts.size() && ts[i + 3].text != ")")
            continue;
        const unsigned line = fv.lineOf(ts[i].off);
        if (line < fv.ctorLine.size() && fv.ctorLine[line])
            continue;
        emit(fv, sink, ts[i].off, "stats-lookup",
             "string-keyed stats lookup '." + ts[i].text +
                 "(\"...\")' outside a constructor (resolve the "
                 "Counter&/Histogram& once at construction — the PR 2 "
                 "hot-path invariant)");
    }
}

// ---- Rule: raw-json ----

void
ruleRawJson(const FileView &fv, Sink *sink)
{
    auto lineExempt = [&](unsigned line) {
        // The escaping call being right there is the fix; also exempt
        // error-message construction (fail("... \"" + key + "\"")) —
        // quoted identifiers in diagnostics are not JSON documents.
        for (unsigned l = line >= 2 ? line - 2 : 1; l <= line; ++l) {
            if (l - 1 >= fv.rawLines.size())
                break;
            const std::string &raw = fv.rawLines[l - 1];
            if (raw.find("jsonEscape") != std::string::npos ||
                raw.find("jsonQuote") != std::string::npos ||
                raw.find("fail(") != std::string::npos ||
                raw.find("CHECK(") != std::string::npos ||
                raw.find("HOOP_ASSERT") != std::string::npos ||
                raw.find("HOOP_FATAL") != std::string::npos ||
                raw.find("HOOP_LOG") != std::string::npos)
                return true;
        }
        return false;
    };

    for (const Literal &lit : fv.literals) {
        const unsigned line = fv.lineOf(lit.open);
        const std::string t = trim(lit.text);
        const std::size_t closeOff = lit.open + lit.text.size() + 1;
        const char before = prevNonSpace(fv, lit.open);
        const char after = nextNonSpace(fv, closeOff + 1);
        // A '<' beside a string literal in an expression can only be
        // a stream `<<`.
        const bool joined = before == '+' || after == '+' ||
                            before == '<' || after == '<';

        bool hit = false;
        std::string why;
        // (a) a bare escaped-quote fragment concatenated to a runtime
        // expression: "\"" + value or os << "\"" << value (the value
        // is emitted into a JSON string with no escaping).
        if (t == "\\\"" && joined) {
            hit = true;
            why = "quote fragment concatenated with a runtime value";
        }
        // (b) a JSON key/value skeleton ("\"key\": ...") concatenated
        // with a runtime expression.
        else if (lit.text.find("\\\":") != std::string::npos &&
                 joined) {
            hit = true;
            why = "JSON skeleton concatenated with a runtime value";
        }
        // (c) printf-family %s substituted inside escaped quotes.
        // lint: raw-json-ok (the rule's own needle text, not an emission)
        else if (lit.text.find("\\\"%s") != std::string::npos ||
                 lit.text.find("%s\\\"") != std::string::npos) {
            hit = true;
            why = "%s formatted inside JSON quotes";
        }
        if (!hit || lineExempt(line))
            continue;
        emit(fv, sink, lit.open, "raw-json",
             "raw JSON string emission (" + why +
                 ") bypasses jsonEscape — control characters and "
                 "quotes break RFC 8259 (the PR 5 bug class); route "
                 "through common/json.hh");
    }
}

// ---- Rule: fatal-in-txpath ----

void
ruleFatalInTxPath(const FileView &fv, Sink *sink)
{
    if (!inDir(fv.path, "src/"))
        return;
    for (const Token &t : fv.tokens) {
        if (t.kind != Token::Ident || t.text != "HOOP_FATAL")
            continue;
        if (nextNonSpace(fv, t.off + t.text.size()) != '(')
            continue;
        emit(fv, sink, t.off, "fatal-in-txpath",
             "HOOP_FATAL in library code: a runtime-reachable "
             "admission/tx path must throw structured TxRejected "
             "(common/errors.hh) instead of killing the process; "
             "boot/config sites carry an annotation citing the "
             "logging.hh audit");
    }
}

// ---- Rule: float-eq ----

void
ruleFloatEq(const FileView &fv, Sink *sink)
{
    if (!inDir(fv.path, "src/") && !inDir(fv.path, "bench/"))
        return;
    auto isFloatLit = [](const std::string &s) {
        if (s.empty() ||
            !std::isdigit(static_cast<unsigned char>(s[0])))
            return false;
        if (s.size() > 1 && (s[1] == 'x' || s[1] == 'X'))
            return false;
        return s.find('.') != std::string::npos ||
               s.find('e') != std::string::npos ||
               s.find('E') != std::string::npos;
    };
    const std::vector<Token> &ts = fv.tokens;
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (ts[i].kind != Token::Punct ||
            (ts[i].text != "=" && ts[i].text != "!"))
            continue;
        if (ts[i + 1].text != "=" || ts[i + 1].off != ts[i].off + 1)
            continue;
        if (i + 2 < ts.size() && ts[i + 2].text == "=" &&
            ts[i + 2].off == ts[i].off + 2)
            continue; // === cannot happen; defensive
        if (ts[i].text == "=" && i > 0) {
            const std::string &p = ts[i - 1].text;
            if (p == "<" || p == ">" || p == "!" || p == "=" ||
                p == "+" || p == "-" || p == "*" || p == "/")
                continue; // <=, >=, !=, ==... compound tokens
        }
        const Token *lhs = i > 0 ? &ts[i - 1] : nullptr;
        const Token *rhs = i + 2 < ts.size() ? &ts[i + 2] : nullptr;
        const bool l = lhs && lhs->kind == Token::Number &&
                       isFloatLit(lhs->text);
        const bool r = rhs && rhs->kind == Token::Number &&
                       isFloatLit(rhs->text);
        if (!l && !r)
            continue;
        emit(fv, sink, ts[i].off, "float-eq",
             "exact floating-point comparison against literal '" +
                 (l ? lhs->text : rhs->text) +
                 "' in metrics code (rounding makes exact equality a "
                 "latent flake; compare against an integer source or "
                 "an epsilon)");
    }
}

} // namespace

const std::vector<RuleInfo> &
ruleCatalog()
{
    static const std::vector<RuleInfo> rules = {
        {"nondet-api",
         "banned wall-clock/random/environment APIs in simulation "
         "code"},
        {"unordered-iter",
         "iteration over std::unordered_map/set (nondeterministic "
         "order)"},
        {"ptr-key",
         "pointer-keyed containers / pointer hashing (allocation-order "
         "nondeterminism)"},
        {"stats-lookup",
         "string-keyed stats counter/histogram lookup outside a "
         "constructor"},
        {"raw-json", "JSON string emission bypassing jsonEscape"},
        {"fatal-in-txpath",
         "HOOP_FATAL where runtime paths must throw TxRejected"},
        {"float-eq",
         "exact ==/!= against floating-point literals in metrics code"},
    };
    return rules;
}

bool
ruleKnown(const std::string &name)
{
    for (const RuleInfo &r : ruleCatalog()) {
        if (name == r.name)
            return true;
    }
    return false;
}

std::vector<std::string>
parseBaselineText(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        std::size_t nl = text.find('\n', pos);
        if (nl == std::string::npos)
            nl = text.size();
        std::string line = trim(text.substr(pos, nl - pos));
        pos = nl + 1;
        if (line.empty() || line[0] == '#')
            continue;
        out.push_back(std::move(line));
        if (nl == text.size())
            break;
    }
    return out;
}

LintReport
lintFiles(const std::vector<SourceFile> &files, const LintOptions &opts)
{
    LintReport rep;
    std::set<std::string> usedBaseline;

    // Phase 1: build every view, and collect unordered-container
    // names per path stem so a foo.cc range-for over a member
    // declared in foo.hh still fires.
    std::vector<FileView> views(files.size());
    std::map<std::string, std::set<std::string>> stemNames;
    auto stemOf = [](const std::string &p) {
        const std::size_t dot = p.rfind('.');
        return dot == std::string::npos ? p : p.substr(0, dot);
    };
    for (std::size_t i = 0; i < files.size(); ++i) {
        FileView &fv = views[i];
        fv.path = files[i].path;
        stripSource(files[i], &fv);
        tokenize(&fv);
        parseAnnotations(&fv);
        markCtorRegions(&fv);
        const std::set<std::string> names = collectUnorderedNames(fv);
        stemNames[stemOf(fv.path)].insert(names.begin(), names.end());
    }

    for (std::size_t fi = 0; fi < files.size(); ++fi) {
        FileView &fv = views[fi];

        Sink sink;
        ruleNondetApi(fv, &sink);
        ruleUnorderedIter(fv, stemNames[stemOf(fv.path)], &sink);
        rulePtrKey(fv, &sink);
        ruleStatsLookup(fv, &sink);
        ruleRawJson(fv, &sink);
        ruleFatalInTxPath(fv, &sink);
        ruleFloatEq(fv, &sink);

        for (Diagnostic &d : sink) {
            const auto it = fv.annotations.find(d.line);
            if (it != fv.annotations.end()) {
                for (const Annotation &a : it->second) {
                    if (a.rule == d.rule) {
                        d.suppressed = true;
                        d.suppressedBy = a.reason;
                        break;
                    }
                }
            }
            if (!d.suppressed) {
                const std::string key = d.file + ":" + d.rule;
                for (const std::string &b : opts.baseline) {
                    if (b == key) {
                        d.suppressed = true;
                        d.suppressedBy = "baseline";
                        usedBaseline.insert(b);
                        break;
                    }
                }
            }
            rep.diags.push_back(std::move(d));
        }
        for (std::string &e : fv.annotationErrors)
            rep.annotationErrors.push_back(std::move(e));
    }

    std::sort(rep.diags.begin(), rep.diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    std::sort(rep.annotationErrors.begin(), rep.annotationErrors.end());

    for (const std::string &b : opts.baseline) {
        if (!usedBaseline.count(b))
            rep.staleBaseline.push_back(b);
    }
    std::sort(rep.staleBaseline.begin(), rep.staleBaseline.end());

    for (const Diagnostic &d : rep.diags) {
        if (!d.suppressed)
            ++rep.unsuppressed;
    }
    return rep;
}

} // namespace lint
} // namespace hoopnvm
