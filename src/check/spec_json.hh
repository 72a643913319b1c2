/**
 * @file
 * Minimal JSON reader shared by the replayable-spec grammars (crash
 * schedules, soak specs, fleet specs).
 *
 * Every checking harness serializes its violating experiment to a
 * small JSON object of scalar members so a failure can be re-executed
 * bit-for-bit (`--replay`). The reader here is deliberately tiny:
 * objects, arrays (a crash schedule's steps), strings (no escapes
 * beyond \" and \\), numbers and booleans — and it reports the byte
 * offset of the first syntax error so a hand-edited reproducer fails
 * loudly instead of silently defaulting fields.
 */

#ifndef HOOPNVM_CHECK_SPEC_JSON_HH
#define HOOPNVM_CHECK_SPEC_JSON_HH

#include <cctype>
#include <cstdlib>
#include <string>

namespace hoopnvm
{

/** Flat-object JSON reader for the replayable-spec grammars. */
class SpecParser
{
  public:
    explicit SpecParser(const std::string &text) : s_(text) {}

    bool fail(const std::string &msg)
    {
        if (err_.empty())
            err_ = msg + " near offset " + std::to_string(pos_);
        return false;
    }

    const std::string &error() const { return err_; }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    bool consume(char c)
    {
        skipWs();
        if (pos_ >= s_.size() || s_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool peekIs(char c)
    {
        skipWs();
        return pos_ < s_.size() && s_[pos_] == c;
    }

    bool parseString(std::string *out)
    {
        if (!consume('"'))
            return false;
        out->clear();
        while (pos_ < s_.size() && s_[pos_] != '"') {
            if (s_[pos_] == '\\' && pos_ + 1 < s_.size())
                ++pos_;
            out->push_back(s_[pos_++]);
        }
        if (pos_ >= s_.size())
            return fail("unterminated string");
        ++pos_;
        return true;
    }

    bool parseNumber(double *out)
    {
        skipWs();
        const char *start = s_.c_str() + pos_;
        char *end = nullptr;
        *out = std::strtod(start, &end);
        if (end == start)
            return fail("expected number");
        pos_ += static_cast<std::size_t>(end - start);
        return true;
    }

    bool parseBool(bool *out)
    {
        skipWs();
        if (s_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            *out = true;
            return true;
        }
        if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            *out = false;
            return true;
        }
        return fail("expected true/false");
    }

    /** Parse a non-negative integer member into @p out. */
    template <typename T>
    bool parseUnsigned(T *out)
    {
        double num = 0;
        if (!parseNumber(&num))
            return false;
        *out = static_cast<T>(num);
        return true;
    }

    /**
     * Parse a string member and map it through @p fromToken; an
     * unknown token fails with a message naming @p what.
     */
    template <typename T>
    bool parseToken(T *out, bool (*fromToken)(const std::string &, T *),
                    const char *what)
    {
        std::string tok;
        return parseString(&tok) &&
               (fromToken(tok, out) ||
                fail(std::string("unknown ") + what + " \"" + tok +
                     "\""));
    }

    /**
     * Walk the members of an object, invoking @p member for each key;
     * the callback must consume the value and return success.
     */
    template <typename Fn>
    bool parseObject(Fn member)
    {
        return parseList('{', '}', [&] {
            std::string key;
            if (!parseString(&key) || !consume(':'))
                return false;
            return member(key) ||
                   fail("bad value for key \"" + key + "\"");
        });
    }

    /** Walk the elements of an array; @p element consumes each one. */
    template <typename Fn>
    bool parseArray(Fn element)
    {
        return parseList('[', ']', element);
    }

  private:
    template <typename Fn>
    bool parseList(char open, char close, Fn item)
    {
        if (!consume(open))
            return false;
        if (peekIs(close))
            return consume(close);
        while (true) {
            if (!item())
                return false;
            if (!peekIs(','))
                return consume(close);
            consume(',');
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
    std::string err_;
};

} // namespace hoopnvm

#endif // HOOPNVM_CHECK_SPEC_JSON_HH
