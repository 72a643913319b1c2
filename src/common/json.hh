/**
 * @file
 * Shared JSON string escaping.
 *
 * Every place that emits a runtime string into a JSON document must
 * route it through jsonEscape/jsonQuote (the PR 5 bench bug class:
 * workload names or fault descriptions containing quotes, backslashes
 * or control characters silently corrupt the report). hoop_lint's
 * raw-json rule enforces this; the helpers live in src/common so both
 * the library (fleet/soak/trace emitters) and the bench harness can
 * link them.
 */
#pragma once

#include <string>

namespace hoopnvm
{

/** Escape s for inclusion inside a JSON string literal (RFC 8259):
 *  backslash, double quote, and all control characters below 0x20. */
std::string jsonEscape(const std::string &s);

/** jsonEscape(s) wrapped in double quotes — a complete JSON string. */
std::string jsonQuote(const std::string &s);

/** Shortest decimal form of @p v that parses back (strtod) to the
 *  identical double, so replayable specs never lose precision. */
std::string jsonNumber(double v);

} // namespace hoopnvm
