/**
 * @file
 * Exact equality of two RunMetrics for the determinism and
 * differential tests. It walks the field lists in sim/system.hh, so
 * every reported metric is compared, nested summaries, roles and
 * epoch samples included, and a new metric is compared as soon as it
 * is listed.
 */
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/system.hh"

namespace hoopnvm
{
namespace test
{

/** A metric struct with a forEachField list. */
template <typename T>
concept FieldListed = requires(const T &t) {
    forEachField([](const char *, const auto &) {}, t);
};

template <typename T>
void expectSameValue(const T &a, const T &b, const std::string &path);

template <typename T>
void
expectSameValue(const std::vector<T> &a, const std::vector<T> &b,
                const std::string &path)
{
    ASSERT_EQ(a.size(), b.size()) << path;
    for (std::size_t i = 0; i < a.size(); ++i)
        expectSameValue(a[i], b[i], path + "[" + std::to_string(i) + "]");
}

template <typename T>
void
expectSameValue(const T &a, const T &b, const std::string &path)
{
    if constexpr (FieldListed<T>) {
        forEachField(
            [&path](const char *key, const auto &x, const auto &y) {
                expectSameValue(x, y, path + "." + key);
            },
            a, b);
    } else {
        EXPECT_EQ(a, b) << path;
    }
}

/** Every listed field of @p a equals @p b's, bit for bit. */
inline void
expectIdenticalMetrics(const RunMetrics &a, const RunMetrics &b,
                       const std::string &what = "metrics")
{
    expectSameValue(a, b, what);
}

} // namespace test
} // namespace hoopnvm
