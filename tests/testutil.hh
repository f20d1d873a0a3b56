/**
 * @file
 * Shared test utilities: seeded randomness, property-test scaling and
 * draining a trace source.
 *
 * Every randomized test draws its generator from here so that
 *
 *  - the seed is printed when the test runs (ctest only shows the
 *    output of failing tests, so the seed is in every failure log);
 *  - one environment variable, OSCACHE_TEST_SEED, reruns any
 *    randomized test with the seed from a failure log;
 *  - one knob, OSCACHE_PROP_ITERS (environment variable, or the
 *    OSCACHE_PROP_ITERS CMake cache entry as the build-time default),
 *    scales the iteration count of every property test — >1 for a
 *    soak run, <1 for a quick smoke.
 */

#ifndef OSCACHE_TESTS_TESTUTIL_HH
#define OSCACHE_TESTS_TESTUTIL_HH

#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "trace/source.hh"

namespace oscache
{
namespace testutil
{

/**
 * The seed a randomized test should use: @p default_seed (keeps runs
 * reproducible by default) unless OSCACHE_TEST_SEED overrides it.
 */
inline std::uint64_t
testSeed(std::uint64_t default_seed)
{
    if (const char *env = std::getenv("OSCACHE_TEST_SEED"))
        return std::strtoull(env, nullptr, 10);
    return default_seed;
}

/**
 * A seeded generator for one test, announcing its seed so any failure
 * log shows how to reproduce the run.
 */
inline Rng
testRng(std::uint64_t default_seed)
{
    const std::uint64_t seed = testSeed(default_seed);
    std::printf("[testutil] rng seed = %llu "
                "(rerun with OSCACHE_TEST_SEED=%llu)\n",
                (unsigned long long)seed, (unsigned long long)seed);
    std::fflush(stdout);
    return Rng(seed);
}

/** The OSCACHE_PROP_ITERS scale factor (environment over build knob). */
inline double
propScale()
{
    if (const char *env = std::getenv("OSCACHE_PROP_ITERS"))
        return std::strtod(env, nullptr);
#ifdef OSCACHE_PROP_ITERS_DEFAULT
    return OSCACHE_PROP_ITERS_DEFAULT;
#else
    return 1.0;
#endif
}

/** Property-test iteration count: @p base scaled, never below 1. */
inline int
propIters(int base)
{
    const double scaled = double(base) * propScale();
    return scaled < 1.0 ? 1 : int(scaled);
}

/** Drain every record of @p source, per cpu. */
inline std::vector<std::vector<TraceRecord>>
drain(TraceSource &source)
{
    std::vector<std::vector<TraceRecord>> out(source.numCpus());
    for (CpuId c = 0; c < source.numCpus(); ++c) {
        auto cursor = source.cursor(c);
        while (const TraceRecord *rec = cursor->peek()) {
            out[c].push_back(*rec);
            cursor->advance();
        }
        EXPECT_EQ(cursor->peek(), nullptr);
    }
    return out;
}

} // namespace testutil
} // namespace oscache

#endif // OSCACHE_TESTS_TESTUTIL_HH
