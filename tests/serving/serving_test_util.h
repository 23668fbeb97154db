/**
 * @file
 * Helpers shared by the ServingRuntime tests.
 */

#ifndef REPRO_TESTS_SERVING_SERVING_TEST_UTIL_H
#define REPRO_TESTS_SERVING_SERVING_TEST_UTIL_H

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "serving/serving_runtime.h"

namespace repro::testing {

/** Waits (bounded) until the strand has processed every closed chunk
 *  of @p id: a pool task runs it, so poll() returns before it does. */
inline void
awaitProcessed(const serving::ServingRuntime &runtime, serving::SessionId id)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
        const auto stats = runtime.sessionStats(id);
        if (stats.chunksProcessed == stats.chunksClosed)
            return;
        ASSERT_LT(Clock::now(), deadline) << "strand never caught up";
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

} // namespace repro::testing

#endif // REPRO_TESTS_SERVING_SERVING_TEST_UTIL_H
