/**
 * @file
 * Pins the RNG stream ids of the STATS protocol steps
 * (core/rng_streams.h).  Engine::runStats, NativeRuntime and
 * SessionPipeline all draw from these ids, and every committed digest
 * depends on their exact values, so a change here must be deliberate.
 */

#include <gtest/gtest.h>

#include "core/rng_streams.h"

namespace {

namespace streams = repro::core::streams;

TEST(RngStreams, IdsKeepTheirValues)
{
    for (const std::uint64_t c : {0u, 1u, 7u, 15u, 39u, 1000u}) {
        EXPECT_EQ(streams::body(c), 1000 + c) << "chunk " << c;
        EXPECT_EQ(streams::alt(c), 2000 + c) << "chunk " << c;
        EXPECT_EQ(streams::reexec(c), 5000 + c) << "chunk " << c;
        for (const std::uint64_t rep : {0u, 1u, 2u, 127u})
            EXPECT_EQ(streams::replica(c, rep), 3000 + c * 128 + rep)
                << "chunk " << c << " replica " << rep;
    }
    // Spot values, independent of the formulas above.
    EXPECT_EQ(streams::body(3), 1003u);
    EXPECT_EQ(streams::alt(3), 2003u);
    EXPECT_EQ(streams::replica(3, 1), 3385u);
    EXPECT_EQ(streams::reexec(4), 5004u);
}

} // namespace
