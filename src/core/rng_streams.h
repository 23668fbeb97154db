/**
 * @file
 * RNG stream ids of the STATS protocol steps.
 *
 * Every protocol step draws its randomness from base.split(id), where
 * base is util::Rng(seed) and the id names the step's role and its
 * chunk.  The batch protocol steps (core/batch_protocol.h, behind
 * Engine::runStats and NativeRuntime) and serving::SessionPipeline take
 * their ids from here, so they replay the same streams and stay
 * bit-identical to each other.
 *
 * The ids are additive offsets per role.  They are unique only within
 * bounded chunk counts (body(c) meets alt(0) at c = 1000), which every
 * batch configuration satisfies; a serving stream runs unbounded
 * chunks, which only a structured (role, chunk, replica) key would
 * make collision-free.  Changing any value here re-seeds every run.
 */

#ifndef REPRO_CORE_RNG_STREAMS_H
#define REPRO_CORE_RNG_STREAMS_H

#include <cstdint>

namespace repro::core::streams {

/** Speculative body of chunk @p c. */
constexpr std::uint64_t
body(std::uint64_t c)
{
    return 1000 + c;
}

/** Alternative producer replaying the K inputs before chunk @p c. */
constexpr std::uint64_t
alt(std::uint64_t c)
{
    return 2000 + c;
}

/** Original-state replica @p rep of boundary @p c (regenerated from
 *  chunk c's snapshot over chunk c's last K inputs). */
constexpr std::uint64_t
replica(std::uint64_t c, std::uint64_t rep)
{
    return 3000 + c * 128 + rep;
}

/** Re-execution of chunk @p c after its speculation aborted. */
constexpr std::uint64_t
reexec(std::uint64_t c)
{
    return 5000 + c;
}

} // namespace repro::core::streams

#endif // REPRO_CORE_RNG_STREAMS_H
