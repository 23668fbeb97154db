/**
 * @file
 * Boundary-reconfiguration determinism tests: live retuning of a
 * serving session must land only at chunk boundaries, an adaptive run
 * in Frozen mode must stay bit-identical to the batch oracle, and an
 * Active controller must retune a live session when its load shifts.
 *
 * Every test runs the coordinator manually against a fake clock, so
 * closure traces — and therefore outputs — are exact.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "adapt/serving_adaptor.h"
#include "core/ema_model.h"
#include "core/native_runtime.h"
#include "core/versioned_state.h"
#include "serving/serving_runtime.h"
#include "serving/session_pipeline.h"
#include "util/thread_pool.h"

namespace {

using repro::adapt::ControllerMode;
using repro::adapt::ServingAdaptor;
using repro::core::CommitProtocol;
using repro::core::NativeRuntime;
using repro::core::ScopedStateVersioning;
using repro::core::StateVersioning;
using repro::core::StatsConfig;
using repro::serving::ResultChunk;
using repro::serving::ServingOptions;
using repro::serving::ServingRuntime;
using repro::serving::SessionConfig;
using repro::serving::SessionId;
using repro::serving::SessionPipeline;
using repro::serving::SessionTuning;
using repro::serving::SubmitStatus;
using repro::testing::EmaModel;

using Clock = std::chrono::steady_clock;

/** Manually advanced clock injected through ServingOptions::clock. */
class FakeClock
{
  public:
    Clock::time_point
    now() const
    {
        return Clock::time_point{} +
               std::chrono::nanoseconds(nanos_.load());
    }

    void
    advance(std::chrono::nanoseconds by)
    {
        nanos_.fetch_add(by.count());
    }

    std::function<Clock::time_point()>
    fn() const
    {
        return [this] { return now(); };
    }

  private:
    std::atomic<std::int64_t> nanos_{0};
};

/** Collects outputs and the realized per-chunk sizes. */
struct SizedCollector
{
    std::mutex mu;
    std::vector<double> outputs;
    std::vector<std::size_t> chunkSizes;

    std::function<void(const ResultChunk &)>
    fn()
    {
        return [this](const ResultChunk &chunk) {
            const std::lock_guard<std::mutex> lock(mu);
            chunkSizes.push_back(chunk.outputs.size());
            outputs.insert(outputs.end(), chunk.outputs.begin(),
                           chunk.outputs.end());
        };
    }
};

ServingOptions
manualOptions(const FakeClock &clock)
{
    ServingOptions opts;
    opts.backgroundCoordinator = false;
    opts.clock = clock.fn();
    return opts;
}

TEST(ServingAdapt, ChunkKnobChangeTakesEffectAtNextBoundaryOnly)
{
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    SizedCollector results;
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    // Half a chunk is queued when the retune arrives: the open chunk
    // must still close at the OLD size, and only later chunks at the
    // new one.
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // 4 inputs into the open chunk — no closure yet.
    ASSERT_TRUE(runtime.retune(id, {4, 2, 1}));
    {
        const auto stats = runtime.sessionStats(id);
        // Mid-chunk: the swap is pending, not applied.
        EXPECT_EQ(stats.retunesApplied, 0u);
        EXPECT_EQ(stats.tuning.chunkInputs, 8u);
    }
    for (int i = 0; i < 12; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // Closes 8 (old knob), then 4 (new knob).
    runtime.drain(id);

    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.retunesApplied, 1u);
    EXPECT_EQ(stats.tuning.chunkInputs, 4u);

    const std::lock_guard<std::mutex> lock(results.mu);
    ASSERT_EQ(results.chunkSizes.size(), 3u);
    EXPECT_EQ(results.chunkSizes[0], 8u) << "open chunk kept old size";
    EXPECT_EQ(results.chunkSizes[1], 4u);
    EXPECT_EQ(results.chunkSizes[2], 4u);
    runtime.evict(id);
}

TEST(ServingAdapt, RetuneAtEmptyBoundaryAppliesImmediately)
{
    EmaModel::Config mc;
    mc.inputs = 32;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    const SessionId id = runtime.admit(model, cfg);

    // Nothing queued: the stream IS at a boundary, the swap lands now.
    ASSERT_TRUE(runtime.retune(id, {16, 4, 2}));
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.retunesApplied, 1u);
    EXPECT_EQ(stats.tuning.chunkInputs, 16u);
    EXPECT_EQ(stats.tuning.altWindowK, 4u);
    EXPECT_EQ(stats.tuning.numOriginalStates, 2u);
    EXPECT_FALSE(runtime.retune(9999, {8, 2, 1}));
    runtime.evict(id);
}

TEST(ServingAdapt, MidStreamKRSwapMatchesReconfiguredPipelineOracle)
{
    // A K/R change mid-stream must produce exactly what a bare
    // SessionPipeline produces when reconfigure() is called at the
    // same chunk boundary — the protocol never sees a mid-chunk swap.
    EmaModel::Config mc;
    mc.inputs = 64;
    mc.alpha = 0.05;
    mc.tolerance = 0.02; // Mix of commits and aborts.
    const EmaModel model(mc);
    const std::uint64_t seed = 33;

    for (const auto versioning :
         {StateVersioning::Deep, StateVersioning::CopyOnWrite}) {
        const ScopedStateVersioning scoped(versioning);

        // Oracle: 4 chunks of 8 at {K=2,R=1}, swap, 4 chunks at
        // {K=5,R=2}.
        SessionPipeline oracle(model, {2, 1}, seed,
                               &repro::util::ThreadPool::global());
        std::vector<double> expected;
        for (int c = 0; c < 8; ++c) {
            if (c == 4)
                oracle.reconfigure({5, 2});
            const auto chunk = oracle.processChunk(8);
            expected.insert(expected.end(), chunk.outputs.begin(),
                            chunk.outputs.end());
        }

        FakeClock clock;
        ServingRuntime runtime(manualOptions(clock));
        SizedCollector results;
        SessionConfig cfg;
        cfg.seed = seed;
        cfg.stats.altWindowK = 2;
        cfg.stats.numOriginalStates = 1;
        cfg.chunkInputs = 8;
        cfg.queueCapacity = 64;
        cfg.onResult = results.fn();
        const SessionId id = runtime.admit(model, cfg);

        for (int i = 0; i < 32; ++i)
            ASSERT_EQ(runtime.submit(id).status,
                      SubmitStatus::Accepted);
        runtime.poll(); // Chunks 0..3 close under {K=2,R=1}.
        ASSERT_TRUE(runtime.retune(id, {8, 5, 2}));
        for (int i = 0; i < 32; ++i)
            ASSERT_EQ(runtime.submit(id).status,
                      SubmitStatus::Accepted);
        runtime.poll(); // Chunks 4..7 close under {K=5,R=2}.
        runtime.drain(id);

        const auto stats = runtime.sessionStats(id);
        EXPECT_EQ(stats.retunesApplied, 1u);
        EXPECT_EQ(stats.aborts, oracle.aborts());

        const std::lock_guard<std::mutex> lock(results.mu);
        ASSERT_EQ(results.outputs.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i)
            ASSERT_EQ(results.outputs[i], expected[i]) << "input " << i;
        runtime.evict(id);
    }
}

TEST(ServingAdapt, FrozenAdaptiveServingMatchesBatchOracle)
{
    // Full adaptive loop attached — adaptor ticking between polls,
    // controller eager to move — but in Frozen mode: the serving run
    // must stay bit-identical to NativeRuntime::run on the batch
    // boundary schedule, with zero retunes applied.
    EmaModel::Config mc;
    mc.inputs = 120;
    mc.alpha = 0.3;
    mc.tolerance = 0.02;
    const EmaModel model(mc);
    StatsConfig config;
    config.numChunks = 5;
    config.altWindowK = 3;
    config.numOriginalStates = 2;
    const std::uint64_t seed = 77;

    const NativeRuntime native(4);
    const auto oracle = native.run(model, config, seed);

    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    SizedCollector results;
    SessionConfig sc;
    sc.seed = seed;
    sc.stats.altWindowK = config.altWindowK;
    sc.stats.numOriginalStates = config.numOriginalStates;
    sc.chunkInputs = 1000; // Closure driven manually at batch sizes.
    sc.queueCapacity = 128;
    sc.onResult = results.fn();
    const SessionId id = runtime.admit(model, sc);

    ServingAdaptor::Options ao;
    ao.controller.mode = ControllerMode::Frozen;
    ao.controller.warmupWindows = 1;
    ao.controller.dwellWindows = 0;
    ao.controller.deadband = 0.01;
    ao.clock = clock.fn();
    ServingAdaptor adaptor(runtime, ao);

    const std::size_t n = model.numInputs();
    for (unsigned c = 0; c < config.numChunks; ++c) {
        const std::size_t size =
            n * (c + 1) / config.numChunks - n * c / config.numChunks;
        for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(runtime.submit(id).status,
                      SubmitStatus::Accepted);
        ASSERT_TRUE(runtime.closeChunk(id));
        clock.advance(std::chrono::milliseconds(100));
        (void)adaptor.tick(); // Observes; must never retune.
    }
    runtime.drain(id);

    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.retunesApplied, 0u);
    EXPECT_EQ(stats.tuning.altWindowK, config.altWindowK);
    EXPECT_EQ(stats.aborts, oracle.aborts);
    // Chunk 0 is never speculative: the runtime counts it as a commit,
    // the batch tally counts boundaries only.
    EXPECT_EQ(stats.commits, oracle.commits + 1u);

    const std::lock_guard<std::mutex> lock(results.mu);
    ASSERT_EQ(results.outputs.size(), oracle.outputs.size());
    for (std::size_t i = 0; i < results.outputs.size(); ++i)
        ASSERT_EQ(results.outputs[i], oracle.outputs[i])
            << "input " << i;
    runtime.evict(id);
}

/** Waits (bounded) until the strand has processed every closed chunk
 *  of @p id: a pool task runs it, so poll() returns before it does. */
void
awaitProcessed(const ServingRuntime &runtime, SessionId id)
{
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
        const auto stats = runtime.sessionStats(id);
        if (stats.chunksProcessed == stats.chunksClosed)
            return;
        ASSERT_LT(Clock::now(), deadline) << "strand never caught up";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

TEST(ServingAdapt, ActiveAdaptorGrowsChunksWhenLoadShifts)
{
    // Phase 1 trickles 2 inputs per 100 ms window under a 50 ms
    // budget: deadlines close every chunk long before it fills, so
    // whatever the size threshold, the realized chunk stays at
    // arrival x budget and no chunk move pays.  Phase 2 bursts until
    // the ring pushes back: saturated, the threshold is the realized
    // chunk length, and growing it amortizes the boundary overhead.
    // The controller must see the shift and retune the live session,
    // without breaking its dwell or losing an input.
    EmaModel::Config mc;
    mc.inputs = 4096;
    mc.alpha = 0.5;
    mc.tolerance = 0.1;
    const EmaModel model(mc);

    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    const SessionTuning start{8, 2, 1};
    SessionConfig sc;
    sc.seed = 9;
    sc.chunkInputs = start.chunkInputs;
    sc.stats.altWindowK = start.altWindowK;
    sc.stats.numOriginalStates = start.numOriginalStates;
    sc.queueCapacity = 32;
    sc.latencyBudget = std::chrono::milliseconds(50);
    const SessionId id = runtime.admit(model, sc);

    ServingAdaptor::Options ao;
    ao.controller.initial = start;
    ao.controller.warmupWindows = 1;
    ao.controller.dwellWindows = 1;
    ao.controller.latencyBudgetSeconds = 0.05;
    // Hold K still: the move under test is the chunk size.
    ao.controller.kShrinkQuietWindows = 1000;
    ao.clock = clock.fn();
    ServingAdaptor adaptor(runtime, ao);

    std::uint64_t accepted = 0;
    constexpr unsigned kTrickleWindows = 3;
    for (unsigned w = 0; w < kTrickleWindows; ++w) {
        for (int i = 0; i < 2; ++i) {
            ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
            ++accepted;
        }
        clock.advance(std::chrono::milliseconds(100));
        runtime.poll(); // Past the budget: a deadline closure.
        awaitProcessed(runtime, id);
        (void)adaptor.tick();
    }
    for (unsigned w = 0; w < 6; ++w) {
        for (int burst = 0; burst < 4; ++burst) {
            while (runtime.submit(id).status == SubmitStatus::Accepted)
                ++accepted;
            runtime.poll();
            awaitProcessed(runtime, id);
        }
        clock.advance(std::chrono::milliseconds(100));
        (void)adaptor.tick();
    }
    runtime.drain(id);
    const auto stats = runtime.sessionStats(id);
    runtime.evict(id);

    const auto &controller = adaptor.controller();
    ASSERT_FALSE(controller.decisions().empty());
    const auto &first = controller.decisions().front();
    EXPECT_TRUE(first.applied);
    EXPECT_GT(first.window, kTrickleWindows) << "moved before the shift";
    EXPECT_EQ(std::string(first.knob), "chunk");
    EXPECT_EQ(first.direction, +1);
    EXPECT_GE(stats.retunesApplied, 1u);
    EXPECT_GT(stats.tuning.chunkInputs, start.chunkInputs);
    EXPECT_EQ(controller.dwellViolations(), 0u);
    EXPECT_EQ(stats.submitted, accepted);
    EXPECT_EQ(stats.outputsDelivered, stats.submitted);
}

} // namespace
