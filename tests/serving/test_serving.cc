/**
 * @file
 * ServingRuntime behaviour tests: session lifecycle, typed submit
 * backpressure, deterministic fake-clock deadline closure, closure-
 * order invariance of outputs, concurrent multi-session traffic,
 * BlockArena reclamation at eviction, and the event-driven path
 * (closure on submit, a coordinator that sleeps until the next
 * deadline, the per-session input budget).
 *
 * Every deterministic test runs with the background coordinator off
 * and pumps poll() manually against an injected fake clock, so closure
 * traces are exact and repeatable; the concurrency and event-driven
 * tests use the real coordinator thread and clock.  The
 * ServingRuntimeAdvance tests pin how the strand runs an open chunk
 * ahead of its closure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "core/ema_model.h"
#include "core/versioned_state.h"
#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "serving/serving_runtime.h"
#include "serving/serving_test_util.h"
#include "serving/session_pipeline.h"
#include "util/block_arena.h"
#include "workloads/workload.h"

namespace {

using repro::core::ScopedStateVersioning;
using repro::core::StateVersioning;
using repro::obs::Span;
using repro::obs::SpanKind;
using repro::obs::SpanRecorder;
using repro::serving::ResultChunk;
using repro::serving::ServingOptions;
using repro::serving::ServingRuntime;
using repro::serving::SessionConfig;
using repro::serving::SessionId;
using repro::serving::SessionPipeline;
using repro::serving::SubmitStatus;
using repro::serving::submitStatusName;
using repro::testing::EmaModel;
using repro::testing::awaitProcessed;
using repro::util::BlockArena;

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

/** Thread-safe collector of delivered result chunks. */
struct Collector
{
    std::mutex mu;
    std::vector<double> outputs;
    std::vector<unsigned> chunkIndices;
    unsigned deadlineChunks = 0;

    std::function<void(const ResultChunk &)>
    fn()
    {
        return [this](const ResultChunk &chunk) {
            const std::lock_guard<std::mutex> lock(mu);
            chunkIndices.push_back(chunk.chunkIndex);
            if (chunk.deadlineClosed)
                ++deadlineChunks;
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

TEST(ServingRuntime, LifecycleDeliversEveryAcceptedInput)
{
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);
    EXPECT_EQ(runtime.activeSessions(), 1u);

    for (int i = 0; i < 20; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // 20 queued -> two size-closed chunks + 4 open.
    runtime.drain(id); // Drain closes the final partial chunk.

    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.submitted, 20u);
    EXPECT_EQ(stats.rejected, 0u);
    EXPECT_EQ(stats.chunksClosed, 3u);
    EXPECT_EQ(stats.chunksProcessed, 3u);
    EXPECT_EQ(stats.outputsDelivered, 20u);
    EXPECT_TRUE(stats.drained);

    const std::lock_guard<std::mutex> lock(results.mu);
    EXPECT_EQ(results.outputs.size(), 20u);
    // Strand delivery is strictly in chunk order.
    ASSERT_EQ(results.chunkIndices.size(), 3u);
    EXPECT_EQ(results.chunkIndices[0], 0u);
    EXPECT_EQ(results.chunkIndices[1], 1u);
    EXPECT_EQ(results.chunkIndices[2], 2u);

    runtime.evict(id);
    EXPECT_EQ(runtime.activeSessions(), 0u);
}

TEST(ServingRuntime, SubmitReportsTypedStatuses)
{
    EmaModel::Config mc;
    mc.inputs = 4;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    // Unknown session.
    EXPECT_EQ(runtime.submit(777).status, SubmitStatus::UnknownSession);

    // Backpressure: ring of 2, nobody draining it.
    SessionConfig small;
    small.queueCapacity = 2;
    small.chunkInputs = 100;
    const SessionId cramped = runtime.admit(model, small);
    EXPECT_EQ(runtime.submit(cramped).status, SubmitStatus::Accepted);
    EXPECT_EQ(runtime.submit(cramped).status, SubmitStatus::Accepted);
    const auto full = runtime.submit(cramped);
    EXPECT_EQ(full.status, SubmitStatus::Backpressure);
    EXPECT_EQ(full.queueDepth, 2u);
    EXPECT_EQ(runtime.sessionStats(cramped).rejected, 1u);

    // Exhausted: the model's input stream has 4 inputs.
    SessionConfig roomy;
    roomy.queueCapacity = 16;
    roomy.chunkInputs = 100;
    const SessionId bounded = runtime.admit(model, roomy);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(runtime.submit(bounded).status, SubmitStatus::Accepted);
    EXPECT_EQ(runtime.submit(bounded).status, SubmitStatus::Exhausted);

    // Draining: intake stops after drain().
    runtime.drain(bounded);
    EXPECT_EQ(runtime.submit(bounded).status, SubmitStatus::Draining);

    // Evicted ids are unknown again.
    runtime.evict(bounded);
    EXPECT_EQ(runtime.submit(bounded).status,
              SubmitStatus::UnknownSession);

    EXPECT_STREQ(submitStatusName(SubmitStatus::Backpressure),
                 "backpressure");
    runtime.evict(cramped);
}

TEST(ServingRuntime, DeadlineClosesPartialChunkOfStalledProducer)
{
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    const auto deadlineBefore =
        repro::metrics::MetricsRegistry::global()
            .counter("serving.deadline_closures")
            .value();

    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 100; // Size closure would need 100 inputs...
    cfg.latencyBudget = std::chrono::milliseconds(50);
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    // ... but the producer stalls after 3.
    for (int i = 0; i < 3; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);

    // Within the budget: nothing closes.
    clock.advance(std::chrono::milliseconds(10));
    runtime.poll();
    EXPECT_EQ(runtime.sessionStats(id).chunksClosed, 0u);

    // Past the budget: the partial chunk closes and commits without
    // any further producer activity.
    clock.advance(std::chrono::milliseconds(41));
    runtime.poll();
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.chunksClosed, 1u);
    EXPECT_EQ(stats.deadlineClosures, 1u);

    runtime.drain(id);
    EXPECT_EQ(runtime.sessionStats(id).outputsDelivered, 3u);
    {
        const std::lock_guard<std::mutex> lock(results.mu);
        EXPECT_EQ(results.outputs.size(), 3u);
        EXPECT_EQ(results.deadlineChunks, 1u);
    }
    EXPECT_EQ(repro::metrics::MetricsRegistry::global()
                  .counter("serving.deadline_closures")
                  .value(),
              deadlineBefore + 1);
    runtime.evict(id);
}

TEST(ServingRuntime, ClosureMechanismDoesNotChangeOutputs)
{
    // The same closure trace — chunks of 7, 13, 5, 10 — produced two
    // ways: explicit closeChunk() calls vs. deadline expiry.  Outputs
    // must be bit-identical: timing decides *where* chunks close,
    // never what a given trace computes.
    EmaModel::Config mc;
    mc.inputs = 64;
    mc.alpha = 0.2;
    const EmaModel model(mc);
    const std::vector<int> trace = {7, 13, 5, 10};

    SessionConfig base;
    base.chunkInputs = 100; // Never reached: closure is manual/deadline.
    base.queueCapacity = 64;
    base.seed = 99;
    base.stats.altWindowK = 3;
    base.stats.numOriginalStates = 2;

    FakeClock clockA;
    ServingRuntime manual(manualOptions(clockA));
    Collector viaClose;
    SessionConfig cfgA = base;
    cfgA.onResult = viaClose.fn();
    const SessionId a = manual.admit(model, cfgA);
    for (const int n : trace) {
        for (int i = 0; i < n; ++i)
            ASSERT_EQ(manual.submit(a).status, SubmitStatus::Accepted);
        EXPECT_TRUE(manual.closeChunk(a));
    }
    manual.drain(a);

    FakeClock clockB;
    ServingRuntime timed(manualOptions(clockB));
    Collector viaDeadline;
    SessionConfig cfgB = base;
    cfgB.latencyBudget = std::chrono::milliseconds(5);
    cfgB.onResult = viaDeadline.fn();
    const SessionId b = timed.admit(model, cfgB);
    for (const int n : trace) {
        for (int i = 0; i < n; ++i)
            ASSERT_EQ(timed.submit(b).status, SubmitStatus::Accepted);
        clockB.advance(std::chrono::milliseconds(6));
        timed.poll(); // Budget expired -> deadline-closes the burst.
    }
    timed.drain(b);

    const auto statsA = manual.sessionStats(a);
    const auto statsB = timed.sessionStats(b);
    EXPECT_EQ(statsA.deadlineClosures, 0u);
    EXPECT_EQ(statsB.deadlineClosures, 4u);
    EXPECT_EQ(statsA.commits, statsB.commits);
    EXPECT_EQ(statsA.aborts, statsB.aborts);

    const std::lock_guard<std::mutex> lockA(viaClose.mu);
    const std::lock_guard<std::mutex> lockB(viaDeadline.mu);
    ASSERT_EQ(viaClose.outputs.size(), 35u);
    ASSERT_EQ(viaClose.outputs.size(), viaDeadline.outputs.size());
    for (std::size_t i = 0; i < viaClose.outputs.size(); ++i)
        ASSERT_EQ(viaClose.outputs[i], viaDeadline.outputs[i])
            << "output " << i;

    manual.evict(a);
    timed.evict(b);
}

TEST(ServingRuntime, ConcurrentSessionsDeliverIndependently)
{
    EmaModel::Config mc;
    mc.inputs = 512;
    const EmaModel model(mc);

    ServingOptions opts; // Real background coordinator + real clock.
    ServingRuntime runtime(opts);

    constexpr int kSessions = 4;
    constexpr int kInputs = 200;
    std::vector<SessionId> ids(kSessions);
    std::vector<Collector> results(kSessions);
    for (int i = 0; i < kSessions; ++i) {
        SessionConfig cfg;
        cfg.chunkInputs = 16;
        cfg.queueCapacity = 32;
        cfg.seed = 1000 + static_cast<std::uint64_t>(i);
        cfg.latencyBudget = std::chrono::milliseconds(1);
        cfg.onResult = results[i].fn();
        ids[i] = runtime.admit(model, cfg);
    }
    EXPECT_EQ(runtime.activeSessions(),
              static_cast<std::size_t>(kSessions));

    std::vector<std::thread> producers;
    for (int i = 0; i < kSessions; ++i) {
        producers.emplace_back([&, i] {
            int accepted = 0;
            while (accepted < kInputs) {
                const auto result = runtime.submit(ids[i]);
                if (result.status == SubmitStatus::Accepted)
                    ++accepted;
                else
                    std::this_thread::yield(); // Backpressure: retry.
            }
        });
    }
    for (std::thread &t : producers)
        t.join();

    // Interleave drains and evictions from two threads.
    std::thread evictor([&] {
        for (int i = 0; i < kSessions; i += 2)
            runtime.evict(ids[i]);
    });
    for (int i = 1; i < kSessions; i += 2)
        runtime.drain(ids[i]);
    evictor.join();

    for (int i = 0; i < kSessions; ++i) {
        if (i % 2 == 1) {
            const auto stats = runtime.sessionStats(ids[i]);
            EXPECT_EQ(stats.submitted,
                      static_cast<std::uint64_t>(kInputs));
            EXPECT_EQ(stats.outputsDelivered,
                      static_cast<std::uint64_t>(kInputs));
            EXPECT_TRUE(stats.drained);
            runtime.evict(ids[i]);
        }
        const std::lock_guard<std::mutex> lock(results[i].mu);
        EXPECT_EQ(results[i].outputs.size(),
                  static_cast<std::size_t>(kInputs))
            << "session " << i;
    }
    EXPECT_EQ(runtime.activeSessions(), 0u);
}

/** Waits (bounded by 5 s) until @p results holds @p count outputs. */
void
awaitOutputs(Collector &results, std::size_t count)
{
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(results.mu);
            if (results.outputs.size() >= count)
                return;
        }
        ASSERT_LT(Clock::now(), deadline)
            << "only part of " << count << " outputs delivered";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

TEST(ServingRuntime, SizeFullChunkClosesOnSubmit)
{
    // No deadline and no poll(): the submit that fills the chunk closes
    // it and starts the strand, so nothing waits for the coordinator.
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    ServingRuntime runtime; // Background coordinator, real clock.
    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    for (int i = 0; i < 8; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    awaitOutputs(results, 8);
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.chunksClosed, 1u);
    EXPECT_EQ(stats.deadlineClosures, 0u);
    {
        const std::lock_guard<std::mutex> lock(results.mu);
        EXPECT_EQ(results.outputs.size(), 8u);
    }
    runtime.evict(id);
}

TEST(ServingRuntime, IdleCoordinatorDoesNotWake)
{
    // The coordinator sleeps until the earliest open-chunk deadline: an
    // idle session costs no wakeups, and one input under a 5 ms budget
    // costs two — the submit that opens the chunk, then its deadline.
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    const auto &wakeups = repro::metrics::MetricsRegistry::global().counter(
        "serving.coordinator_wakeups");
    ServingRuntime runtime;
    std::mutex mu;
    bool deadlineClosed = false;
    Clock::time_point deliveredAt{};
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;
    cfg.latencyBudget = std::chrono::milliseconds(5);
    cfg.onResult = [&](const ResultChunk &chunk) {
        const std::lock_guard<std::mutex> lock(mu);
        deadlineClosed = chunk.deadlineClosed;
        deliveredAt = Clock::now();
    };
    const SessionId id = runtime.admit(model, cfg);

    const auto before = wakeups.value();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(wakeups.value() - before, 0u) << "an idle coordinator woke";

    const Clock::time_point submitted = Clock::now();
    ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    const auto bound = submitted + std::chrono::seconds(5);
    for (;;) {
        {
            const std::lock_guard<std::mutex> lock(mu);
            if (deliveredAt != Clock::time_point{})
                break;
        }
        ASSERT_LT(Clock::now(), bound) << "the deadline never closed";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    {
        const std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(deadlineClosed);
        EXPECT_GE(deliveredAt - submitted, std::chrono::milliseconds(5));
    }
    EXPECT_LE(wakeups.value() - before, 2u);
    EXPECT_EQ(runtime.sessionStats(id).deadlineClosures, 1u);
    runtime.evict(id);
}

TEST(ServingRuntime, SessionBudgetBoundsBufferedInputs)
{
    // A producer that ignores latency pushes into a session whose
    // callback is slow.  The session holds at most queueCapacity inputs
    // — queued, open and closed — so the producer meets backpressure
    // instead of a backlog that grows without bound.
    EmaModel::Config mc;
    mc.inputs = 4096;
    const EmaModel model(mc);
    auto &reg = repro::metrics::MetricsRegistry::global();
    reg.resetAll(); // The queue highwater is a max over the process.
    ServingRuntime runtime;
    constexpr std::size_t kCapacity = 32;
    constexpr std::size_t kChunk = 8;
    std::atomic<std::size_t> delivered{0};
    SessionConfig cfg;
    cfg.chunkInputs = kChunk;
    cfg.queueCapacity = kCapacity;
    cfg.onResult = [&](const ResultChunk &chunk) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        delivered.fetch_add(chunk.outputs.size());
    };
    const SessionId id = runtime.admit(model, cfg);

    std::size_t accepted = 0;
    std::size_t refused = 0;
    const auto bound = Clock::now() + std::chrono::seconds(30);
    while (accepted < 400) {
        ASSERT_LT(Clock::now(), bound) << "the session stopped taking inputs";
        const auto result = runtime.submit(id);
        EXPECT_LE(result.queueDepth, kCapacity);
        if (result.status != SubmitStatus::Accepted) {
            ASSERT_EQ(result.status, SubmitStatus::Backpressure);
            ++refused;
            std::this_thread::yield();
            continue;
        }
        ++accepted;
        // The strand takes a chunk (returning its inputs to the budget)
        // before its callback delivers it, so one taken chunk may still
        // be undelivered.
        ASSERT_LE(accepted - delivered.load(), kCapacity + kChunk)
            << "after " << accepted << " accepted inputs";
    }
    runtime.drain(id);
    EXPECT_GT(refused, 0u);
    EXPECT_EQ(delivered.load(), accepted);
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.rejected, refused);
    EXPECT_EQ(stats.outputsDelivered, accepted);
    // The queue depth is the session's whole backlog, closed chunks
    // waiting for the slow strand included, not just the open chunk.
    const auto highwater =
        reg.snapshot().gaugeValue("serving.queue_depth_highwater");
    EXPECT_LE(highwater, static_cast<std::int64_t>(kCapacity));
    EXPECT_GT(highwater, static_cast<std::int64_t>(kChunk));
    runtime.evict(id);
}

TEST(ServingRuntime, ChunkLargerThanBudgetClosesAtBudget)
{
    // A chunk size above the session budget could never fill: the
    // budget refuses the input that would grow the open chunk past
    // queueCapacity.  The chunk closes at the budget instead, so with
    // no deadline every input is still delivered — whether the size
    // came with the session or from a retune (the adaptive controller
    // grows chunks past a default budget on its own).
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    ServingRuntime runtime; // Background coordinator, real clock.
    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 16;
    cfg.queueCapacity = 8;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);

    std::size_t accepted = 0;
    const auto bound = Clock::now() + std::chrono::seconds(5);
    const auto submitUpTo = [&](std::size_t count) {
        while (accepted < count) {
            ASSERT_LT(Clock::now(), bound)
                << "the session stalled after " << accepted << " inputs";
            const auto result = runtime.submit(id);
            if (result.status == SubmitStatus::Accepted) {
                ++accepted;
                continue;
            }
            ASSERT_EQ(result.status, SubmitStatus::Backpressure);
            std::this_thread::yield();
        }
    };
    submitUpTo(32);
    ASSERT_TRUE(runtime.retune(id, {512, 2, 1}));
    submitUpTo(64);
    awaitOutputs(results, 64);
    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.chunksClosed, 8u);
    EXPECT_EQ(stats.deadlineClosures, 0u);
    EXPECT_EQ(stats.tuning.chunkInputs, 512u);
    runtime.evict(id);
}

TEST(ServingRuntime, PacedRunClosesOnDeadlineAndTracesEverySpan)
{
    // A producer paced slower than the chunk fills: 16-input chunks at
    // one input per 5 ms, under a 50 ms budget, so every closure is a
    // deadline closure with inputs waiting in the queue.  The run must
    // deliver every input, never push back, leave no session behind,
    // and record its spans without the rings wrapping.
    EmaModel::Config mc;
    mc.inputs = 256;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    auto &reg = repro::metrics::MetricsRegistry::global();
    reg.resetAll(); // The queue highwater is a max over the process.
    SpanRecorder::global().clear();

    SessionConfig cfg;
    cfg.chunkInputs = 16;
    cfg.queueCapacity = 64;
    cfg.latencyBudget = std::chrono::milliseconds(50);
    const SessionId id = runtime.admit(model, cfg);
    for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
        clock.advance(std::chrono::milliseconds(5));
        runtime.poll();
        // Paced in real time too: the strand takes each closed chunk
        // (closed chunks count against the session budget) before the
        // next input arrives.
        awaitProcessed(runtime, id);
    }
    runtime.drain(id);
    const auto stats = runtime.sessionStats(id);
    runtime.evict(id);

    EXPECT_GT(stats.deadlineClosures, 0u);
    EXPECT_EQ(stats.outputsDelivered, 200u);
    const auto snap = reg.snapshot();
    EXPECT_GT(snap.counterValue("serving.deadline_closures"), 0u);
    EXPECT_EQ(snap.counterValue("serving.inputs_rejected"), 0u);
    EXPECT_EQ(snap.counterValue("serving.outputs_delivered"),
              snap.counterValue("serving.inputs_submitted"));
    EXPECT_EQ(snap.gaugeValue("serving.sessions_active"), 0);
    EXPECT_GT(snap.gaugeValue("serving.queue_depth_highwater"), 0);
    EXPECT_GT(snap.counterValue("obs.spans_recorded"), 0u);
    EXPECT_EQ(snap.counterValue("obs.dropped_spans"), 0u);
}

TEST(ServingRuntime, EvictionReturnsEveryArenaBlock)
{
    // A block-payload workload under CopyOnWrite allocates its session
    // state from the global BlockArena; evicting the session must
    // return every block it held.
    const ScopedStateVersioning cow(StateVersioning::CopyOnWrite);
    const auto workload = repro::workloads::makeWorkload("facetrack", 0.1);
    const auto &model = workload->model();

    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));

    const std::size_t liveBefore = BlockArena::global().liveBlocks();
    const std::size_t freedBefore = BlockArena::global().freedBlocks();

    SessionConfig cfg;
    cfg.chunkInputs = 5;
    cfg.queueCapacity = 32;
    cfg.stats.altWindowK = 2;
    cfg.stats.numOriginalStates = 2;
    const SessionId id = runtime.admit(model, cfg);
    const std::size_t inputs = std::min<std::size_t>(20, model.numInputs());
    for (std::size_t i = 0; i < inputs; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll();
    runtime.drain(id);
    EXPECT_GT(BlockArena::global().liveBlocks(), liveBefore)
        << "drained session still holds its committed state";

    runtime.evict(id);
    EXPECT_EQ(BlockArena::global().liveBlocks(), liveBefore)
        << "eviction must return every block the session held";
    EXPECT_GT(BlockArena::global().freedBlocks(), freedBefore);
}

/** The recorded spans of @p kind for @p chunk of session @p session. */
std::vector<Span>
spansOf(SpanKind kind, SessionId session, std::int64_t chunk)
{
    std::vector<Span> out;
    for (const Span &span : SpanRecorder::global().snapshot().spans)
        if (span.kind == kind && span.session == session &&
            span.chunk == chunk)
            out.push_back(span);
    return out;
}

/** Waits (bounded) until the strand has recorded an activation of
 *  @p chunk that covered @p queued open inputs: a pool task runs it, so
 *  a manual poll() returns before it does. */
void
awaitAdvance(SessionId session, std::int64_t chunk, std::uint32_t queued)
{
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    for (;;) {
        for (const Span &span :
             spansOf(SpanKind::ChunkProcess, session, chunk))
            if (span.parent == 0 && span.inputCount == queued)
                return;
        ASSERT_LT(Clock::now(), deadline)
            << "strand never advanced chunk " << chunk;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

TEST(ServingRuntimeAdvance, OpenChunkBodyRunsBeforeItsClosure)
{
    // 6 of 8 inputs queued and the strand idle: the chunk has begun and
    // its body has run over all but the K = 2 held-back inputs, before
    // the chunk closes; only the tail runs after the closure.
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;
    cfg.stats.altWindowK = 2;
    cfg.stats.numOriginalStates = 2;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);
    SpanRecorder::global().clear();

    for (int i = 0; i < 8 + 6; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // Closes chunk 0; 6 inputs of chunk 1 open.
    awaitAdvance(id, 1, 6);
    EXPECT_EQ(runtime.sessionStats(id).chunksClosed, 1u);

    for (int i = 0; i < 2; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // Closes chunk 1 on size.
    runtime.drain(id);

    const std::vector<Span> closes = spansOf(SpanKind::ChunkClose, id, 1);
    ASSERT_EQ(closes.size(), 1u);
    const Span &close = closes.front();
    std::vector<Span> segments = spansOf(SpanKind::ChunkBody, id, 1);
    for (const Span &span : spansOf(SpanKind::ReExec, id, 1))
        segments.push_back(span);
    ASSERT_EQ(segments.size(), 2u);
    std::sort(segments.begin(), segments.end(),
              [](const Span &a, const Span &b) {
                  return a.firstInput < b.firstInput;
              });
    EXPECT_EQ(segments[0].firstInput, 8);
    EXPECT_EQ(segments[0].inputCount, 6u - 2u);
    EXPECT_LE(segments[0].endNs, close.startNs)
        << "the body must run before the closure";
    EXPECT_EQ(segments[1].firstInput, 8 + 6 - 2);
    EXPECT_EQ(segments[1].inputCount, 8u - (6u - 2u));
    EXPECT_GE(segments[1].startNs, close.startNs);

    // The early activation has no closure to hang off yet; the closing
    // one does.
    bool early = false;
    bool closing = false;
    for (const Span &span : spansOf(SpanKind::ChunkProcess, id, 1)) {
        early = early || (span.parent == 0 && span.inputCount == 6);
        closing = closing || (span.parent == close.id &&
                              span.inputCount == 8);
    }
    EXPECT_TRUE(early);
    EXPECT_TRUE(closing);

    // Outputs are those of the whole-chunk pipeline.
    SessionPipeline oracle(model, cfg.stats, cfg.seed);
    std::vector<double> expected;
    for (int c = 0; c < 2; ++c) {
        const auto chunk = oracle.processChunk(8);
        expected.insert(expected.end(), chunk.outputs.begin(),
                        chunk.outputs.end());
    }
    {
        const std::lock_guard<std::mutex> lock(results.mu);
        EXPECT_TRUE(results.outputs == expected);
    }
    runtime.evict(id);
}

TEST(ServingRuntimeAdvance, RetuneAfterFirstInputLandsAtNextBoundary)
{
    // The strand begins chunk 1 at its first input, under K = 2; a
    // retune requested then must leave chunk 1 at K = 2 and land at
    // the boundary after it.
    EmaModel::Config mc;
    mc.inputs = 64;
    mc.alpha = 0.05;
    mc.tolerance = 0.02;
    const EmaModel model(mc);
    FakeClock clock;
    ServingRuntime runtime(manualOptions(clock));
    Collector results;
    SessionConfig cfg;
    cfg.chunkInputs = 8;
    cfg.queueCapacity = 64;
    cfg.stats.altWindowK = 2;
    cfg.stats.numOriginalStates = 1;
    cfg.onResult = results.fn();
    const SessionId id = runtime.admit(model, cfg);
    SpanRecorder::global().clear();

    for (int i = 0; i < 8 + 1; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // Closes chunk 0; chunk 1 opens with one input.
    awaitAdvance(id, 1, 1);
    ASSERT_TRUE(runtime.retune(id, {8, 3, 2}));
    EXPECT_EQ(runtime.sessionStats(id).retunesApplied, 0u);

    for (int i = 0; i < 7 + 8; ++i)
        ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
    runtime.poll(); // Closes chunk 1 (old knobs), then chunk 2 (new).
    runtime.drain(id);

    const auto stats = runtime.sessionStats(id);
    EXPECT_EQ(stats.retunesApplied, 1u);
    EXPECT_EQ(stats.tuning.altWindowK, 3u);
    // The alt producer's span detail is the K it replayed.
    const auto alt1 = spansOf(SpanKind::AltProducer, id, 1);
    const auto alt2 = spansOf(SpanKind::AltProducer, id, 2);
    ASSERT_EQ(alt1.size(), 1u);
    ASSERT_EQ(alt2.size(), 1u);
    EXPECT_EQ(alt1.front().detail, 2);
    EXPECT_EQ(alt2.front().detail, 3);

    SessionPipeline oracle(model, cfg.stats, cfg.seed);
    std::vector<double> expected;
    for (int c = 0; c < 3; ++c) {
        if (c == 2)
            oracle.reconfigure({3, 2});
        const auto chunk = oracle.processChunk(8);
        expected.insert(expected.end(), chunk.outputs.begin(),
                        chunk.outputs.end());
    }
    EXPECT_EQ(stats.aborts, oracle.aborts());
    {
        const std::lock_guard<std::mutex> lock(results.mu);
        EXPECT_TRUE(results.outputs == expected);
    }
    runtime.evict(id);
}

TEST(ServingRuntimeAdvance, ShutdownReleasesABegunChunk)
{
    // A runtime destroyed while a begun chunk is still open must return
    // every arena block, the begun chunk's working state included.
    const ScopedStateVersioning cow(StateVersioning::CopyOnWrite);
    const auto workload = repro::workloads::makeWorkload("facetrack", 0.1);
    const auto &model = workload->model();
    const std::size_t liveBefore = BlockArena::global().liveBlocks();
    SpanRecorder::global().clear();
    SessionId id = 0;
    {
        FakeClock clock;
        ServingRuntime runtime(manualOptions(clock));
        SessionConfig cfg;
        cfg.chunkInputs = 5;
        cfg.queueCapacity = 32;
        cfg.stats.altWindowK = 2;
        cfg.stats.numOriginalStates = 2;
        id = runtime.admit(model, cfg);
        for (int i = 0; i < 5 + 4; ++i)
            ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
        runtime.poll(); // Closes chunk 0; chunk 1 opens with 4 inputs.
        awaitAdvance(id, 1, 4);
        EXPECT_GT(BlockArena::global().liveBlocks(), liveBefore);
    }
    EXPECT_EQ(spansOf(SpanKind::ChunkClose, id, 1).size(), 0u)
        << "chunk 1 must still have been open at shutdown";
    EXPECT_EQ(BlockArena::global().liveBlocks(), liveBefore)
        << "shutdown must return every block the session held";
}

TEST(ServingRuntimeAdvance, ReleaseStateDropsABegunChunk)
{
    // The pipeline-level half of the above: releaseState() on a begun
    // chunk returns its blocks while the pipeline itself lives on.
    const ScopedStateVersioning cow(StateVersioning::CopyOnWrite);
    const auto workload = repro::workloads::makeWorkload("facetrack", 0.1);
    const auto &model = workload->model();
    const std::size_t liveBefore = BlockArena::global().liveBlocks();
    SessionPipeline pipeline(model, {2, 2}, 7);
    pipeline.processChunk(5);
    pipeline.advance(4);
    ASSERT_TRUE(pipeline.begun());
    EXPECT_GT(BlockArena::global().liveBlocks(), liveBefore);
    pipeline.releaseState();
    EXPECT_FALSE(pipeline.begun());
    EXPECT_EQ(BlockArena::global().liveBlocks(), liveBefore);
}

} // namespace
