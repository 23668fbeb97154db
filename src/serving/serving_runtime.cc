#include "serving/serving_runtime.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <utility>

#include "core/step_scope.h"
#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "util/log.h"
#include "util/spsc_ring.h"
#include "util/thread_pool.h"

namespace repro::serving {

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

/** The serving layer's instruments, resolved once (registry lookups
 *  take a lock; the steady state must not). */
struct ServingMetrics
{
    metrics::Gauge &sessionsActive;
    metrics::Counter &sessionsAdmitted;
    metrics::Counter &sessionsDrained;
    metrics::Counter &sessionsEvicted;
    metrics::Counter &inputsSubmitted;
    metrics::Counter &inputsRejected;
    metrics::Counter &chunksClosedSize;
    metrics::Counter &deadlineClosures;
    metrics::Counter &drainClosures;
    metrics::Counter &chunksCommitted;
    metrics::Counter &chunksAborted;
    metrics::Counter &outputsDelivered;
    metrics::Counter &retunesApplied;
    /** Times the background coordinator woke: a deadline came due or
     *  a submit opened a chunk with an earlier one. */
    metrics::Counter &coordinatorWakeups;
    /** Highest queue depth (the session's buffered inputs) any closure
     *  observed since the last registry reset; published set-to-max. */
    metrics::Gauge &queueDepthHighwater;
    metrics::LatencyHistogram &e2eLatency;
    /** Unit: *inputs* the session holds at chunk closure — queued,
     *  open, and closed but not yet taken by the strand — not seconds;
     *  the power-of-two bucketing is what we want. */
    metrics::LatencyHistogram &queueDepth;
    metrics::LatencyHistogram &chunkProcess;
};

/** An input in flight between submit() and chunk closure: the
 *  deadline-clock enqueue stamp (possibly a fake clock) plus the
 *  trace identity — stream index, submit span, and the *real* clock
 *  nanos the queue-wait span is timed with (span timestamps must stay
 *  on one clock even when deadlines run on an injected one). */
struct InputToken
{
    TimePoint stamp;
    std::uint64_t index = 0;    //!< Stream index of the input.
    std::uint64_t spanId = 0;   //!< Submit span (0 = untraced).
    std::uint64_t submitNs = 0; //!< steady_clock nanos at submit.
};

std::uint64_t
steadyNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

ServingMetrics &
servingMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static ServingMetrics m{
        reg.gauge("serving.sessions_active"),
        reg.counter("serving.sessions_admitted"),
        reg.counter("serving.sessions_drained"),
        reg.counter("serving.sessions_evicted"),
        reg.counter("serving.inputs_submitted"),
        reg.counter("serving.inputs_rejected"),
        reg.counter("serving.chunks_closed_size"),
        reg.counter("serving.deadline_closures"),
        reg.counter("serving.drain_closures"),
        reg.counter("serving.chunks_committed"),
        reg.counter("serving.chunks_aborted"),
        reg.counter("serving.outputs_delivered"),
        reg.counter("serving.retunes_applied"),
        reg.counter("serving.coordinator_wakeups"),
        reg.gauge("serving.queue_depth_highwater"),
        reg.histogram("serving.e2e_latency_seconds"),
        reg.histogram("serving.queue_depth"),
        reg.histogram("serving.chunk_process_seconds"),
    };
    return m;
}

} // namespace

namespace detail {

/**
 * All mutable state of one admitted session.  Held by shared_ptr: an
 * in-flight strand task keeps its session alive even across evict()
 * or runtime destruction, and the strand body touches *only* session
 * members and immortal globals (pool, metrics) — never the runtime —
 * so a strand can outlive the ServingRuntime that scheduled it.
 */
struct Session
{
    Session(SessionId sid, const core::IStateModel &m, SessionConfig c,
            std::function<TimePoint()> clk, util::ThreadPool *pool)
        : id(sid), cfg(std::move(c)), numInputs(m.numInputs()),
          clock(std::move(clk)),
          pipeline(m, cfg.stats, cfg.seed, pool),
          ring(cfg.queueCapacity)
    {
        active.chunkInputs = cfg.chunkInputs;
        active.altWindowK = cfg.stats.altWindowK;
        active.numOriginalStates = cfg.stats.numOriginalStates;
    }

    TimePoint
    now() const
    {
        return clock ? clock() : Clock::now();
    }

    const SessionId id;
    const SessionConfig cfg;
    const std::size_t numInputs; //!< Model's input-stream length.
    const std::function<TimePoint()> clock;

    // ---- Producer side (one thread) --------------------------------
    std::atomic<bool> draining{false};
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> rejected{0};
    /** Inputs the session holds against its budget (cfg.queueCapacity):
     *  accepted, and not yet taken off the closed queue by the strand.
     *  The ring holds no more than this, so it never overflows. */
    std::atomic<std::size_t> buffered{0};

    // ---- Consumer side (coordinator / poll / drain, serialized by
    //      consumerMu) --------------------------------------------------
    /** One closed-but-unprocessed chunk: the input tokens (enqueue
     *  stamps the strand turns into e2e latencies, plus each input's
     *  trace identity) and the closure's own span for causal links. */
    struct ClosedChunk
    {
        std::vector<InputToken> tokens;
        bool deadline = false;
        std::uint64_t closeSpan = 0; //!< ChunkClose span (0 untraced).
        /** STATS parameters this chunk was closed under; the strand
         *  reconfigures the pipeline to these before processing, so a
         *  knob swap can never land mid-chunk even with several closed
         *  chunks queued across a retune. */
        SessionPipeline::Config pipelineCfg;
    };

    std::mutex consumerMu;
    std::vector<InputToken> open;   //!< Queued tokens, oldest first.
    /** Open inputs the strand has advanced the pipeline over (0: the
     *  open chunk has not begun). */
    std::size_t openAdvanced = 0;
    std::deque<ClosedChunk> closed; //!< Closed, awaiting the strand.
    /** Knobs of the open chunk — frozen from its first input to its
     *  closure (a retune lands only while the open chunk is empty). */
    SessionTuning active;
    SessionTuning pending;          //!< Requested knobs, if any.
    bool hasPending = false;        //!< Guarded by consumerMu.
    /** The open chunk's deadline has been handed to the background
     *  coordinator (guarded by consumerMu; reset at each closure). */
    bool deadlinePosted = false;
    std::atomic<std::uint64_t> chunksClosed{0};
    std::atomic<std::uint64_t> deadlineClosures{0};
    std::atomic<std::uint64_t> retunesApplied{0};

    // ---- Strand (at most one pool task in flight) ------------------
    std::atomic<bool> strandActive{false};
    SessionPipeline pipeline; //!< Strand-owned while a task runs.
    std::atomic<std::uint64_t> chunksProcessed{0};
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts{0};
    std::atomic<std::uint64_t> outputsDelivered{0};
    util::SpscRing<InputToken> ring;

    // ---- Drain handshake -------------------------------------------
    std::mutex drainMu;
    std::condition_variable drainCv;
    bool drained = false; //!< Guarded by drainMu.
};

} // namespace detail

namespace {

using detail::Session;

/** Lands the pending knob swap if the stream is at a chunk boundary
 *  (no open inputs).  Caller holds consumerMu. */
void
applyPendingLocked(Session &s)
{
    if (!s.hasPending || !s.open.empty())
        return;
    s.active = s.pending;
    s.hasPending = false;
    s.retunesApplied.fetch_add(1, std::memory_order_relaxed);
    servingMetrics().retunesApplied.inc();
}

/** Publishes "deepest queue any closure has seen": set-to-max against
 *  the gauge's own current value, so a registry resetAll starts a
 *  fresh highwater epoch instead of leaving a stale offset. */
void
publishQueueHighwater(std::size_t depth)
{
    static std::mutex mu;
    const std::lock_guard<std::mutex> lock(mu);
    metrics::Gauge &g = servingMetrics().queueDepthHighwater;
    const auto d = static_cast<std::int64_t>(depth);
    const std::int64_t cur = g.value();
    if (d > cur)
        g.add(d - cur);
}

/** Moves the open chunk onto the closed queue.  Caller holds
 *  consumerMu; the open chunk must be non-empty. */
void
closeOpen(Session &s, bool deadline, bool drainClose)
{
    auto &m = servingMetrics();
    // The backlog behind the strand lives in closed chunks it has not
    // taken yet, so the depth is the session's whole budget in use.
    const std::size_t depth = s.buffered.load();
    m.queueDepth.observe(static_cast<double>(depth));
    publishQueueHighwater(depth);
    Session::ClosedChunk chunk;
    chunk.tokens = std::move(s.open);
    chunk.deadline = deadline;
    chunk.pipelineCfg.altWindowK = s.active.altWindowK;
    chunk.pipelineCfg.numOriginalStates = s.active.numOriginalStates;
    s.open.clear();
    s.openAdvanced = 0;
    s.deadlinePosted = false;
    const std::uint64_t chunkIndex =
        s.chunksClosed.fetch_add(1, std::memory_order_relaxed);
    if (obs::enabled()) {
        // The closure is instantaneous but anchors the chunk's causal
        // chain; each input also gets its queue-wait span, parented on
        // its submit span and timed submit -> closure on the real
        // clock.
        auto &rec = obs::SpanRecorder::global();
        const std::uint64_t nowRealNs = steadyNowNs();
        obs::Span close = rec.start(
            obs::SpanKind::ChunkClose, 0, s.id,
            static_cast<std::int64_t>(chunkIndex),
            static_cast<std::int64_t>(chunk.tokens.front().index),
            static_cast<std::uint32_t>(chunk.tokens.size()),
            deadline ? 1 : 0);
        chunk.closeSpan = close.id;
        for (const InputToken &token : chunk.tokens) {
            obs::Span wait;
            wait.id = rec.nextId();
            wait.parent = token.spanId;
            wait.session = s.id;
            wait.chunk = static_cast<std::int64_t>(chunkIndex);
            wait.firstInput = static_cast<std::int64_t>(token.index);
            wait.inputCount = 1;
            wait.kind = obs::SpanKind::QueueWait;
            // submitNs == 0: tracing was off when this input was
            // submitted — degrade to a zero-length span at closure.
            wait.startNs = token.submitNs ? token.submitNs : nowRealNs;
            wait.endNs = nowRealNs;
            rec.record(wait);
        }
        rec.finish(close);
    }
    s.closed.push_back(std::move(chunk));
    if (deadline) {
        s.deadlineClosures.fetch_add(1, std::memory_order_relaxed);
        m.deadlineClosures.inc();
    } else if (drainClose) {
        m.drainClosures.inc();
    } else {
        m.chunksClosedSize.inc();
    }
    // The closure is a chunk boundary — the spot a requested knob swap
    // is allowed to land.
    applyPendingLocked(s);
}

/** Appends every queued input to the open chunk, closing on size as
 *  it fills.  A chunk closes at its size or at the session budget,
 *  whichever is smaller: the budget refuses the input that would grow
 *  the open chunk past it, so a larger chunk could never fill.
 *  @return whether a chunk closed.  Caller holds consumerMu. */
bool
drainRingLocked(Session &s)
{
    bool closed = false;
    InputToken token;
    while (s.ring.tryPop(token)) {
        s.open.push_back(token);
        // Re-read per input: a closure can land a retuned chunk size.
        if (s.open.size() >=
            std::min(s.active.chunkInputs, s.cfg.queueCapacity)) {
            closeOpen(s, /*deadline=*/false, /*drainClose=*/false);
            closed = true;
        }
    }
    return closed;
}

/** When the open chunk closes on its deadline: its first input's stamp
 *  plus the latency budget; max() for an empty chunk or no budget.
 *  Caller holds consumerMu. */
TimePoint
openDeadlineLocked(const Session &s)
{
    if (s.cfg.latencyBudget.count() <= 0 || s.open.empty())
        return TimePoint::max();
    return s.open.front().stamp +
           std::chrono::duration_cast<Clock::duration>(s.cfg.latencyBudget);
}

/** Drains the ring and applies size and deadline closures.  @return the
 *  deadline of the chunk left open (max() if none).  Caller holds
 *  consumerMu. */
TimePoint
pollSessionLocked(Session &s, TimePoint now)
{
    drainRingLocked(s);
    if (now >= openDeadlineLocked(s))
        closeOpen(s, /*deadline=*/true, /*drainClose=*/false);
    return openDeadlineLocked(s);
}

/** Open inputs the strand can act on now, or 0: the first input
 *  begins the chunk, and after that only growth beyond the K inputs
 *  the body holds back lets it run further.  A draining session's
 *  open chunk is left to its closure (drain closes it at once; a
 *  shutdown drops it).  Caller holds consumerMu. */
std::size_t
openProgressLocked(const Session &s)
{
    const std::size_t n = s.open.size();
    if (n <= s.openAdvanced ||
        (s.openAdvanced > 0 && n <= s.active.altWindowK) ||
        s.draining.load(std::memory_order_acquire))
        return 0;
    return n;
}

/** Whether the strand has anything to do.  Caller holds consumerMu. */
bool
hasWorkLocked(const Session &s)
{
    return !s.closed.empty() || openProgressLocked(s) > 0;
}

/** The strand body: processes closed chunks in order and advances the
 *  open chunk between them until neither has work, then retires.
 *  Touches only the session and immortal globals; reschedules itself
 *  through the global pool. */
void strandLoop(const std::shared_ptr<Session> &s);

/** Starts a strand task unless one is already in flight. */
void
startStrand(const std::shared_ptr<Session> &s)
{
    if (s->strandActive.exchange(true, std::memory_order_acq_rel))
        return; // A strand task is already in flight.
    std::shared_ptr<Session> keep = s;
    util::ThreadPool::global().detach([keep] { strandLoop(keep); });
}

/** Runs @p step on the session under consumerMu (ring drain,
 *  closures), then starts the strand if that left it work. */
template <typename Step>
void
scheduleStrandIfWork(const std::shared_ptr<Session> &s, Step &&step)
{
    bool work = false;
    {
        const std::lock_guard<std::mutex> lock(s->consumerMu);
        step(*s);
        work = hasWorkLocked(*s);
    }
    if (work)
        startStrand(s);
}

/** Swaps in the knobs a chunk runs under.  Only before the pipeline
 *  begins the chunk: a begun chunk's knobs were frozen at its first
 *  input, so they already match (reconfigure() asserts it). */
void
enterChunkConfig(Session &s, const SessionPipeline::Config &cfg)
{
    const SessionPipeline::Config &cur = s.pipeline.config();
    if (cfg.altWindowK != cur.altWindowK ||
        cfg.numOriginalStates != cur.numOriginalStates)
        s.pipeline.reconfigure(cfg);
}

void
strandLoop(const std::shared_ptr<Session> &s)
{
    auto &m = servingMetrics();
    for (;;) {
        // The closed chunk to finish, or — queued > 0 — the knobs of
        // the open chunk to advance.
        Session::ClosedChunk chunk;
        std::size_t queued = 0;
        {
            // "Nothing closed" and the open size are read under one
            // hold: a chunk closing in between must be processed
            // before the next one is advanced.
            const std::lock_guard<std::mutex> lock(s->consumerMu);
            if (!s->closed.empty()) {
                chunk = std::move(s->closed.front());
                s->closed.pop_front();
                // Taken: its inputs leave the session's budget.
                s->buffered -= chunk.tokens.size();
            } else if ((queued = openProgressLocked(*s)) > 0) {
                s->openAdvanced = queued;
                chunk.pipelineCfg.altWindowK = s->active.altWindowK;
                chunk.pipelineCfg.numOriginalStates =
                    s->active.numOriginalStates;
            } else {
                break;
            }
        }

        // A closed chunk runs under the knobs it was closed under, an
        // open one under those of its first input — the same ones, if
        // the strand began the chunk before it closed.
        const bool advancing = queued > 0;
        enterChunkConfig(*s, chunk.pipelineCfg);
        // An early activation has no closure to hang off yet.
        core::StepScope process(
            &m.chunkProcess, {},
            obs::Span{.parent = chunk.closeSpan,
                      .session = s->id,
                      .chunk = static_cast<std::int64_t>(
                          s->chunksProcessed.load(std::memory_order_relaxed)),
                      .firstInput = static_cast<std::int64_t>(
                          s->pipeline.nextInput()),
                      .inputCount = static_cast<std::uint32_t>(
                          advancing ? queued : chunk.tokens.size()),
                      .kind = obs::SpanKind::ChunkProcess});
        s->pipeline.setTraceContext(s->id, process.spanId());
        if (advancing) {
            // Begin the open chunk at its first input; run its body up
            // to the K inputs it holds back.
            s->pipeline.advance(queued);
            continue;
        }
        const SessionPipeline::ChunkResult result =
            s->pipeline.processChunk(chunk.tokens.size());
        process.finish();
        s->chunksProcessed.fetch_add(1, std::memory_order_relaxed);
        if (result.aborted) {
            s->aborts.fetch_add(1, std::memory_order_relaxed);
            m.chunksAborted.inc();
        } else {
            s->commits.fetch_add(1, std::memory_order_relaxed);
            m.chunksCommitted.inc();
        }

        if (s->cfg.onResult) {
            auto &rec = obs::SpanRecorder::global();
            obs::Span cbSpan = rec.start(
                obs::SpanKind::Callback, process.spanId(), s->id,
                static_cast<std::int64_t>(result.chunkIndex),
                static_cast<std::int64_t>(result.firstInput),
                static_cast<std::uint32_t>(result.outputs.size()));
            const ResultChunk delivery{s->id, result.chunkIndex,
                                       result.firstInput, result.aborted,
                                       chunk.deadline, result.outputs};
            s->cfg.onResult(delivery);
            rec.finish(cbSpan);
        }

        const TimePoint done = s->now();
        for (const InputToken &token : chunk.tokens)
            m.e2eLatency.observe(
                std::chrono::duration<double>(done - token.stamp)
                    .count());
        s->outputsDelivered.fetch_add(chunk.tokens.size(),
                                      std::memory_order_relaxed);
        m.outputsDelivered.inc(chunk.tokens.size());
    }

    // Retire, wake any drainer, and re-arm if a closure raced in
    // between our last pop and the store (classic lost-wakeup guard).
    s->strandActive.store(false, std::memory_order_release);
    {
        const std::lock_guard<std::mutex> lock(s->drainMu);
    }
    s->drainCv.notify_all();
    scheduleStrandIfWork(s, [](Session &) {});
}

/** Blocks until the strand has no work left — no closed chunk pending
 *  and no open-chunk growth to advance over — and no strand task in
 *  flight. */
void
waitIdle(Session &s)
{
    std::unique_lock<std::mutex> lock(s.drainMu);
    s.drainCv.wait(lock, [&s] {
        if (s.strandActive.load(std::memory_order_acquire))
            return false;
        const std::lock_guard<std::mutex> consumer(s.consumerMu);
        return !hasWorkLocked(s);
    });
}

} // namespace

ServingRuntime::ServingRuntime(ServingOptions options)
    : opts_(std::move(options))
{
    if (opts_.backgroundCoordinator)
        coordinator_ = std::thread([this] { coordinatorLoop(); });
}

ServingRuntime::~ServingRuntime()
{
    {
        const std::lock_guard<std::mutex> lock(coordMu_);
        stopping_ = true;
    }
    coordCv_.notify_all();
    if (coordinator_.joinable())
        coordinator_.join();

    // Finish in-flight work (queued-but-unclosed inputs are dropped,
    // like a server shutting down), then release every session.
    std::vector<std::shared_ptr<detail::Session>> victims;
    {
        const std::lock_guard<std::mutex> lock(sessionsMu_);
        for (auto &entry : sessions_)
            victims.push_back(entry.second);
        sessions_.clear();
    }
    auto &m = servingMetrics();
    for (const std::shared_ptr<detail::Session> &s : victims) {
        s->draining.store(true, std::memory_order_release);
        waitIdle(*s);
        s->pipeline.releaseState();
        m.sessionsActive.sub(1);
    }
}

std::chrono::steady_clock::time_point
ServingRuntime::now() const
{
    return opts_.clock ? opts_.clock() : Clock::now();
}

SessionId
ServingRuntime::admit(const core::IStateModel &model, SessionConfig config)
{
    REPRO_ASSERT(config.chunkInputs >= 1,
                 "session chunk size must be >= 1");
    REPRO_ASSERT(config.queueCapacity >= 1,
                 "session queue capacity must be >= 1");
    util::ThreadPool *pool =
        opts_.maxThreads == 1 ? nullptr : &util::ThreadPool::global();
    std::shared_ptr<detail::Session> s;
    SessionId id = 0;
    {
        const std::lock_guard<std::mutex> lock(sessionsMu_);
        id = nextId_++;
        s = std::make_shared<detail::Session>(id, model, std::move(config),
                                      opts_.clock, pool);
        sessions_.emplace(id, std::move(s));
    }
    auto &m = servingMetrics();
    m.sessionsAdmitted.inc();
    m.sessionsActive.add(1);
    return id;
}

std::shared_ptr<detail::Session>
ServingRuntime::find(SessionId id) const
{
    const std::lock_guard<std::mutex> lock(sessionsMu_);
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second;
}

SubmitResult
ServingRuntime::submit(SessionId id)
{
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return {SubmitStatus::UnknownSession, 0};
    // A budget the strand returned comes with the ring slots its
    // inputs were drained from (the strand took them under consumerMu).
    const auto depth = [&s] { return s->buffered.load(); };
    if (s->draining.load(std::memory_order_acquire))
        return {SubmitStatus::Draining, depth()};
    if (s->accepted.load(std::memory_order_relaxed) >= s->numInputs)
        return {SubmitStatus::Exhausted, depth()};
    auto &m = servingMetrics();
    if (depth() >= s->cfg.queueCapacity) {
        s->rejected.fetch_add(1, std::memory_order_relaxed);
        m.inputsRejected.inc();
        return {SubmitStatus::Backpressure, depth()};
    }
    // accepted is only ever bumped by this function and submit() is
    // single-producer per session, so the relaxed read *is* the next
    // stream index.
    const std::uint64_t index =
        s->accepted.load(std::memory_order_relaxed);
    InputToken token{s->now(), index, 0, 0};
    obs::Span submitSpan;
    if (obs::enabled()) {
        submitSpan = obs::SpanRecorder::global().start(
            obs::SpanKind::Submit, 0, s->id, -1,
            static_cast<std::int64_t>(index), 1);
        token.spanId = submitSpan.id;
        token.submitNs = submitSpan.startNs;
    }
    // Counted before the push, so the strand never returns budget for
    // an input not yet counted.
    ++s->buffered;
    const bool pushed = s->ring.tryPush(token);
    REPRO_ASSERT(pushed, "the ring holds no more than the session budget");
    if (submitSpan.id != 0)
        obs::SpanRecorder::global().finish(submitSpan);
    s->accepted.fetch_add(1, std::memory_order_relaxed);
    m.inputsSubmitted.inc();
    if (opts_.backgroundCoordinator)
        pump(s);
    return {SubmitStatus::Accepted, depth()};
}

void
ServingRuntime::pump(const std::shared_ptr<detail::Session> &s)
{
    TimePoint opened = TimePoint::max();
    scheduleStrandIfWork(s, [&opened](Session &ss) {
        drainRingLocked(ss);
        // Once per chunk: the coordinator hears of each open chunk's
        // deadline the first time a submit finds the chunk open.
        if (!ss.deadlinePosted) {
            opened = openDeadlineLocked(ss);
            ss.deadlinePosted = opened != TimePoint::max();
        }
    });
    if (opened == TimePoint::max())
        return;
    {
        const std::lock_guard<std::mutex> lock(coordMu_);
        if (opened >= coordTarget_)
            return; // The coordinator already wakes in time.
        coordTarget_ = opened;
    }
    coordCv_.notify_one();
}

bool
ServingRuntime::closeChunk(SessionId id)
{
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return false;
    bool closedSomething = false;
    scheduleStrandIfWork(s, [&closedSomething](Session &ss) {
        closedSomething = drainRingLocked(ss);
        if (!ss.open.empty()) {
            closeOpen(ss, /*deadline=*/false, /*drainClose=*/false);
            closedSomething = true;
        }
    });
    return closedSomething;
}

void
ServingRuntime::drain(SessionId id)
{
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return;
    const bool first =
        !s->draining.exchange(true, std::memory_order_acq_rel);
    scheduleStrandIfWork(s, [](Session &ss) {
        drainRingLocked(ss);
        if (!ss.open.empty())
            closeOpen(ss, false, true);
    });
    waitIdle(*s);
    {
        const std::lock_guard<std::mutex> lock(s->drainMu);
        s->drained = true;
    }
    if (first)
        servingMetrics().sessionsDrained.inc();
}

void
ServingRuntime::evict(SessionId id)
{
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return;
    drain(id);
    {
        const std::lock_guard<std::mutex> lock(sessionsMu_);
        sessions_.erase(id);
    }
    // The drain above guarantees no strand is in flight, so the
    // pipeline's committed state (and with it every BlockArena block
    // the session held) is released here, on the evictor's thread.
    s->pipeline.releaseState();
    auto &m = servingMetrics();
    m.sessionsEvicted.inc();
    m.sessionsActive.sub(1);
}

bool
ServingRuntime::retune(SessionId id, const SessionTuning &tuning)
{
    REPRO_ASSERT(tuning.chunkInputs >= 1,
                 "retune needs chunkInputs >= 1");
    REPRO_ASSERT(tuning.altWindowK >= 1, "retune needs altWindowK >= 1");
    REPRO_ASSERT(tuning.numOriginalStates >= 1,
                 "retune needs numOriginalStates >= 1");
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return false;
    const std::lock_guard<std::mutex> lock(s->consumerMu);
    s->pending = tuning;
    s->hasPending = true;
    applyPendingLocked(*s);
    return true;
}

void
ServingRuntime::retuneAll(const SessionTuning &tuning)
{
    for (const SessionId id : sessionIds())
        retune(id, tuning);
}

std::vector<SessionId>
ServingRuntime::sessionIds() const
{
    std::vector<SessionId> ids;
    const std::lock_guard<std::mutex> lock(sessionsMu_);
    ids.reserve(sessions_.size());
    for (const auto &entry : sessions_)
        ids.push_back(entry.first);
    return ids;
}

TimePoint
ServingRuntime::pollAll()
{
    std::vector<std::shared_ptr<detail::Session>> snapshot;
    {
        const std::lock_guard<std::mutex> lock(sessionsMu_);
        snapshot.reserve(sessions_.size());
        for (const auto &entry : sessions_)
            snapshot.push_back(entry.second);
    }
    const TimePoint nowStamp = now();
    TimePoint next = TimePoint::max();
    for (const std::shared_ptr<detail::Session> &s : snapshot)
        scheduleStrandIfWork(s, [&](Session &ss) {
            next = std::min(next, pollSessionLocked(ss, nowStamp));
        });
    return next;
}

void
ServingRuntime::poll()
{
    pollAll();
}

void
ServingRuntime::coordinatorLoop()
{
    metrics::Counter &wakeups = servingMetrics().coordinatorWakeups;
    std::unique_lock<std::mutex> lock(coordMu_);
    while (!stopping_) {
        // From here on a submit that opens a chunk lowers the target
        // below max() and notifies, so no chunk opened during the scan
        // is missed.
        coordTarget_ = TimePoint::max();
        lock.unlock();
        const TimePoint next = pollAll();
        lock.lock();
        coordTarget_ = std::min(coordTarget_, next);
        const TimePoint target = coordTarget_;
        const auto woken = [&] {
            return stopping_ || coordTarget_ < target;
        };
        if (target == TimePoint::max())
            coordCv_.wait(lock, woken);
        else
            coordCv_.wait_for(lock, target - now(), woken);
        if (!stopping_)
            wakeups.inc();
    }
}

std::size_t
ServingRuntime::activeSessions() const
{
    const std::lock_guard<std::mutex> lock(sessionsMu_);
    return sessions_.size();
}

SessionStats
ServingRuntime::sessionStats(SessionId id) const
{
    SessionStats stats;
    const std::shared_ptr<detail::Session> s = find(id);
    if (!s)
        return stats;
    stats.submitted = s->accepted.load(std::memory_order_relaxed);
    stats.rejected = s->rejected.load(std::memory_order_relaxed);
    stats.chunksClosed = s->chunksClosed.load(std::memory_order_relaxed);
    stats.deadlineClosures =
        s->deadlineClosures.load(std::memory_order_relaxed);
    stats.chunksProcessed =
        s->chunksProcessed.load(std::memory_order_relaxed);
    stats.commits = s->commits.load(std::memory_order_relaxed);
    stats.aborts = s->aborts.load(std::memory_order_relaxed);
    stats.outputsDelivered =
        s->outputsDelivered.load(std::memory_order_relaxed);
    stats.retunesApplied =
        s->retunesApplied.load(std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(s->consumerMu);
        stats.tuning = s->active;
    }
    stats.draining = s->draining.load(std::memory_order_relaxed);
    {
        const std::lock_guard<std::mutex> lock(s->drainMu);
        stats.drained = s->drained;
    }
    return stats;
}

const char *
submitStatusName(SubmitStatus status)
{
    switch (status) {
    case SubmitStatus::Accepted:
        return "accepted";
    case SubmitStatus::Backpressure:
        return "backpressure";
    case SubmitStatus::Draining:
        return "draining";
    case SubmitStatus::Exhausted:
        return "exhausted";
    case SubmitStatus::UnknownSession:
        return "unknown-session";
    }
    return "invalid";
}

} // namespace repro::serving
