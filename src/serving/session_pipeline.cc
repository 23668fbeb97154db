#include "serving/session_pipeline.h"

#include <utility>

#include "core/protocol_steps.h"
#include "core/rng_streams.h"
#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace repro::serving {

namespace {

using core::IStateModel;
using core::runSpan;
using core::StateHandle;
using trace::TaskKind;

/** The commit-check match split, the replica cost/benefit signal the
 *  adaptive controller reads: how often the committed final state
 *  matched directly, how often only a replica saved the boundary, and
 *  how often nothing matched (abort).  Resolved once — registry
 *  lookups lock. */
struct MatchMetrics
{
    metrics::Counter &first;   //!< Committed final state matched.
    metrics::Counter &replica; //!< Some replica matched instead.
    metrics::Counter &none;    //!< No original state matched (abort).
};

MatchMetrics &
matchMetrics()
{
    auto &reg = metrics::MetricsRegistry::global();
    static MatchMetrics m{
        reg.counter("serving.commit_match_first"),
        reg.counter("serving.commit_match_replica"),
        reg.counter("serving.commit_match_none"),
    };
    return m;
}

} // namespace

SessionPipeline::SessionPipeline(const IStateModel &model, Config config,
                                 std::uint64_t seed,
                                 util::ThreadPool *pool)
    : model_(model), cfg_(config), base_(seed), pool_(pool)
{
    REPRO_ASSERT(cfg_.numOriginalStates >= 1,
                 "session needs numOriginalStates >= 1");
}

void
SessionPipeline::commitChunk(StateHandle final_state, StateHandle snapshot,
                             std::size_t snap, std::size_t end)
{
    committedFinal_ = std::move(final_state);
    committedSnapshot_ = std::move(snapshot);
    committedSnapStart_ = snap;
    committedEnd_ = end;
}

void
SessionPipeline::begin(std::uint32_t count)
{
    REPRO_ASSERT(committedFinal_ != nullptr || chunkIndex_ == 0,
                 "pipeline used after releaseState()");
    const std::size_t start = nextInput_;
    const unsigned c = chunkIndex_;
    const std::size_t K = cfg_.altWindowK;
    OpenChunk &o = open_;
    o.ranTo = start;

    // The first chunk runs from the program's initial state — it is
    // never speculative and commits as it is.
    if (c == 0) {
        o.state = model_.initialState();
        o.rng = base_.split(core::streams::body(0));
        return;
    }

    auto &rec = obs::SpanRecorder::global();
    const std::uint64_t sess = traceSession_;
    const std::uint64_t par = traceParent_;
    const auto istart = static_cast<std::int64_t>(start);

    // Every later chunk speculates its entry state: the alternative
    // producer replays the last K inputs (stream core::streams::alt(c)).
    obs::Span altSpan = rec.start(obs::SpanKind::AltProducer, par, sess, c,
                                  istart, count,
                                  static_cast<std::int64_t>(K));
    StateHandle working = model_.coldState();
    util::Rng alt_rng = base_.split(core::streams::alt(c));
    runSpan(model_, *working, start >= K ? start - K : 0, start, alt_rng,
            nullptr, TaskKind::AltProducer);
    rec.finish(altSpan);

    // Commit check (paper Fig. 6) before any speculative body runs —
    // the strand runs a session's chunks one at a time, so boundary
    // c-1 is already committed.  The entry state is compared against
    // the committed final state; only on a miss are the R-1
    // original-state replicas regenerated from the committed snapshot
    // (streams core::streams::replica(c-1, rep), replaying the boundary
    // inputs [snap_{c-1}, end_{c-1})) and compared in order.  Replicas
    // are independent — they fan out on the pool when one is available.
    obs::Span valSpan = rec.start(obs::SpanKind::Validation, par, sess, c,
                                  istart, count);
    std::int64_t matched = -1; // -2: nothing matched (abort).
    std::int64_t compared = 1;
    std::vector<StateHandle> replicas;
    std::vector<obs::Span> replicaSpans;
    if (!model_.matches(*working, *committedFinal_)) {
        matched = -2;
        replicas.resize(cfg_.numOriginalStates - 1);
        replicaSpans.resize(replicas.size());
        const auto regenerate = [&, val = valSpan.id](std::size_t rep) {
            // The parent id is captured by value: a replica span
            // records on whichever pool thread ran it, yet links to the
            // validation span that asked for it.
            obs::Span span = obs::SpanRecorder::global().start(
                obs::SpanKind::ReplicaRegen, val, sess, c, istart, count,
                static_cast<std::int64_t>(rep));
            StateHandle replica = committedSnapshot_->clone();
            util::Rng rng = base_.split(core::streams::replica(c - 1, rep));
            runSpan(model_, *replica, committedSnapStart_, committedEnd_,
                    rng, nullptr, TaskKind::OriginalStateGen);
            replicas[rep] = std::move(replica);
            obs::SpanRecorder::global().finish(span);
            replicaSpans[rep] = span;
        };
        if (pool_ && replicas.size() > 1) {
            pool_->parallelFor(replicas.size(), regenerate);
        } else {
            for (std::size_t rep = 0; rep < replicas.size(); ++rep)
                regenerate(rep);
        }
        for (std::size_t rep = 0; matched == -2 && rep < replicas.size();
             ++rep) {
            ++compared;
            if (model_.matches(*working, *replicas[rep]))
                matched = static_cast<std::int64_t>(rep);
        }
    }
    valSpan.detail = compared;
    rec.finish(valSpan);
    MatchMetrics &mm = matchMetrics();
    if (matched == -1)
        mm.first.inc();
    else if (matched >= 0)
        mm.replica.inc();
    else
        mm.none.inc();
    o.matched = matched;

    if (matched != -2) {
        // Commit: the body runs from the entry state just checked
        // (stream core::streams::body(c)), so no speculative clone is
        // kept.
        o.state = std::move(working);
        o.rng = base_.split(core::streams::body(c));
        return;
    }
    // Abort: the speculative body never runs.  The chunk re-executes
    // from the committed final state (stream core::streams::reexec(c));
    // it is replaced by the re-executed state, so it is moved rather
    // than cloned.  Root-cause attribution happens now, while every
    // candidate is alive — the alt producer is the only mispeculated
    // work; the report is filed at the close, with the input count.
    o.abort = rec.start(obs::SpanKind::Abort, par, sess, c, istart, count);
    if (o.abort.id != 0)
        o.report = core::attributeAbort(*working, *committedFinal_,
                                        replicas, valSpan, replicaSpans,
                                        altSpan);
    o.state = std::move(committedFinal_);
    o.rng = base_.split(core::streams::reexec(c));
}

void
SessionPipeline::runTo(std::size_t to)
{
    OpenChunk &o = open_;
    runSpan(model_, *o.state, o.ranTo, to, o.rng,
            o.outputs.data() + (o.ranTo - nextInput_),
            o.matched == -2 ? TaskKind::MispecReExec : TaskKind::ChunkBody);
    o.ranTo = to;
}

obs::Span
SessionPipeline::startSegment(std::size_t to) const
{
    const OpenChunk &o = open_;
    // Re-execution hangs off the abort that caused it.
    return obs::SpanRecorder::global().start(
        o.matched == -2 ? obs::SpanKind::ReExec : obs::SpanKind::ChunkBody,
        o.abort.id ? o.abort.id : traceParent_, traceSession_, chunkIndex_,
        static_cast<std::int64_t>(o.ranTo),
        static_cast<std::uint32_t>(to - o.ranTo));
}

void
SessionPipeline::advance(std::size_t queued)
{
    REPRO_ASSERT(queued >= 1, "advance needs a queued input");
    REPRO_ASSERT(nextInput_ + queued <= model_.numInputs(),
                 "advance past the model's input range");
    if (!begun())
        begin(0);
    const std::size_t K = cfg_.altWindowK;
    if (queued <= K || nextInput_ + queued - K <= open_.ranTo)
        return;
    const std::size_t to = nextInput_ + queued - K;
    open_.outputs.resize(to - nextInput_);
    obs::Span segment = startSegment(to);
    runTo(to);
    obs::SpanRecorder::global().finish(segment);
}

SessionPipeline::ChunkResult
SessionPipeline::processChunk(std::size_t count)
{
    REPRO_ASSERT(count >= 1, "closed chunk must contain inputs");
    if (!begun())
        begin(static_cast<std::uint32_t>(count));
    OpenChunk &o = open_;
    const std::size_t start = nextInput_;
    const std::size_t end = start + count;
    const unsigned c = chunkIndex_;
    const std::size_t snap =
        core::snapshotPoint(start, end, cfg_.altWindowK);
    REPRO_ASSERT(o.ranTo <= snap, "chunk ran past its snapshot point");

    auto &rec = obs::SpanRecorder::global();
    const std::uint64_t sess = traceSession_;
    const auto istart = static_cast<std::int64_t>(start);
    const auto icount = static_cast<std::uint32_t>(count);

    // The tail: up to the snapshot the next boundary regenerates its
    // replicas from, then to the end.
    o.outputs.resize(count);
    obs::Span segment = startSegment(end);
    runTo(snap);
    StateHandle snapshot = o.state->clone();
    runTo(end);
    rec.finish(segment);

    ChunkResult result;
    result.chunkIndex = c;
    result.firstInput = start;
    result.aborted = o.matched == -2;
    if (result.aborted) {
        ++aborts_;
        o.abort.inputCount = icount;
        core::fileAbort(std::move(o.report), o.abort);
    } else if (c > 0) {
        ++commits_;
    }
    // An abort's forced commit (detail -2) hangs off the abort too.
    obs::Span commit = rec.start(obs::SpanKind::Commit,
                                 o.abort.id ? o.abort.id : traceParent_,
                                 sess, c, istart, icount, o.matched);
    commitChunk(std::move(o.state), std::move(snapshot), snap, end);
    rec.finish(commit);
    rec.finish(o.abort); // Inert unless the chunk aborted, traced.
    result.outputs = std::move(o.outputs);
    open_ = OpenChunk{};

    nextInput_ = end;
    ++chunkIndex_;
    return result;
}

void
SessionPipeline::reconfigure(Config config)
{
    REPRO_ASSERT(config.numOriginalStates >= 1,
                 "session needs numOriginalStates >= 1");
    REPRO_ASSERT(!begun(), "reconfigure() inside a begun chunk");
    cfg_ = config;
}

void
SessionPipeline::releaseState()
{
    committedFinal_.reset();
    committedSnapshot_.reset();
    open_ = OpenChunk{};
}

} // namespace repro::serving
