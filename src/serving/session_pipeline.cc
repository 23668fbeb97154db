#include "serving/session_pipeline.h"

#include <algorithm>
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
using core::State;
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

/** Runs a whole chunk [start, end) on @p state, writing its outputs
 *  to outs[0, end - start), and returns the clone taken at @p snap —
 *  the snapshot the next boundary regenerates its replicas from. */
StateHandle
runChunk(const IStateModel &model, State &state, std::size_t start,
         std::size_t snap, std::size_t end, util::Rng rng, double *outs,
         TaskKind kind)
{
    runSpan(model, state, start, snap, rng, outs, kind);
    StateHandle snapshot = state.clone();
    runSpan(model, state, snap, end, rng, outs + (snap - start), kind);
    return snapshot;
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

SessionPipeline::ChunkResult
SessionPipeline::processChunk(std::size_t count)
{
    REPRO_ASSERT(count >= 1, "closed chunk must contain inputs");
    REPRO_ASSERT(committedFinal_ != nullptr || chunkIndex_ == 0,
                 "pipeline used after releaseState()");
    const std::size_t start = nextInput_;
    const std::size_t end = start + count;
    const unsigned c = chunkIndex_;
    const std::size_t K = cfg_.altWindowK;
    const std::size_t snap = core::snapshotPoint(start, end, K);

    ChunkResult result;
    result.chunkIndex = c;
    result.firstInput = start;
    result.outputs.resize(count);

    auto &rec = obs::SpanRecorder::global();
    const std::uint64_t sess = traceSession_;
    const std::uint64_t par = traceParent_;
    const auto istart = static_cast<std::int64_t>(start);
    const auto icount = static_cast<std::uint32_t>(count);

    // The first chunk runs from the program's initial state — it is
    // never speculative and commits as it is.  Every later chunk
    // speculates its entry state: the alternative producer replays the
    // last K inputs (stream core::streams::alt(c)).
    StateHandle working;
    std::int64_t matchedCandidate = -1; // -2: nothing matched (abort).
    obs::Span altSpan;
    obs::Span valSpan;
    std::vector<StateHandle> replicas;
    std::vector<obs::Span> replicaSpans;
    if (c == 0) {
        working = model_.initialState();
    } else {
        altSpan = rec.start(obs::SpanKind::AltProducer, par, sess, c,
                            istart, icount, static_cast<std::int64_t>(K));
        working = model_.coldState();
        util::Rng alt_rng = base_.split(core::streams::alt(c));
        runSpan(model_, *working, start >= K ? start - K : 0, start,
                alt_rng, nullptr, TaskKind::AltProducer);
        rec.finish(altSpan);

        // Commit check (paper Fig. 6) before any speculative body runs
        // — the strand runs a session's chunks one at a time, so
        // boundary c-1 is already committed.  The entry state is
        // compared against the committed final state; only on a miss
        // are the R-1 original-state replicas regenerated from the
        // committed snapshot (streams core::streams::replica(c-1, rep),
        // replaying the boundary inputs [snap_{c-1}, end_{c-1})) and
        // compared in order.  Replicas are independent — they fan out
        // on the pool when one is available.
        valSpan = rec.start(obs::SpanKind::Validation, par, sess, c,
                            istart, icount);
        std::int64_t compared = 1;
        if (!model_.matches(*working, *committedFinal_)) {
            matchedCandidate = -2;
            replicas.resize(cfg_.numOriginalStates - 1);
            replicaSpans.resize(replicas.size());
            const auto regenerate = [&, val = valSpan.id](std::size_t rep) {
                // The parent id is captured by value: a replica span
                // records on whichever pool thread ran it, yet links
                // to the validation span that asked for it.
                obs::Span span = obs::SpanRecorder::global().start(
                    obs::SpanKind::ReplicaRegen, val, sess, c, istart,
                    icount, static_cast<std::int64_t>(rep));
                StateHandle replica = committedSnapshot_->clone();
                util::Rng rng =
                    base_.split(core::streams::replica(c - 1, rep));
                runSpan(model_, *replica, committedSnapStart_,
                        committedEnd_, rng, nullptr,
                        TaskKind::OriginalStateGen);
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
            for (std::size_t rep = 0;
                 matchedCandidate == -2 && rep < replicas.size(); ++rep) {
                ++compared;
                if (model_.matches(*working, *replicas[rep]))
                    matchedCandidate = static_cast<std::int64_t>(rep);
            }
        }
        valSpan.detail = compared;
        rec.finish(valSpan);
        MatchMetrics &mm = matchMetrics();
        if (matchedCandidate == -1)
            mm.first.inc();
        else if (matchedCandidate >= 0)
            mm.replica.inc();
        else
            mm.none.inc();
    }

    if (matchedCandidate != -2) {
        // Commit: the body runs from the entry state just checked
        // (stream core::streams::body(c)), so no speculative clone is
        // kept.
        if (c > 0)
            ++commits_;
        obs::Span body = rec.start(obs::SpanKind::ChunkBody, par, sess, c,
                                   istart, icount);
        StateHandle snapshot =
            runChunk(model_, *working, start, snap, end,
                     base_.split(core::streams::body(c)),
                     result.outputs.data(),
                     TaskKind::ChunkBody);
        rec.finish(body);
        obs::Span commit = rec.start(obs::SpanKind::Commit, par, sess, c,
                                     istart, icount, matchedCandidate);
        commitChunk(std::move(working), std::move(snapshot), snap, end);
        rec.finish(commit);
    } else {
        // Abort: the speculative body never runs.  Re-execute the
        // chunk from the committed final state (stream
        // core::streams::reexec(c)); it is replaced by the re-executed
        // state, so it is moved rather than cloned.
        ++aborts_;
        result.aborted = true;
        obs::Span abortSpan = rec.start(obs::SpanKind::Abort, par, sess,
                                        c, istart, icount);
        // Root-cause attribution while every candidate is alive: the
        // alt producer is the only mispeculated work.
        core::recordAbort(abortSpan, *working, *committedFinal_, replicas,
                          valSpan, replicaSpans, altSpan);
        const std::uint64_t reParent = abortSpan.id ? abortSpan.id : par;
        obs::Span reSpan = rec.start(obs::SpanKind::ReExec, reParent,
                                     sess, c, istart, icount);
        StateHandle redo = std::move(committedFinal_);
        StateHandle redo_snapshot =
            runChunk(model_, *redo, start, snap, end,
                     base_.split(core::streams::reexec(c)),
                     result.outputs.data(),
                     TaskKind::MispecReExec);
        rec.finish(reSpan);
        obs::Span commit = rec.start(obs::SpanKind::Commit, reParent,
                                     sess, c, istart, icount,
                                     /*detail=*/-2);
        commitChunk(std::move(redo), std::move(redo_snapshot), snap,
                    end);
        rec.finish(commit);
        rec.finish(abortSpan);
    }

    nextInput_ = end;
    ++chunkIndex_;
    return result;
}

void
SessionPipeline::reconfigure(Config config)
{
    REPRO_ASSERT(config.numOriginalStates >= 1,
                 "session needs numOriginalStates >= 1");
    cfg_ = config;
}

void
SessionPipeline::releaseState()
{
    committedFinal_.reset();
    committedSnapshot_.reset();
}

} // namespace repro::serving
