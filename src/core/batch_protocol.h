/**
 * @file
 * The batch STATS protocol steps (paper §II-B), written once.
 *
 * Chunk 0 starts from the initial state, chunk c > 0 from the state an
 * alternative producer reaches by replaying the K inputs before it.
 * Each chunk but the last snapshots its state K inputs before its end,
 * where the R-1 replicas of the boundary after it regrow from.
 * Boundaries resolve in program order: chunk c+1's speculative start
 * is compared against the committed final state of chunk c, then the
 * replicas, until one matches (commit) or none does (chunk c+1
 * re-executes from the committed final state).
 *
 * A driver decides when and where each step runs, and where replicas
 * grow (ReplicaPlacement): Engine::runStats (the DES) runs every
 * chunk's speculation and then each boundary, replicas before the
 * check as in the paper; NativeRuntime's Barrier runs the same order on
 * real threads, replicas only after the committed final state missed;
 * its Pipelined protocol runs the steps as task-graph nodes, replicas
 * eagerly from the speculative snapshot.  No placement changes what a
 * compare sees and every step draws from its own core/rng_streams.h
 * stream, so all three drivers commit the same outputs.  Costs leave
 * the steps through a StepSink: the native one times each step once
 * (core::StepScope), the DES one (engine.cc) emits the modeled
 * runtime's tasks and op counts.  tests/core/test_engine_digest.cc pins
 * the DES independently of both.
 */

#ifndef REPRO_CORE_BATCH_PROTOCOL_H
#define REPRO_CORE_BATCH_PROTOCOL_H

#include <algorithm>
#include <concepts>
#include <initializer_list>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/protocol_steps.h"
#include "core/rng_streams.h"
#include "core/step_scope.h"
#include "obs/span_recorder.h"
#include "util/thread_pool.h"

namespace repro::core {

/** Where a driver grows the replicas of a boundary. */
enum class ReplicaPlacement : std::uint8_t
{
    BeforeCheck, //!< From the committed snapshot, before the check.
    OnMiss,      //!< ... only after the committed final state missed.
    /** From the speculative snapshot as soon as it exists; rebuilt as
     *  under OnMiss when that chunk re-executed. */
    Eager,
};

/** One protocol step, as the sink that prices it sees it. */
struct Step
{
    enum Kind : std::uint8_t
    {
        Alt,        //!< Alt producer of chunk c.
        Body,       //!< Speculative body of chunk c up to its snapshot.
        BodyTail,   //!< ... after its snapshot.
        Replica,    //!< Replica rep of boundary c.
        Reexec,     //!< Re-execution of chunk c up to its snapshot.
        ReexecTail, //!< ... after its snapshot.
        SpecCopy,   //!< Copy of chunk c's speculative start.
        SnapshotCopy,     //!< Chunk c's snapshot.
        ReplicaCopy,      //!< Start state of replica rep of boundary c.
        RedoCopy,         //!< Committed final state chunk c re-runs from.
        RedoSnapshotCopy, //!< Snapshot of the re-executed chunk c.
    };

    Kind kind;
    unsigned chunk;
    unsigned rep = 0;
    trace::TaskId source = kNoTask; //!< Copies: made the copied state.
    /** Replica copies: the first compare, when they grow on a miss. */
    trace::TaskId after = kNoTask;
};

/** One comparison of chunk boundary+1's speculative start state. */
struct CompareStep
{
    unsigned boundary;
    int candidate; //!< -1: the committed final state; else a replica.
    const State &spec;
    const State *original; //!< Null: all-commit counterfactual.
    trace::TaskId committedTask; //!< Made the committed final state.
    trace::TaskId specTask;      //!< Chunk boundary+1's SpecCopy.
    const std::vector<trace::TaskId> &replicaTasks;
};

/** A finished step: its id in the sink and its span. */
struct StepDone
{
    trace::TaskId task = kNoTask;
    obs::Span span;
};

/**
 * Where the costs of the protocol steps go, called once per step (never
 * per input), possibly from several threads at once:
 *  - ops(): the counter update loops tick (null: none);
 *  - spans(): the recorder of the protocol's own spans (null: none);
 *  - resolveScope(): brackets one boundary resolution;
 *  - firstChunkState(model): chunk 0's working state;
 *  - run(step, span, work): runs update loop @p step by calling
 *    @p work, which returns the ops it ticked;
 *  - copy(step, source, id): copies @p source, the step's id in @p id;
 *  - compare(step, match, id): compares by calling @p match;
 *  - resolved(boundary, committed, bodies): the verdict; on an abort
 *    chunk boundary+1's speculative @p bodies were mispeculation;
 *  - retag(id, kind): re-types a step (wasted eager replicas).
 */
template <typename S>
concept StepSink = requires(S &s, const Step &step, const CompareStep &cmp,
                            const State &state, trace::TaskId &id,
                            double (*work)(), bool (*match)()) {
    { s.ops() } -> std::same_as<trace::OpCounter *>;
    { s.spans() } -> std::same_as<obs::SpanRecorder *>;
    s.resolveScope();
    { s.firstChunkState(std::declval<const IStateModel &>()) }
        -> std::same_as<StateHandle>;
    { s.run(step, std::optional<obs::Span>{}, work) }
        -> std::same_as<StepDone>;
    { s.copy(step, state, id) } -> std::same_as<StateHandle>;
    { s.compare(cmp, match, id) } -> std::same_as<bool>;
    s.resolved(0u, true, {id});
    s.retag(id, trace::TaskKind::MispecReExec);
};

/** What a batch run commits. */
struct BatchOutcome
{
    std::vector<double> outputs;
    unsigned commits = 0;
    unsigned aborts = 0;
};

/**
 * The steps of one batch run (numChunks >= 2) and the products they
 * hand each other.  A step touches only its own chunk's or boundary's
 * products, so the speculation of different chunks and the eager
 * replicas of different boundaries may run concurrently; boundary c
 * resolves after boundary c-1, chunks c and c+1 and its eager replicas.
 */
template <typename Sink>
class BatchProtocol
{
  public:
    /**
     * @param pool Regenerates a boundary's replicas in parallel (null:
     *        in order).
     * @param force_all_commit The all-commit counterfactual (§III-E):
     *        every check is one compare, priced flat, that commits.
     */
    BatchProtocol(const IStateModel &model, const StatsConfig &config,
                  std::uint64_t seed, Sink &sink, ReplicaPlacement placement,
                  util::ThreadPool *pool = nullptr, unsigned max_threads = 0,
                  bool force_all_commit = false)
        : model_(model), sink_(sink), placement_(placement), pool_(pool),
          maxThreads_(max_threads), forceAllCommit_(force_all_commit),
          base_(seed), C_(config.numChunks), K_(config.altWindowK),
          R_(config.numOriginalStates), spans_(sink.spans()), begin_(C_),
          end_(C_), chunks_(C_), boundaries_(C_ - 1)
    {
        static_assert(StepSink<Sink>);
        const std::size_t n = model.numInputs();
        for (unsigned c = 0; c < C_; ++c) {
            begin_[c] = n * c / C_;
            end_[c] = n * (c + 1) / C_;
        }
        outcome_.outputs.assign(n, 0.0);
        for (BoundaryProducts &bp : boundaries_) {
            bp.replicas.resize(R_ - 1);
            bp.replicaTasks.assign(R_ - 1, kNoTask);
            bp.replicaSpans.resize(R_ - 1);
        }
    }

    unsigned numChunks() const { return C_; }
    trace::TaskId bodyLast(unsigned c) const { return chunks_[c].bodyLast; }
    BatchOutcome takeOutcome() { return std::move(outcome_); }

    /** Alt producer, body to the snapshot and the snapshot of chunk
     *  @p c (the whole body for the last chunk). */
    void
    speculateToSnapshot(unsigned c)
    {
        ChunkProducts &cp = chunks_[c];
        StateHandle working;
        if (c == 0) {
            working = sink_.firstChunkState(model_);
        } else {
            // Alternative producer: replay the K inputs before the chunk
            // from the cold state (paper §II-B, light boxes of Fig. 2b),
            // then keep the speculative state for the check (Fig. 6).
            working = model_.coldState();
            util::Rng rng = base_.split(streams::alt(c));
            const StepDone alt =
                update({Step::Alt, c},
                       span(obs::SpanKind::AltProducer, 0, c, begin_[c],
                            end_[c], K_),
                       *working, begin_[c] - K_, begin_[c], rng, nullptr);
            cp.altTask = alt.task;
            cp.altSpan = alt.span;
            cp.specState = sink_.copy({Step::SpecCopy, c, 0, cp.altTask},
                                      *working, cp.specTask);
        }

        const bool needs_snapshot = c + 1 < C_;
        cp.snap = needs_snapshot ? snapshotPoint(begin_[c], end_[c], K_)
                                 : end_[c];
        cp.bodyRng = base_.split(streams::body(c));
        cp.outputs.resize(end_[c] - begin_[c]);
        const StepDone body = update(
            {Step::Body, c},
            span(obs::SpanKind::ChunkBody, cp.altSpan.id, c, begin_[c],
                 cp.snap),
            *working, begin_[c], cp.snap, cp.bodyRng, cp.outputs.data());
        cp.bodyA = cp.bodyLast = body.task;
        cp.bodySpanA = body.span;
        if (needs_snapshot) {
            cp.snapshot = sink_.copy({Step::SnapshotCopy, c, 0, cp.bodyA},
                                     *working, cp.snapshotTask);
            cp.working = std::move(working);
        } else {
            cp.finalState = std::move(working);
        }
    }

    /** Body of chunk @p c < C-1 after its snapshot. */
    void
    speculateAfterSnapshot(unsigned c)
    {
        ChunkProducts &cp = chunks_[c];
        const StepDone body = update(
            {Step::BodyTail, c},
            span(obs::SpanKind::ChunkBody, cp.bodySpanA.id, c, cp.snap,
                 end_[c]),
            *cp.working, cp.snap, end_[c], cp.bodyRng,
            cp.outputs.data() + (cp.snap - begin_[c]));
        cp.bodyB = cp.bodyLast = body.task;
        cp.bodySpanB = body.span;
        cp.finalState = std::move(cp.working);
    }

    /** Replica @p rep of boundary @p c from chunk c's speculative
     *  snapshot (ReplicaPlacement::Eager). */
    void
    generateEagerReplica(unsigned c, unsigned rep)
    {
        const ChunkProducts &cp = chunks_[c];
        regenerateReplica(c, rep, *cp.snapshot, cp.snapshotTask, cp.snap, 0,
                          kNoTask);
    }

    /** The commit check of chunk c+1, then its commit or re-execution. */
    void
    resolveBoundary(unsigned c)
    {
        const auto resolve = sink_.resolveScope();
        if (c == 0) {
            // Chunk 0 runs from the initial state: it is never
            // speculative, so its products commit as they are.
            const ChunkProducts &cp = chunks_[0];
            committedFinal_ = cp.finalState.get();
            committedFinalTask_ = cp.bodyLast;
            committedSnapshot_ = cp.snapshot.get();
            committedSnapshotTask_ = cp.snapshotTask;
            std::copy(cp.outputs.begin(), cp.outputs.end(),
                      outcome_.outputs.begin());
            instant(obs::SpanKind::Commit, cp.bodySpanA.id, 0);
        }

        BoundaryProducts &bp = boundaries_[c];
        ChunkProducts &nxt = chunks_[c + 1];
        // Eager replicas are valid only when chunk c committed its
        // speculation, so that they grew from real state; those of a
        // re-executed chunk were wasted speculation.
        bool replicas_valid =
            placement_ == ReplicaPlacement::Eager && committedSpeculative_;
        if (placement_ == ReplicaPlacement::BeforeCheck) {
            regenerateReplicas(c, kNoTask, 0);
            replicas_valid = true;
        } else if (!replicas_valid) {
            for (const trace::TaskId stale : bp.replicaTasks)
                sink_.retag(stale, trace::TaskKind::MispecReExec);
        }

        // The commit check of chunk c+1 (Fig. 6): the committed final
        // state first, then each replica, until a match.
        obs::Span valSpan =
            startSpan(obs::SpanKind::Validation, nxt.bodySpanA.id, c + 1);
        trace::TaskId cmp = kNoTask;
        bool matched = compare(c, *committedFinal_, -1, cmp);
        if (!matched && !replicas_valid)
            regenerateReplicas(c, cmp, valSpan.id);
        std::int64_t candidate = matched ? -1 : -2;
        std::int64_t compared = 1;
        for (unsigned rep = 0; !matched && rep + 1 < R_; ++rep) {
            matched = compare(c, *bp.replicas[rep], static_cast<int>(rep),
                              cmp);
            ++compared;
            if (matched)
                candidate = rep;
        }
        valSpan.detail = compared;
        finishSpan(valSpan);
        sink_.resolved(c, matched, {nxt.bodyA, nxt.bodyB});

        if (matched) {
            ++outcome_.commits;
            std::copy(nxt.outputs.begin(), nxt.outputs.end(),
                      outcome_.outputs.begin() + begin_[c + 1]);
            committedOwned_.reset();
            committedSnapshotOwned_.reset();
            committedFinal_ = nxt.finalState.get();
            committedFinalTask_ = nxt.bodyLast;
            committedSnapshot_ = nxt.snapshot.get();
            committedSnapshotTask_ = nxt.snapshotTask;
            committedSpeculative_ = true;
            instant(obs::SpanKind::Commit, valSpan.id, c + 1, candidate);
        } else {
            obs::Span abortSpan =
                startSpan(obs::SpanKind::Abort, valSpan.id, c + 1);
            // Root-cause attribution while every candidate is alive.
            if (abortSpan.id != 0)
                fileAbort(attributeAbort(*nxt.specState, *committedFinal_,
                                         bp.replicas, valSpan,
                                         bp.replicaSpans, nxt.altSpan,
                                         {nxt.bodySpanA, nxt.bodySpanB}),
                          abortSpan);
            obs::Span reSpan =
                startSpan(obs::SpanKind::ReExec, abortSpan.id, c + 1);
            reexecuteChunk(c + 1);
            finishSpan(reSpan);
            instant(obs::SpanKind::Commit, abortSpan.id, c + 1, -2);
            finishSpan(abortSpan);
        }
        // Eager replicas of later boundaries stay alive: that memory is
        // the price of the overlap.
        bp.replicas.clear();
        bp.replicaTasks.clear();
    }

  private:
    /** Speculative products of one chunk. */
    struct ChunkProducts
    {
        StateHandle specState;  //!< Alt-producer output (c > 0).
        StateHandle finalState; //!< End state of the speculative body.
        StateHandle snapshot;   //!< State at the snapshot (c < C-1).
        std::vector<double> outputs; //!< Dense, from the chunk's begin.

        // Finished spans of the speculation, kept so an abort can
        // attribute its wasted seconds (§V-B) to this chunk.
        obs::Span altSpan;
        obs::Span bodySpanA;
        obs::Span bodySpanB;

        /** Carried across the snapshot: the body continues on the same
         *  state and RNG stream. */
        StateHandle working;
        util::Rng bodyRng{0};
        std::size_t snap = 0; //!< Snapshot input index.

        // The sink's ids of the speculation's steps.
        trace::TaskId altTask = kNoTask;
        trace::TaskId specTask = kNoTask; //!< SpecCopy (c > 0).
        trace::TaskId bodyA = kNoTask;
        trace::TaskId snapshotTask = kNoTask;
        trace::TaskId bodyB = kNoTask;
        trace::TaskId bodyLast = kNoTask; //!< Made the final state.
    };

    /** Original-state replicas of one boundary. */
    struct BoundaryProducts
    {
        std::vector<StateHandle> replicas; //!< R-1 regenerated states.
        std::vector<trace::TaskId> replicaTasks;
        std::vector<obs::Span> replicaSpans;
    };

    /** Runs updates [from, to) on @p state as step @p s, writing their
     *  outputs to @p outs when non-null. */
    StepDone
    update(const Step &s, const std::optional<obs::Span> &span,
           State &state, std::size_t from, std::size_t to, util::Rng &rng,
           double *outs)
    {
        using enum trace::TaskKind;
        static constexpr trace::TaskKind kind[] = {
            AltProducer,      ChunkBody,    ChunkBody,
            OriginalStateGen, MispecReExec, MispecReExec};
        return sink_.run(s, span, [&] {
            return runSpan(model_, state, from, to, rng, outs, kind[s.kind],
                           sink_.ops());
        });
    }

    /** Identity of the batch (session 0) span @p kind over inputs
     *  [from, to) of chunk @p c, for a step to record. */
    static obs::Span
    span(obs::SpanKind kind, std::uint64_t parent, unsigned c,
         std::size_t from, std::size_t to, std::int64_t detail = -1)
    {
        return {.parent = parent,
                .chunk = c,
                .firstInput = static_cast<std::int64_t>(from),
                .inputCount = static_cast<std::uint32_t>(to - from),
                .kind = kind,
                .detail = detail};
    }

    /** Opens the batch span @p kind over the whole of chunk @p c. */
    obs::Span
    startSpan(obs::SpanKind kind, std::uint64_t parent, unsigned c,
              std::int64_t detail = -1)
    {
        if (!spans_)
            return {};
        return spans_->start(kind, parent, 0, c,
                             static_cast<std::int64_t>(begin_[c]),
                             static_cast<std::uint32_t>(end_[c] - begin_[c]),
                             detail);
    }

    void
    finishSpan(obs::Span &span)
    {
        if (spans_)
            spans_->finish(span);
    }

    void
    instant(obs::SpanKind kind, std::uint64_t parent, unsigned c,
            std::int64_t detail = -1)
    {
        obs::Span span = startSpan(kind, parent, c, detail);
        finishSpan(span);
    }

    /** Copies @p source and replays chunk @p c's inputs after the
     *  snapshot on it (paper §III-B, Fig. 5).  @p parent_span: the span
     *  that asked for the replica (0: none). */
    void
    regenerateReplica(unsigned c, unsigned rep, const State &source,
                      trace::TaskId source_task, std::size_t snap,
                      std::uint64_t parent_span, trace::TaskId after)
    {
        BoundaryProducts &bp = boundaries_[c];
        trace::TaskId copy_task = kNoTask;
        StateHandle replica =
            sink_.copy({Step::ReplicaCopy, c, rep, source_task, after},
                       source, copy_task);
        util::Rng rng = base_.split(streams::replica(c, rep));
        const StepDone regen = update(
            {Step::Replica, c, rep},
            span(obs::SpanKind::ReplicaRegen, parent_span, c, snap, end_[c],
                 rep),
            *replica, snap, end_[c], rng, nullptr);
        bp.replicaTasks[rep] = regen.task;
        bp.replicaSpans[rep] = regen.span;
        bp.replicas[rep] = std::move(replica);
    }

    /** Regenerates every replica of boundary @p c from the committed
     *  snapshot, after step @p after. */
    void
    regenerateReplicas(unsigned c, trace::TaskId after,
                       std::uint64_t parent_span)
    {
        const std::size_t snap = snapshotPoint(begin_[c], end_[c], K_);
        const auto one = [&](std::size_t rep) {
            regenerateReplica(c, static_cast<unsigned>(rep),
                              *committedSnapshot_, committedSnapshotTask_,
                              snap, parent_span, after);
        };
        if (pool_ && R_ > 1)
            pool_->parallelFor(R_ - 1, one, maxThreads_);
        else
            for (unsigned rep = 0; rep + 1 < R_; ++rep)
                one(rep);
    }

    bool
    compare(unsigned c, const State &original, int candidate,
            trace::TaskId &task)
    {
        const ChunkProducts &nxt = chunks_[c + 1];
        return sink_.compare(
            {c, candidate, *nxt.specState,
             forceAllCommit_ ? nullptr : &original, committedFinalTask_,
             nxt.specTask, boundaries_[c].replicaTasks},
            [&] {
                return forceAllCommit_ ||
                       model_.matches(*nxt.specState, original);
            },
            task);
    }

    /** Chunk @p d aborted: it re-executes from the committed final
     *  state (paper §II-B case (i)) on streams::reexec(d), and becomes
     *  the committed chunk. */
    void
    reexecuteChunk(unsigned d)
    {
        ++outcome_.aborts;
        trace::TaskId task = kNoTask;
        StateHandle redo =
            sink_.copy({Step::RedoCopy, d, 0, committedFinalTask_},
                       *committedFinal_, task);
        util::Rng rng = base_.split(streams::reexec(d));
        const auto reexecute = [&](Step::Kind kind, std::size_t from,
                                   std::size_t to) {
            return update({kind, d}, std::nullopt, *redo, from, to, rng,
                          outcome_.outputs.data() + from)
                .task;
        };
        const bool needs_snapshot = d + 1 < C_;
        const std::size_t snap =
            needs_snapshot ? snapshotPoint(begin_[d], end_[d], K_) : end_[d];
        committedFinalTask_ = reexecute(Step::Reexec, begin_[d], snap);
        committedSnapshotOwned_.reset();
        committedSnapshot_ = nullptr;
        committedSnapshotTask_ = kNoTask;
        if (needs_snapshot) {
            committedSnapshotOwned_ =
                sink_.copy({Step::RedoSnapshotCopy, d, 0, committedFinalTask_},
                           *redo, committedSnapshotTask_);
            committedSnapshot_ = committedSnapshotOwned_.get();
            committedFinalTask_ = reexecute(Step::ReexecTail, snap, end_[d]);
        }
        committedOwned_ = std::move(redo);
        committedFinal_ = committedOwned_.get();
        committedSpeculative_ = false;
    }

    const IStateModel &model_;
    Sink &sink_;
    const ReplicaPlacement placement_;
    util::ThreadPool *const pool_;
    const unsigned maxThreads_;
    const bool forceAllCommit_;
    const util::Rng base_;
    const unsigned C_, K_, R_;
    obs::SpanRecorder *const spans_;
    std::vector<std::size_t> begin_, end_;
    std::vector<ChunkProducts> chunks_;
    std::vector<BoundaryProducts> boundaries_;
    BatchOutcome outcome_;

    // Committed products of the most recently resolved chunk.  Only
    // the boundary chain touches these; under the pipelined schedule
    // the executor's dependency handoff orders that chain across
    // workers.
    const State *committedFinal_ = nullptr;
    StateHandle committedOwned_;
    const State *committedSnapshot_ = nullptr;
    StateHandle committedSnapshotOwned_;
    trace::TaskId committedFinalTask_ = kNoTask;
    trace::TaskId committedSnapshotTask_ = kNoTask;
    bool committedSpeculative_ = true;
};

} // namespace repro::core

#endif // REPRO_CORE_BATCH_PROTOCOL_H
