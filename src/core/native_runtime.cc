#include "core/native_runtime.h"

#include <algorithm>
#include <chrono>

#include "core/protocol_steps.h"
#include "core/rng_streams.h"
#include "core/step_scope.h"
#include "core/versioned_state.h"
#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "trace/measured_trace.h"
#include "util/log.h"
#include "util/task_graph_executor.h"
#include "util/thread_pool.h"

namespace repro::core {

namespace {

using trace::TaskId;
using trace::TaskKind;
using trace::ThreadId;

/**
 * Always-on runtime counters (metrics/metrics.h): cheap enough to
 * leave enabled on every run, unlike the opt-in measured trace.  The
 * protocol outcome counters (commits, aborts, matches) are shared by
 * both commit protocols; per-phase latencies are kept per protocol so
 * a snapshot separates barrier from pipelined behaviour.
 */
struct RuntimeCounters
{
    metrics::Counter &statsRuns;      //!< NativeRuntime::run calls.
    metrics::Counter &sequentialRuns; //!< runSequential calls.
    metrics::Counter &commits;        //!< Chunks committed.
    metrics::Counter &aborts;         //!< Chunks aborted + re-executed.
    metrics::Counter &compares;       //!< Replica validations.
    metrics::Counter &matches;        //!< ... that accepted the chunk.
    metrics::Counter &mismatches;     //!< ... that rejected it.
    metrics::Counter &replicaRegens;  //!< Original states regenerated.
    metrics::Counter &stateCopies;    //!< State clones.
    metrics::Counter &stateCopyBytes; //!< Bytes those clones moved.
};

RuntimeCounters &
runtimeCounters()
{
    auto &reg = metrics::MetricsRegistry::global();
    static RuntimeCounters m{reg.counter("runtime.stats_runs"),
                             reg.counter("runtime.sequential_runs"),
                             reg.counter("runtime.chunks_committed"),
                             reg.counter("runtime.chunks_aborted"),
                             reg.counter("runtime.replica_validations"),
                             reg.counter("runtime.compare_matches"),
                             reg.counter("runtime.compare_mismatches"),
                             reg.counter("runtime.replica_regens"),
                             reg.counter("runtime.state_copies"),
                             reg.counter("runtime.state_copy_bytes")};
    return m;
}

/** Per-phase latency histograms of one commit protocol. */
struct PhaseHists
{
    metrics::LatencyHistogram &chunkBody;
    metrics::LatencyHistogram &altProducer;
    metrics::LatencyHistogram &stateCopy;
    metrics::LatencyHistogram &replicaGen;
    metrics::LatencyHistogram &compare;
    metrics::LatencyHistogram &boundaryResolve;
    metrics::LatencyHistogram &reexec;
    metrics::LatencyHistogram &run;
};

const PhaseHists &
phaseHists(bool pipelined)
{
    auto &reg = metrics::MetricsRegistry::global();
    static const PhaseHists barrier{
        reg.histogram("runtime.barrier.chunk_body_seconds"),
        reg.histogram("runtime.barrier.alt_producer_seconds"),
        reg.histogram("runtime.barrier.state_copy_seconds"),
        reg.histogram("runtime.barrier.replica_gen_seconds"),
        reg.histogram("runtime.barrier.compare_seconds"),
        reg.histogram("runtime.barrier.boundary_resolve_seconds"),
        reg.histogram("runtime.barrier.reexec_seconds"),
        reg.histogram("runtime.barrier.run_seconds")};
    static const PhaseHists piped{
        reg.histogram("runtime.pipelined.chunk_body_seconds"),
        reg.histogram("runtime.pipelined.alt_producer_seconds"),
        reg.histogram("runtime.pipelined.state_copy_seconds"),
        reg.histogram("runtime.pipelined.replica_gen_seconds"),
        reg.histogram("runtime.pipelined.compare_seconds"),
        reg.histogram("runtime.pipelined.boundary_resolve_seconds"),
        reg.histogram("runtime.pipelined.reexec_seconds"),
        reg.histogram("runtime.pipelined.run_seconds")};
    return pipelined ? piped : barrier;
}

/** Commit-protocol thread id in the measured graph.  The protocol
 *  resolves boundaries in program order, so its tasks form one logical
 *  thread — executed by the caller under the barrier protocol, by pool
 *  workers under the pipelined one. */
constexpr ThreadId kMainThread = 0;

/** Per-chunk speculative products, filled by the parallel phase. */
struct ChunkProducts
{
    StateHandle specState;  //!< Alt-producer output (c > 0).
    StateHandle finalState; //!< End state of the speculative body.
    StateHandle snapshot;   //!< State at end-K (c < C-1).
    std::vector<double> outputs; //!< Dense, indexed from chunk begin.

    // Finished obs spans of the speculative execution, kept so an
    // abort can attribute its wasted seconds (§V-B) to this chunk.
    obs::Span altSpan;
    obs::Span bodySpanA;
    obs::Span bodySpanB;

    /** Carried between the two body spans (the snapshot splits the
     *  body; the RNG stream continues across the split). */
    StateHandle working;
    util::Rng bodyRng{0};
    std::size_t snap = 0; //!< Snapshot input index (end-K clamped).

    // Recorded task ids of this chunk's speculative execution.
    TaskId altTask = kNoTask;      //!< AltProducer replay (c > 0).
    TaskId specCopyTask = kNoTask; //!< Spec-state clone for the check.
    TaskId bodyA = kNoTask;        //!< Body up to the snapshot point.
    TaskId snapshotTask = kNoTask; //!< Snapshot clone (c < C-1).
    TaskId bodyB = kNoTask;        //!< Body after the snapshot point.
    TaskId bodyLast = kNoTask;     //!< Last body task (final state).
};

/** Original-state replicas of one chunk boundary. */
struct BoundaryProducts
{
    std::vector<StateHandle> replicas; //!< R-1 regenerated states.
    std::vector<TaskId> replicaTasks;  //!< Their OriginalStateGen ids.
    std::vector<obs::Span> replicaSpans; //!< Their ReplicaRegen spans.
};

/**
 * Optional observation of one run: every call forwards to the
 * recorder when one is attached and is a no-op otherwise, so the
 * unrecorded hot path stays free of bookkeeping.
 */
class Observer
{
  public:
    explicit Observer(trace::MeasuredTraceRecorder *recorder)
        : rec_(recorder)
    {
    }

    bool on() const { return rec_ != nullptr; }

    /** The measured task of a step (recorded only when attached). */
    StepTask
    task(TaskKind kind, ThreadId thread,
         std::int32_t chunk = trace::kNoChunk) const
    {
        return {rec_, kind, thread, chunk};
    }

    TaskId
    measured(TaskKind kind, ThreadId thread, double duration_us,
             std::int32_t chunk = trace::kNoChunk) const
    {
        return rec_ ? rec_->addMeasured(kind, thread, duration_us, chunk)
                    : kNoTask;
    }

    void
    dep(TaskId before, TaskId after) const
    {
        if (rec_ && before != kNoTask && after != kNoTask)
            rec_->addDep(before, after);
    }

    void
    retag(TaskId id, TaskKind kind) const
    {
        if (rec_ && id != kNoTask)
            rec_->retag(id, kind);
    }

  private:
    trace::MeasuredTraceRecorder *rec_;
};

/**
 * One NativeRuntime::run invocation: the speculative chunk executions,
 * boundary replicas, and in-order commit resolution, schedulable
 * either as the historical two-phase barrier or as a dependency-driven
 * pipeline (see native_runtime.h).  Both schedules run the *same*
 * member steps below on the same RNG streams, so their results are
 * bit-identical; only when and where each step executes differs.
 */
class RunImpl
{
  public:
    RunImpl(const IStateModel &model, const StatsConfig &config,
            std::uint64_t seed, trace::MeasuredTraceRecorder *recorder,
            unsigned max_threads)
        : model_(model), obs_(recorder), base_(seed),
          n_(model.numInputs()), C_(config.numChunks),
          K_(config.altWindowK), R_(config.numOriginalStates),
          maxThreads_(max_threads), pool_(util::ThreadPool::global()),
          met_(runtimeCounters()), ph_(&phaseHists(false)),
          stateBytes_(model.stateSizeBytes())
    {
        const StepScope setup(nullptr,
                              obs_.task(TaskKind::Setup, kMainThread));
        setupTask_ = setup.task();
        begin_.resize(C_);
        end_.resize(C_);
        for (unsigned c = 0; c < C_; ++c) {
            begin_[c] = n_ * c / C_;
            end_[c] = n_ * (c + 1) / C_;
        }
        result_.outputs.assign(n_, 0.0);
        chunks_.resize(C_);
        boundaries_.resize(C_ - 1);
        for (BoundaryProducts &bp : boundaries_) {
            bp.replicas.resize(R_ >= 1 ? R_ - 1 : 0);
            bp.replicaTasks.assign(bp.replicas.size(), kNoTask);
            bp.replicaSpans.resize(bp.replicas.size());
        }
    }

    /**
     * Two-phase schedule: all chunk bodies behind one parallelFor
     * barrier, then each boundary resolves on the calling thread,
     * regenerating its replicas only when the committed final state
     * misses.
     */
    NativeRuntime::Result
    runBarrier()
    {
        double join_wait = 0.0;
        pool_.parallelFor(
            C_,
            [&](std::size_t chunk) {
                const unsigned c = static_cast<unsigned>(chunk);
                speculateChunkToSnapshot(c);
                if (c + 1 < C_)
                    speculateChunkAfterSnapshot(c);
            },
            maxThreads_, 0, obs_.on() ? &join_wait : nullptr);
        // The join is a real scheduling constraint of this protocol:
        // no commit work starts before *every* chunk body finished.
        // Record it as a Sync task whose cost is the caller's measured
        // wait at the barrier, fed by every chunk body and gating the
        // commit phase, so the measured graph mirrors the barrier, not
        // the pipeline (the what-if replay would otherwise credit the
        // barrier with overlap it never had, and the §V-B ladder's
        // synchronization step would have nothing to remove).  The
        // pipelined schedule has no counterpart: its terminal wait
        // gates no work, and commit checks fire from their own
        // dependencies.
        if (obs_.on()) {
            const TaskId sync = obs_.measured(TaskKind::Sync, kMainThread,
                                              join_wait * 1e6);
            for (const ChunkProducts &cp : chunks_)
                obs_.dep(cp.bodyLast, sync);
            joinSources_.assign(1, sync);
        }
        for (unsigned c = 0; c + 1 < C_; ++c)
            resolveBoundary(c);
        return std::move(result_);
    }

    /**
     * Dependency-driven schedule: chunk spans, eager replicas, and
     * boundary resolutions become TaskGraphExecutor nodes that fire
     * as soon as their declared predecessors finish.  Boundary c
     * needs chunks c and c+1 plus its replicas — never the chunks
     * beyond c+1, so commits overlap with downstream speculation.
     */
    NativeRuntime::Result
    runPipelined()
    {
        pipelined_ = true;
        ph_ = &phaseHists(true);
        using NodeId = util::TaskGraphExecutor::NodeId;
        util::TaskGraphExecutor exec(pool_, maxThreads_);

        // Chunk c splits at its snapshot so boundary-c replicas can
        // launch from the snapshot while the chunk tail still runs.
        std::vector<NodeId> head(C_), tail(C_);
        for (unsigned c = 0; c < C_; ++c) {
            head[c] =
                exec.add([this, c] { speculateChunkToSnapshot(c); });
            tail[c] = c + 1 < C_
                          ? exec.add(
                                [this, c] {
                                    speculateChunkAfterSnapshot(c);
                                },
                                {head[c]})
                          : head[c];
        }

        // Eager replicas: regenerate boundary c's original states from
        // chunk c's *speculative* snapshot, concurrently with every
        // chunk body still in flight.
        std::vector<std::vector<NodeId>> replicaNodes(C_ - 1);
        for (unsigned c = 0; c + 1 < C_; ++c) {
            for (unsigned rep = 0; rep + 1 < R_; ++rep) {
                replicaNodes[c].push_back(exec.add(
                    [this, c, rep] { generateEagerReplica(c, rep); },
                    {head[c]}));
            }
        }

        // Boundary c fires once chunks c (via the boundary chain) and
        // c+1 plus boundary-c replicas are done; the chain keeps
        // commits in program order.
        NodeId prev_boundary = 0;
        for (unsigned c = 0; c + 1 < C_; ++c) {
            std::vector<NodeId> deps;
            deps.push_back(c == 0 ? tail[0] : prev_boundary);
            deps.push_back(tail[c + 1]);
            deps.insert(deps.end(), replicaNodes[c].begin(),
                        replicaNodes[c].end());
            prev_boundary =
                exec.add([this, c] { resolveBoundary(c); }, deps);
        }

        exec.wait();
        return std::move(result_);
    }

  private:
    /** Clones @p source as one StateCopy step of logical thread
     *  @p thread, charged to the always-on metrics (count, bytes,
     *  latency); @p task receives its recorded task id.  All protocol
     *  state copies go through here.  Block-state payloads report the
     *  bytes the clone actually moved (zero for a pure block-sharing
     *  copy-on-write clone). */
    StateHandle
    cloneCounted(const State &source, ThreadId thread, unsigned chunk,
                 TaskId &task)
    {
        const StepScope step(&ph_->stateCopy,
                             obs_.task(TaskKind::StateCopy, thread, chunk));
        task = step.task();
        met_.stateCopies.inc();
        StateHandle copy = source.clone();
        met_.stateCopyBytes.inc(
            copy->payload() ? copy->payload()->creationStats().bytesCopied
                            : stateBytes_);
        return copy;
    }

    /** Identity of the batch (session 0) span @p kind over inputs
     *  [from, to) of chunk @p c. */
    obs::Span
    chunkSpan(obs::SpanKind kind, std::uint64_t parent, unsigned c,
              std::size_t from, std::size_t to,
              std::int64_t detail = -1) const
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
    startChunkSpan(obs::SpanKind kind, std::uint64_t parent, unsigned c,
                   std::int64_t detail = -1)
    {
        return spans_.start(kind, parent, 0, c,
                            static_cast<std::int64_t>(begin_[c]),
                            static_cast<std::uint32_t>(end_[c] - begin_[c]),
                            detail);
    }

    ThreadId
    chunkThread(unsigned c) const
    {
        return 1 + c;
    }

    ThreadId
    replicaThread(unsigned c, unsigned rep) const
    {
        return 1 + C_ + c * (R_ >= 1 ? R_ - 1 : 0) + rep;
    }

    /** Alt-producer replay, spec-state copy, body up to the snapshot,
     *  and the snapshot clone of chunk @p c (the whole body when the
     *  chunk is last and has no snapshot). */
    void
    speculateChunkToSnapshot(unsigned c)
    {
        const ThreadId th = chunkThread(c);
        ChunkProducts &cp = chunks_[c];
        StateHandle working;
        if (c == 0) {
            working = model_.initialState();
        } else {
            // Alternative producer (same stream as the engine:
            // streams::alt(c)).
            working = model_.coldState();
            util::Rng alt_rng = base_.split(streams::alt(c));
            StepScope alt(&ph_->altProducer,
                          obs_.task(TaskKind::AltProducer, th, c),
                          chunkSpan(obs::SpanKind::AltProducer, 0, c,
                                    begin_[c], end_[c], K_));
            obs_.dep(setupTask_, alt.task());
            runSpan(model_, *working, begin_[c] - K_, begin_[c], alt_rng,
                    nullptr, TaskKind::AltProducer);
            cp.altTask = alt.task();
            cp.altSpan = alt.finish();
            cp.specState = cloneCounted(*working, th, c, cp.specCopyTask);
        }

        const bool needs_snapshot = c + 1 < C_;
        cp.snap = needs_snapshot ? snapshotPoint(begin_[c], end_[c], K_)
                                 : end_[c];
        cp.bodyRng = base_.split(streams::body(c));
        cp.outputs.resize(end_[c] - begin_[c]);
        StepScope body(&ph_->chunkBody, obs_.task(TaskKind::ChunkBody, th, c),
                       chunkSpan(obs::SpanKind::ChunkBody, cp.altSpan.id, c,
                                 begin_[c], cp.snap));
        if (c == 0)
            obs_.dep(setupTask_, body.task());
        runSpan(model_, *working, begin_[c], cp.snap, cp.bodyRng,
                cp.outputs.data(), TaskKind::ChunkBody);
        cp.bodyA = body.task();
        cp.bodySpanA = body.finish();
        cp.bodyLast = cp.bodyA;
        if (needs_snapshot) {
            cp.snapshot = cloneCounted(*working, th, c, cp.snapshotTask);
            cp.working = std::move(working);
        } else {
            cp.finalState = std::move(working);
        }
    }

    /** Body of chunk @p c after the snapshot point (continues the
     *  chunk's RNG stream).  Requires speculateChunkToSnapshot(c). */
    void
    speculateChunkAfterSnapshot(unsigned c)
    {
        const ThreadId th = chunkThread(c);
        ChunkProducts &cp = chunks_[c];
        StepScope body(&ph_->chunkBody, obs_.task(TaskKind::ChunkBody, th, c),
                       chunkSpan(obs::SpanKind::ChunkBody, cp.bodySpanA.id,
                                 c, cp.snap, end_[c]));
        runSpan(model_, *cp.working, cp.snap, end_[c], cp.bodyRng,
                cp.outputs.data() + (cp.snap - begin_[c]),
                TaskKind::ChunkBody);
        cp.bodyB = body.task();
        cp.bodySpanB = body.finish();
        cp.bodyLast = cp.bodyB;
        cp.finalState = std::move(cp.working);
    }

    /** One eagerly launched replica of boundary @p c, regenerated
     *  from chunk c's speculative snapshot (pipelined schedule). */
    void
    generateEagerReplica(unsigned c, unsigned rep)
    {
        const ChunkProducts &cp = chunks_[c];
        regenerateReplica(c, rep, *cp.snapshot, cp.snapshotTask,
                          cp.snap, 0);
    }

    /** Clones @p source and replays the boundary inputs of chunk
     *  @p c on it (streams::replica(c, rep), exactly the engine's
     *  stream), storing the replica for the commit check.
     *  @p parent_span: the span that asked for the replica (0: none).
     *  @p after: extra recorded predecessor mirroring a schedule
     *  constraint beyond the data dependency (kNoTask: none). */
    void
    regenerateReplica(unsigned c, unsigned rep, const State &source,
                      TaskId source_task, std::size_t snap,
                      std::uint64_t parent_span, TaskId after = kNoTask)
    {
        const ThreadId rth = replicaThread(c, rep);
        TaskId rep_copy = kNoTask;
        StateHandle replica = cloneCounted(source, rth, c, rep_copy);
        obs_.dep(source_task, rep_copy);
        obs_.dep(after, rep_copy);
        StepScope regen(&ph_->replicaGen,
                        obs_.task(TaskKind::OriginalStateGen, rth, c),
                        chunkSpan(obs::SpanKind::ReplicaRegen, parent_span,
                                  c, snap, end_[c], rep));
        util::Rng rng = base_.split(streams::replica(c, rep));
        met_.replicaRegens.inc();
        runSpan(model_, *replica, snap, end_[c], rng, nullptr,
                TaskKind::OriginalStateGen);
        BoundaryProducts &bp = boundaries_[c];
        bp.replicaTasks[rep] = regen.task();
        bp.replicaSpans[rep] = regen.finish();
        bp.replicas[rep] = std::move(replica);
    }

    /** Regenerates every boundary-@p c replica from the *committed*
     *  snapshot, in parallel, after the first compare of the commit
     *  check missed (barrier schedule, and the pipelined abort path
     *  where the eager replicas were invalidated).  The replicas
     *  launch only after @p first_compare — recorded as an edge so the
     *  measured graph stays faithful to the schedule.  @p parent_span
     *  is the validation span that encloses the fan-out. */
    void
    regenerateReplicasFromCommitted(unsigned c, TaskId first_compare,
                                    std::uint64_t parent_span)
    {
        if (R_ <= 1)
            return;
        const std::size_t snap = snapshotPoint(begin_[c], end_[c], K_);
        pool_.parallelFor(
            R_ - 1,
            [&](std::size_t rep) {
                regenerateReplica(c, static_cast<unsigned>(rep),
                                  *committedSnapshot_,
                                  committedSnapshotTask_, snap,
                                  parent_span, first_compare);
            },
            maxThreads_);
    }

    /**
     * Resolves commit boundary @p c in program order: compares chunk
     * c+1's speculative state against the committed final state,
     * regenerates the replicas only when that misses and no valid ones
     * exist, compares them in order until a match (paper Fig. 6), and
     * commits or re-executes.  Under the barrier schedule this runs on
     * the caller; under the pipelined one, on a pool worker whose node
     * fired when chunks c, c+1, and the eager boundary replicas
     * finished.
     */
    void
    resolveBoundary(unsigned c)
    {
        const StepScope resolve(&ph_->boundaryResolve);
        if (c == 0) {
            // Chunk 0 runs from the program's initial state — it is
            // never speculative, so its products commit as they are.
            committedFinal_ = chunks_[0].finalState.get();
            committedFinalTask_ = chunks_[0].bodyLast;
            committedSnapshot_ = chunks_[0].snapshot.get();
            committedSnapshotTask_ = chunks_[0].snapshotTask;
            committedSpeculative_ = true;
            std::copy(chunks_[0].outputs.begin(),
                      chunks_[0].outputs.end(),
                      result_.outputs.begin() + begin_[0]);
            obs::Span commit0 = startChunkSpan(
                obs::SpanKind::Commit, chunks_[0].bodySpanA.id, 0);
            spans_.finish(commit0);
        }

        BoundaryProducts &bp = boundaries_[c];
        // Valid replicas exist only under the pipelined schedule when
        // chunk c committed its speculation (its eager replicas grew
        // from the snapshot that became real state); otherwise they
        // are built below from the committed snapshot, and only when
        // the committed final state misses.  Eager replicas of a
        // re-executed chunk c grew from a snapshot that never became
        // real state: wasted speculation, retagged like the engine
        // retags aborted bodies.
        const bool replicas_valid = pipelined_ && committedSpeculative_;
        if (!replicas_valid)
            for (const TaskId stale : bp.replicaTasks)
                obs_.retag(stale, TaskKind::MispecReExec);

        // Commit check of chunk c+1: compare its speculative state
        // against each original state until a match (paper Fig. 6).
        ChunkProducts &nxt = chunks_[c + 1];
        TaskId first_compare = kNoTask;
        const auto compare = [&](const State &original, int rep) {
            const StepScope step(
                &ph_->compare,
                obs_.task(TaskKind::StateCompare, kMainThread, c));
            const TaskId cmp = step.task();
            if (rep >= 0) {
                obs_.dep(bp.replicaTasks[rep], cmp);
            } else {
                obs_.dep(committedFinalTask_, cmp);
                obs_.dep(nxt.specCopyTask, cmp);
                for (const TaskId rt : bp.replicaTasks)
                    obs_.dep(rt, cmp);
                // Barrier schedule, first boundary: the commit phase
                // starts only after the phase-1 join — joinSources_
                // holds its Sync task (empty under the pipeline).
                for (const TaskId js : joinSources_)
                    obs_.dep(js, cmp);
                first_compare = cmp;
            }
            met_.compares.inc();
            const bool matched = model_.matches(*nxt.specState, original);
            (matched ? met_.matches : met_.mismatches).inc();
            return matched;
        };
        obs::Span valSpan = startChunkSpan(obs::SpanKind::Validation,
                                           nxt.bodySpanA.id, c + 1);
        bool matched = compare(*committedFinal_, -1);
        if (!matched && !replicas_valid)
            regenerateReplicasFromCommitted(c, first_compare, valSpan.id);
        std::int64_t matchedCandidate = matched ? -1 : -2;
        std::int64_t candidatesCompared = 1;
        for (unsigned rep = 0; !matched && rep + 1 < R_; ++rep) {
            matched = compare(*bp.replicas[rep], static_cast<int>(rep));
            ++candidatesCompared;
            if (matched)
                matchedCandidate = static_cast<std::int64_t>(rep);
        }
        valSpan.detail = candidatesCompared;
        spans_.finish(valSpan);

        if (matched) {
            ++result_.commits;
            std::copy(nxt.outputs.begin(), nxt.outputs.end(),
                      result_.outputs.begin() + begin_[c + 1]);
            committedOwned_.reset();
            committedSnapshotOwned_.reset();
            committedFinal_ = nxt.finalState.get();
            committedFinalTask_ = nxt.bodyLast;
            committedSnapshot_ = nxt.snapshot.get();
            committedSnapshotTask_ = nxt.snapshotTask;
            committedSpeculative_ = true;
            obs::Span commit = startChunkSpan(
                obs::SpanKind::Commit, valSpan.id, c + 1, matchedCandidate);
            spans_.finish(commit);
        } else {
            obs::Span abortSpan =
                startChunkSpan(obs::SpanKind::Abort, valSpan.id, c + 1);
            // Root-cause attribution while every candidate is still
            // alive; the speculated body and alt producer were
            // mispeculation.
            if (abortSpan.id != 0)
                fileAbort(attributeAbort(*nxt.specState, *committedFinal_,
                                         bp.replicas, valSpan,
                                         bp.replicaSpans, nxt.altSpan,
                                         {nxt.bodySpanA, nxt.bodySpanB}),
                          abortSpan);
            obs::Span reSpan =
                startChunkSpan(obs::SpanKind::ReExec, abortSpan.id, c + 1);
            reexecuteChunk(c);
            spans_.finish(reSpan);
            obs::Span commit = startChunkSpan(obs::SpanKind::Commit,
                                              abortSpan.id, c + 1, -2);
            spans_.finish(commit);
            spans_.finish(abortSpan);
        }

        // The boundary is resolved; its replicas are dead weight now
        // (eager replicas of *future* boundaries stay alive — that
        // memory is the price of the overlap).  The join edges were
        // consumed by boundary 0; later boundaries follow it in the
        // commit protocol's program order.
        bp.replicas.clear();
        bp.replicaTasks.clear();
        joinSources_.clear();
    }

    /** Abort at boundary @p c: re-execute chunk c+1 from the
     *  committed final state (stream streams::reexec(c + 1)).  The
     *  wasted speculative body work is re-attributed to
     *  mispeculation, exactly as the engine retags it. */
    void
    reexecuteChunk(unsigned c)
    {
        ChunkProducts &nxt = chunks_[c + 1];
        ++result_.aborts;
        obs_.retag(nxt.bodyA, TaskKind::MispecReExec);
        obs_.retag(nxt.bodyB, TaskKind::MispecReExec);
        TaskId redo_copy = kNoTask;
        StateHandle redo =
            cloneCounted(*committedFinal_, kMainThread, c + 1, redo_copy);
        obs_.dep(committedFinalTask_, redo_copy);
        util::Rng redo_rng = base_.split(streams::reexec(c + 1));
        const bool needs_snapshot = c + 2 < C_;
        const std::size_t redo_snap =
            needs_snapshot ? snapshotPoint(begin_[c + 1], end_[c + 1], K_)
                           : end_[c + 1];
        committedFinalTask_ =
            reexecute(*redo, begin_[c + 1], redo_snap, redo_rng, c + 1);
        if (needs_snapshot) {
            committedSnapshotOwned_ = cloneCounted(
                *redo, kMainThread, c + 1, committedSnapshotTask_);
            committedSnapshot_ = committedSnapshotOwned_.get();
            committedFinalTask_ =
                reexecute(*redo, redo_snap, end_[c + 1], redo_rng, c + 1);
        } else {
            committedSnapshotOwned_.reset();
            committedSnapshot_ = nullptr;
            committedSnapshotTask_ = kNoTask;
        }
        committedOwned_ = std::move(redo);
        committedFinal_ = committedOwned_.get();
        committedSpeculative_ = false;
    }

    /** Re-executes inputs [from, to) of chunk @p chunk on @p state as
     *  one MispecReExec step, writing the committed outputs; returns
     *  its recorded task id. */
    TaskId
    reexecute(State &state, std::size_t from, std::size_t to,
              util::Rng &rng, unsigned chunk)
    {
        const StepScope step(
            &ph_->reexec,
            obs_.task(TaskKind::MispecReExec, kMainThread, chunk));
        runSpan(model_, state, from, to, rng, result_.outputs.data() + from,
                TaskKind::MispecReExec);
        return step.task();
    }

    const IStateModel &model_;
    const Observer obs_;
    const util::Rng base_;
    const std::size_t n_;
    const unsigned C_, K_, R_;
    const unsigned maxThreads_;
    util::ThreadPool &pool_;
    RuntimeCounters &met_;
    /** Batch spans record under session 0 (obs/span_recorder.h);
     *  purely observational — never changes outputs. */
    obs::SpanRecorder &spans_ = obs::SpanRecorder::global();
    const PhaseHists *ph_; //!< Switched to the pipelined set by
                           //!< runPipelined().
    const std::size_t stateBytes_;

    TaskId setupTask_ = kNoTask;
    std::vector<std::size_t> begin_, end_;
    std::vector<ChunkProducts> chunks_;
    std::vector<BoundaryProducts> boundaries_;
    NativeRuntime::Result result_;
    bool pipelined_ = false;

    // Committed products of the most recently resolved chunk.  Only
    // the boundary-resolution chain touches these; under the pipelined
    // schedule the TaskGraphExecutor's dependency handoff orders that
    // chain across workers.
    const State *committedFinal_ = nullptr;
    StateHandle committedOwned_;
    const State *committedSnapshot_ = nullptr;
    StateHandle committedSnapshotOwned_;
    TaskId committedFinalTask_ = kNoTask;
    TaskId committedSnapshotTask_ = kNoTask;
    bool committedSpeculative_ = true;

    // Barrier-schedule serialization, recorded so the measured graph
    // mirrors that schedule: the phase-1 join (all chunk bodies →
    // first commit task).  Empty under the pipelined schedule, whose
    // explicit data dependencies are its true constraints.
    std::vector<TaskId> joinSources_;
};

} // namespace

const char *
commitProtocolName(CommitProtocol protocol)
{
    return protocol == CommitProtocol::Pipelined ? "pipelined"
                                                 : "barrier";
}

NativeRuntime::NativeRuntime(unsigned max_threads,
                             CommitProtocol protocol)
    : maxThreads(util::ThreadPool::defaultThreadCount(max_threads)),
      protocol_(protocol)
{
}

NativeRuntime::Result
NativeRuntime::runSequential(const IStateModel &model, std::uint64_t seed,
                             trace::MeasuredTraceRecorder *recorder) const
{
    runtimeCounters().sequentialRuns.inc();
    const Observer obs(recorder);
    const auto start = std::chrono::steady_clock::now();
    Result result;
    result.outputs.resize(model.numInputs());
    StateHandle state = model.initialState();
    util::Rng rng = util::Rng(seed).split(1);
    {
        const StepScope body(nullptr,
                             obs.task(TaskKind::ChunkBody, kMainThread));
        runSpan(model, *state, 0, model.numInputs(), rng,
                result.outputs.data(), TaskKind::ChunkBody);
    }
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return result;
}

NativeRuntime::Result
NativeRuntime::run(const IStateModel &model, const StatsConfig &config,
                   std::uint64_t seed,
                   trace::MeasuredTraceRecorder *recorder) const
{
    config.validate(model.numInputs());
    if (!config.useStatsTlp)
        util::fatal("NativeRuntime::run requires useStatsTlp");

    if (config.numChunks == 1) {
        // Degenerate single chunk: the sequential program.
        return runSequential(model, seed, recorder);
    }

    const auto start = std::chrono::steady_clock::now();
    runtimeCounters().statsRuns.inc();
    RunImpl impl(model, config, seed, recorder, maxThreads);
    Result result = protocol_ == CommitProtocol::Pipelined
                        ? impl.runPipelined()
                        : impl.runBarrier();
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    runtimeCounters().commits.inc(result.commits);
    runtimeCounters().aborts.inc(result.aborts);
    phaseHists(protocol_ == CommitProtocol::Pipelined)
        .run.observe(result.wallSeconds);
    return result;
}

} // namespace repro::core
