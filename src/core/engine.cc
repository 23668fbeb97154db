#include "core/engine.h"

#include <algorithm>
#include <vector>

#include "core/batch_protocol.h"
#include "core/protocol_steps.h"
#include "util/log.h"

namespace repro::core {

using trace::TaskId;
using trace::TaskKind;
using trace::ThreadId;

namespace {

/** Main/runtime thread id. */
constexpr ThreadId kMainThread = 0;

/**
 * Shared emission helpers: every task added to the graph mirrors an
 * operation of the modeled runtime, and op-counter ticks keep the
 * dynamic-instruction view (Figs. 14/15) consistent with it.
 */
class Emitter
{
  public:
    Emitter(const IStateModel &model, const Engine::Params &params,
            RunResult &result)
        : model_(model), params_(params), r_(result)
    {
    }

    /** Emits a SeqCode task of @p work ops on the main thread. */
    void
    emitSeqCode(double work)
    {
        r_.ops.tick(TaskKind::SeqCode, static_cast<std::uint64_t>(work));
        r_.graph.addTask(TaskKind::SeqCode, kMainThread, work);
    }

    /**
     * Emits a synchronization operation on @p thread.
     * @param extra_work Additional ops the runtime executes at this
     *        synchronization point (e.g. fork/join bookkeeping of the
     *        original TLP).
     */
    TaskId
    emitSync(ThreadId thread, std::int32_t chunk, double extra_work = 0.0)
    {
        r_.ops.tick(TaskKind::Sync, static_cast<std::uint64_t>(
                                        params_.syncOpsProxy + extra_work));
        return r_.graph.addTask(TaskKind::Sync, thread, extra_work, chunk);
    }

    /**
     * Emits a state copy on @p thread whose payload was produced by task
     * @p payload_source (also added as a dependency).
     *
     * @param cloned The clone the task models, when available: its
     *        CloneStats price the task by bytes actually moved (a
     *        block-sharing clone costs refcount bumps, not a payload
     *        copy).  Null falls back to the legacy full-size charge.
     */
    TaskId
    emitCopy(ThreadId thread, std::int32_t chunk, TaskId payload_source,
             const State *cloned = nullptr)
    {
        const std::size_t size = model_.stateSizeBytes();
        const CloneStats stats =
            cloned ? stateCloneStats(*cloned, size) : fullCloneStats(size);
        r_.ops.tick(TaskKind::StateCopy, model_.copyWork(stats));
        // Memory traffic: moved payload bytes plus one header line per
        // shared block (the refcount bump).
        const std::size_t bytes = static_cast<std::size_t>(
            stats.bytesCopied +
            util::BlockArena::kHeaderBytes * stats.blocksShared);
        const TaskId id = r_.graph.addTask(TaskKind::StateCopy, thread,
                                           0.0, chunk, bytes);
        r_.graph.addDep(payload_source, id);
        r_.graph.mutableTask(id).payloadSource = payload_source;
        return id;
    }

    /**
     * Emits @p work as a chain of slices on @p thread (preemption
     * granularity; see Params::taskSlices).
     * @return The last slice's id.
     */
    TaskId
    emitSliced(TaskKind kind, ThreadId thread, std::int32_t chunk,
               double work, TaskId entry_dep,
               std::vector<TaskId> *out_tasks = nullptr)
    {
        const std::size_t slices =
            std::max<std::size_t>(params_.taskSlices, 1);
        TaskId last = 0;
        for (std::size_t s = 0; s < slices; ++s) {
            last = r_.graph.addTask(kind, thread,
                                    work / static_cast<double>(slices),
                                    chunk);
            if (s == 0)
                r_.graph.addDep(entry_dep, last);
            if (out_tasks)
                out_tasks->push_back(last);
        }
        return last;
    }

    /**
     * Emits the task structure of a body span of measured work @p work,
     * optionally fanned out over the original TLP @p tlp (Par. STATS).
     *
     * @param owner Thread owning the span (the chunk thread).
     * @param helpers Helper thread ids for the original TLP (may be
     *        empty: no fan-out, a single task carries the work).
     * @param rounds Fork/join rounds the span is split into.
     * @param kind ChunkBody or MispecReExec.
     * @param entry_dep Task every part of the span must follow.
     * @param body_tasks Collects ids of emitted body-work tasks (for
     *        post-hoc retagging of aborted chunks).
     * @return The id of the last task of the span on @p owner.
     */
    TaskId
    emitBodySpan(ThreadId owner, const std::vector<ThreadId> &helpers,
                 std::int32_t chunk, double work, std::size_t rounds,
                 const TlpModel &tlp, TaskKind kind, TaskId entry_dep,
                 std::vector<TaskId> *body_tasks)
    {
        if (helpers.empty())
            return emitSliced(kind, owner, chunk, work, entry_dep,
                              body_tasks);

        rounds = std::max<std::size_t>(rounds, 1);
        const unsigned width = static_cast<unsigned>(helpers.size()) + 1;
        const double per_round = work / static_cast<double>(rounds);
        const double par_part =
            per_round * tlp.parallelFraction / static_cast<double>(width);
        const double ser_part = per_round * (1.0 - tlp.parallelFraction);

        TaskId prev = entry_dep;
        for (std::size_t round = 0; round < rounds; ++round) {
            const TaskId fork =
                emitSync(owner, chunk, tlp.syncWorkPerRound * 0.5);
            r_.graph.addDep(prev, fork);

            std::vector<TaskId> parts;
            const TaskId own =
                r_.graph.addTask(kind, owner, par_part, chunk);
            parts.push_back(own);
            if (body_tasks)
                body_tasks->push_back(own);
            for (ThreadId h : helpers) {
                const TaskId part =
                    r_.graph.addTask(kind, h, par_part, chunk);
                r_.graph.addDep(fork, part);
                parts.push_back(part);
                if (body_tasks)
                    body_tasks->push_back(part);
            }

            const TaskId join =
                emitSync(owner, chunk, tlp.syncWorkPerRound * 0.5);
            for (TaskId part : parts)
                r_.graph.addDep(part, join);

            const TaskId serial =
                r_.graph.addTask(kind, owner, ser_part, chunk);
            if (body_tasks)
                body_tasks->push_back(serial);
            prev = serial;
        }
        return prev;
    }

  protected:
    const IStateModel &model_;
    const Engine::Params &params_;
    RunResult &r_;
};

/**
 * The DES cost sink: turns each protocol step into the tasks and op
 * counts of the modeled STATS runtime (Figs. 5-7).  Chunk c runs on
 * thread 1 + c from its wake sync, each of its steps following the
 * last one; its inner-TLP helpers and the boundary replicas run on
 * threads after the chunks'.  The commit check and verdict of
 * boundary c run on chunk c's thread, the re-execution of chunk c on
 * its own.
 */
class DesSink : private Emitter
{
  public:
    /** Emits the code before the region, the runtime setup and one
     *  wake per chunk thread. */
    DesSink(const IStateModel &model, const Engine::Params &params,
            const RegionProfile &region, const TlpModel &tlp,
            const StatsConfig &config, unsigned T, RunResult &r)
        : Emitter(model, params, r), region_(region), tlp_(tlp),
          C_(config.numChunks), R_(config.numOriginalStates),
          chunkRounds_(tlp.fanoutRoundsPerChunk
                           ? tlp.fanoutRoundsPerChunk
                           : params.fanoutRoundsPerChunk),
          helpers_(C_), last_(C_), bodyTasks_(C_), bodyWork_(C_, 0.0)
    {
        r_.stateSizeBytes = model.stateSizeBytes();
        emitSeqCode(region.seqBeforeWork);
        const unsigned planned_threads = C_ * T + (C_ - 1) * (R_ - 1);
        const unsigned planned_states = 1 + C_ + (C_ - 1) * (R_ + 1);
        setupWork_ =
            params.setupBaseWork +
            params.setupPerThreadWork * static_cast<double>(planned_threads) +
            params.setupPerStateWork * static_cast<double>(planned_states);
        r_.ops.tick(TaskKind::Setup, static_cast<std::uint64_t>(setupWork_));
        const TaskId setup =
            r_.graph.addTask(TaskKind::Setup, kMainThread, setupWork_);
        initial_ = model.initialState();
        initialCopy_ = emitCopy(kMainThread, trace::kNoChunk, setup);
        // Wake one sync per chunk thread (thread start, Fig. 7).
        for (unsigned c = 0; c < C_; ++c) {
            last_[c] = emitSync(kMainThread, static_cast<std::int32_t>(c));
            for (unsigned j = 0; j + 1 < T; ++j)
                helpers_[c].push_back(1 + C_ + c * (T - 1) + j);
        }
        replicaBase_ = 1 + C_ + C_ * (T - 1);
    }

    /** Emits the join, the teardown and the code after the region, and
     *  fills in @p outcome and the Table I resources. */
    void
    finish(BatchOutcome outcome, unsigned T)
    {
        r_.outputs = std::move(outcome.outputs);
        r_.commits = outcome.commits;
        r_.aborts = outcome.aborts;
        const TaskId join = emitSync(kMainThread, trace::kNoChunk);
        for (unsigned c = 0; c < C_; ++c)
            r_.graph.addDep(last_[c], join);
        r_.graph.addDep(verdict_, join);
        const double teardown_work = setupWork_ * params_.teardownFraction;
        r_.ops.tick(TaskKind::Setup,
                    static_cast<std::uint64_t>(teardown_work));
        r_.graph.addTask(TaskKind::Setup, kMainThread, teardown_work);
        emitSeqCode(region_.seqAfterWork);

        r_.threadsCreated = static_cast<unsigned>(r_.graph.numThreads()) - 1;
        // Table I semantics: small states are replicated per worker
        // thread (each inner-TLP worker keeps a private copy), and each
        // boundary replica owns one more; a large state (bodytrack's
        // 500 KB) is shared within its chunk, so only the per-chunk
        // working states remain.
        if (model_.stateSizeBytes() < params_.perThreadStateCopyLimit)
            r_.statesCreated = C_ * T + (C_ - 1) * (R_ - 1);
        else
            r_.statesCreated = C_;
        for (const double w : bodyWork_)
            r_.bodyWork += w;
    }

    trace::OpCounter *ops() { return &r_.ops; }
    obs::SpanRecorder *spans() { return nullptr; }
    StepScope resolveScope() { return StepScope(nullptr); }

    StateHandle
    firstChunkState(const IStateModel &)
    {
        StateHandle working = initial_->clone();
        const TaskId copy = emitCopy(1, 0, initialCopy_, working.get());
        r_.graph.addDep(last_[0], copy);
        last_[0] = copy;
        return working;
    }

    template <typename F>
    StepDone
    run(const Step &s, const std::optional<obs::Span> &, F &&work)
    {
        const double w = work();
        const auto chunk = static_cast<std::int32_t>(s.chunk);
        if (s.kind == Step::Replica)
            return {emitSliced(TaskKind::OriginalStateGen,
                               replicaThread(s), chunk, w, replicaStart_),
                    {}};
        TaskId &last = last_[s.chunk];
        if (s.kind == Step::Alt) {
            last = emitSliced(TaskKind::AltProducer, 1 + s.chunk, chunk, w,
                              last);
            return {last, {}};
        }
        // A body segment, fanned out over the chunk's inner TLP: the
        // first segment of an execution takes the chunk's fork/join
        // rounds, the one after the snapshot a single round.
        const bool spec = s.kind == Step::Body || s.kind == Step::BodyTail;
        const bool head = s.kind == Step::Body || s.kind == Step::Reexec;
        if (spec)
            bodyWork_[s.chunk] += w;
        last = emitBodySpan(
            1 + s.chunk, helpers_[s.chunk], chunk, w,
            head ? chunkRounds_ : 1, tlp_,
            spec ? TaskKind::ChunkBody : TaskKind::MispecReExec, last,
            spec ? &bodyTasks_[s.chunk] : nullptr);
        return {last, {}};
    }

    StateHandle
    copy(const Step &s, const State &source, TaskId &id)
    {
        StateHandle copy = source.clone();
        const auto chunk = static_cast<std::int32_t>(s.chunk);
        if (s.kind == Step::ReplicaCopy) {
            // The wake and start copy live on the replica thread so the
            // replicas overlap the tail of the chunk body, as in Fig. 5.
            const TaskId wake = emitSync(replicaThread(s), chunk);
            r_.graph.addDep(s.source, wake);
            id = emitCopy(replicaThread(s), chunk, s.source, copy.get());
            r_.graph.addDep(wake, id);
            replicaStart_ = id;
            return copy;
        }
        id = emitCopy(1 + s.chunk, chunk, s.source, copy.get());
        if (s.kind == Step::SpecCopy) {
            // The hand-off signal the commit check waits for.
            const TaskId copied = id;
            id = emitSync(1 + s.chunk, chunk);
            r_.graph.addDep(copied, id);
        } else if (s.kind == Step::RedoCopy) {
            r_.graph.addDep(verdict_, id);
        }
        last_[s.chunk] = id;
        return copy;
    }

    template <typename F>
    bool
    compare(const CompareStep &s, F &&match, TaskId &id)
    {
        // Priced before matches(), which warms the summary caches the
        // price reads: pricing afterwards would see warm sides and
        // under-charge the first cold compare.
        const std::uint64_t work =
            s.original ? model_.compareWork(s.spec, *s.original)
                       : model_.compareWork();
        const std::uint64_t bytes =
            s.original ? model_.compareBytes(s.spec, *s.original)
                       : model_.stateSizeBytes();
        r_.ops.tick(TaskKind::StateCompare, work);
        id = r_.graph.addTask(TaskKind::StateCompare, 1 + s.boundary, 0.0,
                              static_cast<std::int32_t>(s.boundary),
                              static_cast<std::size_t>(bytes));
        if (s.candidate < 0) {
            r_.graph.addDep(s.committedTask, id);
            r_.graph.addDep(s.specTask, id);
            for (const TaskId rt : s.replicaTasks)
                r_.graph.addDep(rt, id);
        }
        lastCompare_ = id;
        return match();
    }

    /** The verdict signal (Fig. 7) chains in program order (§II-B);
     *  an aborted speculation's body becomes mispeculation. */
    void
    resolved(unsigned boundary, bool committed,
             std::initializer_list<TaskId>)
    {
        const TaskId verdict =
            emitSync(1 + boundary, static_cast<std::int32_t>(boundary));
        r_.graph.addDep(lastCompare_, verdict);
        if (boundary > 0)
            r_.graph.addDep(verdict_, verdict);
        verdict_ = verdict;
        if (committed)
            return;
        for (const TaskId id : bodyTasks_[boundary + 1])
            retag(id, TaskKind::MispecReExec);
        r_.ops.transfer(TaskKind::ChunkBody, TaskKind::MispecReExec,
                        static_cast<std::uint64_t>(bodyWork_[boundary + 1]));
    }

    void
    retag(TaskId id, TaskKind kind)
    {
        r_.graph.mutableTask(id).kind = kind;
    }

  private:
    ThreadId
    replicaThread(const Step &s) const
    {
        return replicaBase_ + s.chunk * (R_ - 1) + s.rep;
    }

    const RegionProfile &region_;
    const TlpModel &tlp_;
    const unsigned C_, R_;
    const std::size_t chunkRounds_;
    double setupWork_ = 0.0;
    StateHandle initial_;
    TaskId initialCopy_ = 0;
    ThreadId replicaBase_ = 0;
    std::vector<std::vector<ThreadId>> helpers_; //!< Inner TLP per chunk.
    std::vector<TaskId> last_; //!< Per chunk: its thread's last task.
    std::vector<std::vector<TaskId>> bodyTasks_; //!< For abort retags.
    std::vector<double> bodyWork_; //!< Speculative body work per chunk.
    TaskId replicaStart_ = 0; //!< Start copy of the replica being grown.
    TaskId lastCompare_ = 0;
    TaskId verdict_ = 0;
};

} // namespace

RunResult
Engine::runSequential(const IStateModel &model, const RegionProfile &region,
                      std::uint64_t seed) const
{
    return runOriginalTlp(model, region, TlpModel{}, 1, seed);
}

RunResult
Engine::runOriginalTlp(const IStateModel &model, const RegionProfile &region,
                       const TlpModel &tlp, unsigned threads,
                       std::uint64_t seed) const
{
    if (threads == 0)
        util::fatal("runOriginalTlp: threads must be >= 1");
    const unsigned width = std::min(threads, tlp.maxThreads);

    RunResult r;
    r.stateSizeBytes = model.stateSizeBytes();
    r.outputs.assign(model.numInputs(), 0.0);
    Emitter emit(model, params_, r);

    emit.emitSeqCode(region.seqBeforeWork);

    // The logical computation is the sequential one: the original TLP
    // parallelizes within the processing of one input, while the state
    // dependence keeps the input chain sequential (paper §II-A).
    StateHandle state = model.initialState();
    r.statesCreated = 1;
    util::Rng rng = util::Rng(seed).split(1);
    const double work =
        runSpan(model, *state, 0, model.numInputs(), rng, r.outputs.data(),
                TaskKind::ChunkBody, &r.ops);
    r.bodyWork = work;

    if (width == 1) {
        r.graph.addTask(TaskKind::ChunkBody, kMainThread, work);
    } else {
        std::vector<ThreadId> helpers;
        for (unsigned h = 1; h < width; ++h)
            helpers.push_back(static_cast<ThreadId>(h));
        const std::size_t rounds =
            std::min<std::size_t>(std::max<std::size_t>(model.numInputs(),
                                                        1),
                                  params_.tlpRoundsCap);
        const TaskId entry = emit.emitSync(kMainThread, trace::kNoChunk);
        emit.emitBodySpan(kMainThread, helpers, trace::kNoChunk, work,
                          rounds, tlp, TaskKind::ChunkBody, entry, nullptr);
        r.threadsCreated = width - 1;
    }

    emit.emitSeqCode(region.seqAfterWork);
    return r;
}

RunResult
Engine::runStats(const IStateModel &model, const RegionProfile &region,
                 const TlpModel &tlp, const StatsConfig &config,
                 std::uint64_t seed, bool force_all_commit) const
{
    config.validate(model.numInputs());
    if (!config.useStatsTlp) {
        return runOriginalTlp(model, region, tlp, config.innerTlpThreads,
                              seed);
    }
    if (config.numChunks == 1) {
        // A single chunk degenerates to the sequential program.
        return runSequential(model, region, seed);
    }

    // Every chunk's speculation, then the in-order commit of boundaries
    // 0..C-2, replicas regenerated before each check as in the paper.
    const unsigned T = std::min(config.innerTlpThreads, tlp.maxThreads);
    RunResult r;
    DesSink sink(model, params_, region, tlp, config, T, r);
    BatchProtocol<DesSink> protocol(model, config, seed, sink,
                           ReplicaPlacement::BeforeCheck, nullptr, 0,
                           force_all_commit);
    for (unsigned c = 0; c < config.numChunks; ++c) {
        protocol.speculateToSnapshot(c);
        if (c + 1 < config.numChunks)
            protocol.speculateAfterSnapshot(c);
    }
    for (unsigned c = 0; c + 1 < config.numChunks; ++c)
        protocol.resolveBoundary(c);
    sink.finish(protocol.takeOutcome(), T);

    REPRO_ASSERT(r.graph.isAcyclic(), "STATS engine emitted a cyclic graph");
    return r;
}

} // namespace repro::core
