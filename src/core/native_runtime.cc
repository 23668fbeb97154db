#include "core/native_runtime.h"

#include <chrono>

#include "core/batch_protocol.h"
#include "core/protocol_steps.h"
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

/**
 * The native cost sink: one StepScope per step feeds the step's span,
 * its phase histogram and, when a recorder is attached, its measured
 * task (the §V-B measured graph), with dependency edges mirroring the
 * schedule.  Copies and compares also count into the always-on
 * counters.  Chunk c's speculation records on logical thread 1 + c,
 * the replicas after the chunks, everything else on kMainThread.
 */
class NativeSink
{
  public:
    NativeSink(trace::MeasuredTraceRecorder *recorder,
               const StatsConfig &config, std::size_t state_bytes,
               bool pipelined)
        : rec_(recorder), ph_(phaseHists(pipelined)),
          met_(runtimeCounters()), C_(config.numChunks),
          R_(config.numOriginalStates), stateBytes_(state_bytes)
    {
        const StepScope setup(nullptr, task(TaskKind::Setup, kMainThread));
        setupTask_ = setup.task();
    }

    bool recording() const { return rec_ != nullptr; }

    /** Records the barrier's join: a Sync task costing the caller's
     *  measured wait, fed by every chunk body and gating the first
     *  commit check, so the measured graph mirrors the barrier (the
     *  what-if replay would otherwise credit it with overlap it never
     *  had, and the §V-B ladder's synchronization step would have
     *  nothing to remove). */
    void
    join(double wait_seconds, const BatchProtocol<NativeSink> &protocol)
    {
        if (!rec_)
            return;
        join_ = rec_->addMeasured(TaskKind::Sync, kMainThread,
                                  wait_seconds * 1e6);
        for (unsigned c = 0; c < C_; ++c)
            dep(protocol.bodyLast(c), join_);
    }

    trace::OpCounter *ops() { return nullptr; }
    obs::SpanRecorder *spans() { return &obs::SpanRecorder::global(); }

    StepScope
    resolveScope()
    {
        return StepScope(&ph_.boundaryResolve);
    }

    StateHandle
    firstChunkState(const IStateModel &model)
    {
        return model.initialState();
    }

    template <typename F>
    StepDone
    run(const Step &s, const std::optional<obs::Span> &span, F &&work)
    {
        const bool redo = s.kind == Step::Reexec || s.kind == Step::ReexecTail;
        const bool replica = s.kind == Step::Replica;
        metrics::LatencyHistogram &hist =
            s.kind == Step::Alt ? ph_.altProducer
            : replica           ? ph_.replicaGen
            : redo              ? ph_.reexec
                                : ph_.chunkBody;
        const TaskKind kind = s.kind == Step::Alt ? TaskKind::AltProducer
                              : replica ? TaskKind::OriginalStateGen
                              : redo    ? TaskKind::MispecReExec
                                        : TaskKind::ChunkBody;
        StepScope step(&hist, task(kind, thread(s), s.chunk), span);
        if (s.kind == Step::Alt || (s.kind == Step::Body && s.chunk == 0))
            dep(setupTask_, step.task());
        if (replica)
            met_.replicaRegens.inc();
        work();
        return {step.task(), step.finish()};
    }

    /** Block-state payloads report the bytes the clone actually moved
     *  (zero for a pure block-sharing copy-on-write clone). */
    StateHandle
    copy(const Step &s, const State &source, TaskId &id)
    {
        const StepScope step(&ph_.stateCopy,
                             task(TaskKind::StateCopy, thread(s), s.chunk));
        id = step.task();
        met_.stateCopies.inc();
        StateHandle copy = source.clone();
        met_.stateCopyBytes.inc(
            copy->payload() ? copy->payload()->creationStats().bytesCopied
                            : stateBytes_);
        if (s.kind == Step::ReplicaCopy || s.kind == Step::RedoCopy) {
            dep(s.source, id);
            dep(s.after, id);
        }
        return copy;
    }

    template <typename F>
    bool
    compare(const CompareStep &s, F &&match, TaskId &id)
    {
        const StepScope step(
            &ph_.compare,
            task(TaskKind::StateCompare, kMainThread, s.boundary));
        id = step.task();
        if (s.candidate >= 0) {
            dep(s.replicaTasks[s.candidate], id);
        } else {
            dep(s.committedTask, id);
            dep(s.specTask, id);
            for (const TaskId rt : s.replicaTasks)
                dep(rt, id);
            dep(join_, id); // Barrier: the commit phase follows the join.
            join_ = kNoTask;
        }
        met_.compares.inc();
        const bool matched = match();
        (matched ? met_.matches : met_.mismatches).inc();
        return matched;
    }

    void
    resolved(unsigned, bool committed,
             std::initializer_list<TaskId> bodies)
    {
        if (!committed)
            for (const TaskId body : bodies)
                retag(body, TaskKind::MispecReExec);
    }

    void
    retag(TaskId id, TaskKind kind)
    {
        if (rec_ && id != kNoTask)
            rec_->retag(id, kind);
    }

  private:
    /** The measured task of a step (recorded only when attached). */
    StepTask
    task(TaskKind kind, ThreadId thread,
         std::int32_t chunk = trace::kNoChunk) const
    {
        return {rec_, kind, thread, chunk};
    }

    void
    dep(TaskId before, TaskId after) const
    {
        if (rec_ && before != kNoTask && after != kNoTask)
            rec_->addDep(before, after);
    }

    ThreadId
    thread(const Step &s) const
    {
        switch (s.kind) {
        case Step::Replica:
        case Step::ReplicaCopy:
            return 1 + C_ + s.chunk * (R_ - 1) + s.rep;
        case Step::Reexec:
        case Step::ReexecTail:
        case Step::RedoCopy:
        case Step::RedoSnapshotCopy:
            return kMainThread;
        default:
            return 1 + s.chunk;
        }
    }

    trace::MeasuredTraceRecorder *const rec_;
    const PhaseHists &ph_;
    RuntimeCounters &met_;
    const unsigned C_, R_;
    const std::size_t stateBytes_;
    TaskId setupTask_ = kNoTask;
    TaskId join_ = kNoTask; //!< Barrier join, until the first compare.
};

using Protocol = BatchProtocol<NativeSink>;

/** Two-phase schedule: every chunk body behind one parallelFor barrier,
 *  then each boundary on the calling thread, replicas regenerated only
 *  when the committed final state misses. */
void
runBarrier(Protocol &protocol, NativeSink &sink, unsigned max_threads)
{
    const unsigned C = protocol.numChunks();
    double join_wait = 0.0;
    util::ThreadPool::global().parallelFor(
        C,
        [&](std::size_t chunk) {
            const unsigned c = static_cast<unsigned>(chunk);
            protocol.speculateToSnapshot(c);
            if (c + 1 < C)
                protocol.speculateAfterSnapshot(c);
        },
        max_threads, 0, sink.recording() ? &join_wait : nullptr);
    sink.join(join_wait, protocol);
    for (unsigned c = 0; c + 1 < C; ++c)
        protocol.resolveBoundary(c);
}

/**
 * Dependency-driven schedule: chunk spans, eager replicas and boundary
 * resolutions become TaskGraphExecutor nodes that fire as soon as
 * their predecessors finish.  Boundary c needs chunks c and c+1 and
 * its replicas, never the chunks beyond, so commits overlap downstream
 * speculation.
 */
void
runPipelined(Protocol &protocol, unsigned R, unsigned max_threads)
{
    using NodeId = util::TaskGraphExecutor::NodeId;
    const unsigned C = protocol.numChunks();
    Protocol *p = &protocol;
    util::TaskGraphExecutor exec(util::ThreadPool::global(), max_threads);

    // Chunk c splits at its snapshot, so boundary c's replicas grow
    // from the speculative snapshot while later bodies still run.
    std::vector<NodeId> head(C), tail(C);
    std::vector<std::vector<NodeId>> replicas(C);
    for (unsigned c = 0; c < C; ++c) {
        head[c] = exec.add([p, c] { p->speculateToSnapshot(c); });
        tail[c] = head[c];
        if (c + 1 == C)
            break;
        tail[c] = exec.add([p, c] { p->speculateAfterSnapshot(c); },
                           {head[c]});
        for (unsigned rep = 0; rep + 1 < R; ++rep)
            replicas[c].push_back(exec.add(
                [p, c, rep] { p->generateEagerReplica(c, rep); }, {head[c]}));
    }
    // Boundary c fires after boundary c-1 (program order), chunk c+1
    // and its replicas.
    NodeId prev = tail[0];
    for (unsigned c = 0; c + 1 < C; ++c) {
        std::vector<NodeId> deps = replicas[c];
        deps.insert(deps.begin(), {prev, tail[c + 1]});
        prev = exec.add([p, c] { p->resolveBoundary(c); }, deps);
    }
    exec.wait();
}

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
    const auto start = std::chrono::steady_clock::now();
    Result result;
    result.outputs.resize(model.numInputs());
    StateHandle state = model.initialState();
    util::Rng rng = util::Rng(seed).split(1);
    {
        const StepScope body(
            nullptr, {recorder, TaskKind::ChunkBody, kMainThread});
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
    const bool pipelined = protocol_ == CommitProtocol::Pipelined;
    NativeSink sink(recorder, config, model.stateSizeBytes(), pipelined);
    Protocol protocol(model, config, seed, sink,
                      pipelined ? ReplicaPlacement::Eager
                                : ReplicaPlacement::OnMiss,
                      &util::ThreadPool::global(), maxThreads);
    if (pipelined)
        runPipelined(protocol, config.numOriginalStates, maxThreads);
    else
        runBarrier(protocol, sink, maxThreads);
    BatchOutcome outcome = protocol.takeOutcome();
    Result result;
    result.outputs = std::move(outcome.outputs);
    result.commits = outcome.commits;
    result.aborts = outcome.aborts;
    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    runtimeCounters().commits.inc(result.commits);
    runtimeCounters().aborts.inc(result.aborts);
    phaseHists(pipelined).run.observe(result.wallSeconds);
    return result;
}

} // namespace repro::core
