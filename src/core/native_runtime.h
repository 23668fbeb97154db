/**
 * @file
 * Native (std::thread) STATS runtime.
 *
 * The engine (engine.h) runs the STATS protocol logically and hands
 * timing to the platform simulator, so the figures do not depend on
 * the host's core count (DESIGN.md §2).  NativeRuntime runs the same
 * protocol steps (core/batch_protocol.h) with real threads on the
 * process-wide util::ThreadPool; max_threads caps how many pool
 * executors a run occupies.  Steps and RNG streams are shared, so for
 * any (model, config, seed) the outputs, commits and aborts equal
 * Engine::runStats's, whose pinned digests
 * (tests/core/test_engine_digest.cc) are the independent reference.
 *
 * The two commit protocols (CommitProtocol) schedule those steps:
 *
 *  - Barrier: every chunk body finishes before the first commit check,
 *    then each boundary resolves on the calling thread, regenerating
 *    its replicas from the committed snapshot only when the committed
 *    final state misses.  Both perfbench batch workloads run it, and
 *    on batch-fine's 40 short chunks it outran the pipeline in an
 *    interleaved A/B (ROADMAP.md, item 2).
 *  - Pipelined (default): steps are util::TaskGraphExecutor nodes.
 *    Boundary c resolves once chunks c and c+1 and its replicas are
 *    ready, and its replicas grow eagerly from chunk c's speculative
 *    snapshot while later bodies still run.  Eager replicas of a chunk
 *    that re-executed are discarded (retagged MispecReExec in the
 *    measured trace) and, on a miss, regrown from the re-executed
 *    snapshot on the same streams (DESIGN.md §12).
 *
 * Passing a trace::MeasuredTraceRecorder to run()/runSequential() also
 * records a measured task graph: every protocol step becomes a
 * correctly-kinded trace::Task whose work is its wall-clock duration in
 * microseconds, with edges mirroring the schedule.  Each step is timed
 * once by a core::StepScope, whose clock pair also feeds the step's
 * span and phase histogram.  Recording never changes results (enforced
 * by tests/core).
 */

#ifndef REPRO_CORE_NATIVE_RUNTIME_H
#define REPRO_CORE_NATIVE_RUNTIME_H

#include <cstdint>
#include <vector>

#include "core/config.h"
#include "core/state_model.h"

namespace repro::trace {
class MeasuredTraceRecorder;
} // namespace repro::trace

namespace repro::core {

/** How NativeRuntime::run schedules the commit protocol. */
enum class CommitProtocol : std::uint8_t
{
    /** Two-phase: all chunk bodies, then boundary-by-boundary commit
     *  resolution driven from the calling thread: compare against the
     *  committed final state, regenerate the replicas only when that
     *  misses, compare them, and re-execute on an abort. */
    Barrier,
    /** Dependency-driven: each boundary fires when its inputs are
     *  ready, replicas regenerate eagerly from speculative snapshots,
     *  and all protocol work runs on the shared pool. */
    Pipelined,
};

/** Human-readable protocol name ("barrier" / "pipelined"). */
const char *commitProtocolName(CommitProtocol protocol);

/**
 * Real-thread executor of the STATS execution model.
 */
class NativeRuntime
{
  public:
    /** Outcome of one native run. */
    struct Result
    {
        std::vector<double> outputs; //!< Committed output per input.
        unsigned commits = 0;
        unsigned aborts = 0;
        double wallSeconds = 0.0;    //!< Wall-clock time of the run.
    };

    /**
     * @param max_threads Cap on concurrently active workers; 0 is
     *        resolved by util::ThreadPool::defaultThreadCount (the
     *        hardware concurrency, or 2 when it cannot be queried).
     * @param protocol Commit-protocol schedule; results are
     *        bit-identical either way (tests/core enforce it), only
     *        the overlap structure differs.
     */
    explicit NativeRuntime(unsigned max_threads = 0,
                           CommitProtocol protocol =
                               CommitProtocol::Pipelined);

    /** The commit protocol this runtime schedules. */
    CommitProtocol protocol() const { return protocol_; }

    /**
     * Runs @p model under @p config with real threads.
     *
     * @pre config.useStatsTlp (the native path runs the STATS model;
     *      inner original-TLP fan-out is not re-executed natively —
     *      it parallelizes within update() in the real system).
     *
     * @param recorder When non-null, receives the measured task graph
     *        of this run (see the file comment); results are
     *        unchanged.  The recorder must be fresh (empty).
     */
    Result run(const IStateModel &model, const StatsConfig &config,
               std::uint64_t seed,
               trace::MeasuredTraceRecorder *recorder = nullptr) const;

    /** The sequential program, for output comparison and speedup. */
    Result
    runSequential(const IStateModel &model, std::uint64_t seed,
                  trace::MeasuredTraceRecorder *recorder = nullptr) const;

  private:
    unsigned maxThreads;
    CommitProtocol protocol_;
};

} // namespace repro::core

#endif // REPRO_CORE_NATIVE_RUNTIME_H
