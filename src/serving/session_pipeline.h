/**
 * @file
 * The STATS protocol of one serving session, fed chunk-by-chunk as
 * its inputs arrive.
 *
 * NativeRuntime::run (core/native_runtime.h) executes the protocol in
 * batch: all chunk boundaries are known up front because the whole
 * input vector is.  A serving session learns its boundaries one at a
 * time — the runtime closes a chunk when it reaches the configured
 * size or when its age exceeds the session's latency budget — so the
 * protocol must run *incrementally*.  Because a session's chunks run
 * one at a time, the previous boundary is always committed before the
 * next chunk's first input arrives, so the pipeline checks before it
 * speculates: the alternative producer builds the chunk's entry state,
 * the commit check compares it against the committed final state and,
 * only on that miss, regenerates the previous boundary's
 * original-state replicas and compares them in order; then either the
 * chunk body runs from the checked entry state and commits, or — on an
 * abort, without ever running the speculative body — the chunk
 * re-executes from the committed state.
 *
 * None of that waits for the chunk to close.  The only thing a
 * chunk's close decides is its end, and with it the snapshot point
 * end - K the next boundary's replicas regenerate from.  So the
 * pipeline runs a chunk in two calls:
 *  - advance(queued) while the chunk fills: the first call *begins*
 *    the chunk (alt producer, commit check, replica fan-out on a miss,
 *    and the choice of entry state and stream); every call runs the
 *    body (or re-execution) over the inputs up to start + queued - K.
 *    However many inputs the chunk ends up with, that point never
 *    passes its snapshot point, so no state is ever rolled back;
 *  - processChunk(count) at the close: begins the chunk if no advance
 *    did, runs up to the snapshot point, takes the snapshot, runs to
 *    the end and commits.  Called alone it runs the whole chunk.
 *
 * Determinism contract: the update loop and the snapshot point are the
 * batch runtime's own (core/protocol_steps.h), every RNG stream is
 * derived exactly as the batch runtime derives it (the ids of
 * core/rng_streams.h: body body(c), alt producer alt(c), replica
 * replica(c-1, rep), re-execution reexec(c)), and the commit check
 * compares against the committed final state first and then, only if
 * that missed, each replica in order.  Therefore, for a fixed (model,
 * seed) and a fixed *closure trace* (the sequence of chunk sizes), the
 * outputs, commit decisions, and abort count are a pure function of
 * that trace — independent of wall-clock timing, of which closure
 * mechanism (size, deadline, drain, manual) produced each boundary,
 * and of how many sessions share the pool.  When the trace matches the
 * batch runtime's boundaries (inputs split n*c/C) the outputs are
 * bit-identical to NativeRuntime::run for the same (model, config,
 * seed), across both commit protocols and both StateVersioning modes
 * — the oracle tests in tests/serving pin this.
 *
 * Structural differences from batch, none of which can change outputs
 * (every stream is keyed by chunk index, never by when it runs):
 *  - every chunk takes an end-of-chunk snapshot (the batch runtime
 *    skips the last chunk's, but a stream never knows which chunk is
 *    last — a clone consumes no RNG and does not perturb the state);
 *  - replicas regenerate from the *committed* snapshot (the batch
 *    pipelined schedule launches them eagerly from speculative
 *    snapshots, but discards and regenerates them with the same
 *    streams whenever that snapshot failed to commit, so the surviving
 *    replica states are identical);
 *  - replicas regenerate only when the committed final state does not
 *    match — as in the batch barrier schedule; the batch pipelined
 *    schedule also grows them eagerly, but an unread replica feeds
 *    nothing, so skipping it is unobservable;
 *  - the commit check runs before the chunk body, which then runs from
 *    the checked entry state itself instead of a clone of it; an
 *    aborting chunk skips its speculative body (whose outputs batch
 *    computes and discards) and re-executes on the committed final
 *    state it replaces instead of on a clone;
 *  - the body may run in several segments (one per advance() call and
 *    a last one at the close); the update loop carries its RNG from
 *    one segment to the next, so the split cannot change an output.
 *
 * Threading: a pipeline instance is single-strand — the serving
 * runtime guarantees at most one advance() or processChunk() call is
 * in flight per session, and calls them from whichever pool thread
 * runs the session's strand.  Replica regeneration inside a call may
 * fan out on the shared ThreadPool when more than one replica is
 * needed (replicas are independent and write disjoint slots; the
 * comparisons that consume them stay sequential), which is the only
 * intra-session parallelism — cross-session parallelism is the serving
 * runtime's job.
 */

#ifndef REPRO_SERVING_SESSION_PIPELINE_H
#define REPRO_SERVING_SESSION_PIPELINE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/state_model.h"
#include "obs/abort_report.h"
#include "obs/span.h"
#include "util/rng.h"

namespace repro::util {
class ThreadPool;
} // namespace repro::util

namespace repro::serving {

/**
 * Incremental executor of the STATS protocol over one input stream.
 */
class SessionPipeline
{
  public:
    /** The per-dependence STATS parameters a session carries (the
     *  chunk length is not here — it is the closure trace). */
    struct Config
    {
        /** Inputs the alternative producer replays before a chunk
         *  (clamped to the stream start for very early chunks). */
        unsigned altWindowK = 2;

        /** Original states per boundary including the chunk's own
         *  final state (>= 1); R-1 replicas are regenerated when the
         *  committed final state does not match. */
        unsigned numOriginalStates = 1;
    };

    /** Outcome of one processed chunk. */
    struct ChunkResult
    {
        unsigned chunkIndex = 0;  //!< 0-based position in the stream.
        std::size_t firstInput = 0; //!< Stream index of outputs[0].
        bool aborted = false;     //!< Commit check rejected; outputs
                                  //!< are from the re-execution.
        std::vector<double> outputs; //!< One per input of the chunk.
    };

    /**
     * @param model State dependence; must outlive the pipeline.
     * @param config STATS parameters of this session.
     * @param seed Base seed — the same value an equivalent batch
     *        NativeRuntime::run would be given.
     * @param pool Optional pool for replica fan-out (null = serial;
     *        results are bit-identical either way).
     */
    SessionPipeline(const core::IStateModel &model, Config config,
                    std::uint64_t seed,
                    util::ThreadPool *pool = nullptr);

    /**
     * Progresses the open chunk while it fills, given that @p queued
     * of its inputs (indices [nextInput(), nextInput() + queued)) have
     * arrived.  The first call for a chunk begins it: alt producer
     * (chunk > 0), commit check, replica fan-out on a miss, and the
     * entry state and stream — body(c) from the checked state, or
     * reexec(c) from the committed final state on an abort.  Every
     * call runs the body over the inputs up to
     * nextInput() + queued - K and no further, which no closure can
     * put past the chunk's snapshot point.  Optional: processChunk()
     * does whatever no advance() did.
     * @pre queued >= 1, queued never exceeds the chunk's final count,
     *      and the inputs stay within the model's input range.
     */
    void advance(std::size_t queued);

    /**
     * Closes the open chunk at @p count inputs (indices
     * [nextInput(), nextInput() + count)): begins it if no advance()
     * did, runs up to its snapshot point, takes the snapshot, runs to
     * its end and commits.  @pre count >= 1, count is at least every
     * @p queued an advance() of this chunk saw, and the chunk stays
     * within the model's input range.
     */
    ChunkResult processChunk(std::size_t count);

    /**
     * Swaps the STATS parameters at the current chunk boundary: the
     * next chunk runs with @p config.  Must only be called before a
     * chunk begins — between processChunk() and the next chunk's first
     * advance() (asserted) — which preserves the determinism contract:
     * every RNG stream is derived from the chunk *index*, never from K
     * or R, so a run is a pure function of (model, seed, closure trace,
     * knob trace) and a recorded knob trace replays bit-identically.
     */
    void reconfigure(Config config);

    /** Whether the open chunk has begun (an advance() ran since the
     *  last processChunk()); its config is then frozen. */
    bool begun() const { return open_.state != nullptr; }

    /** The STATS parameters the next chunk will run with. */
    const Config &config() const { return cfg_; }

    /** Stream index the next chunk starts at. */
    std::size_t nextInput() const { return nextInput_; }

    /** Chunks processed so far (== the next chunk's index). */
    unsigned chunksProcessed() const { return chunkIndex_; }

    /**
     * Trace identity the next advance() or processChunk() call records
     * its spans under: the serving session id and the strand's
     * chunk-process span (obs/span_recorder.h).  Zeroes (the default)
     * mean "batch / untraced caller" — spans still record, as roots.
     * Purely observational: never changes outputs.
     */
    void
    setTraceContext(std::uint64_t session, std::uint64_t parentSpan)
    {
        traceSession_ = session;
        traceParent_ = parentSpan;
    }

    /** Boundaries whose commit check accepted the speculation. */
    unsigned commits() const { return commits_; }

    /** Boundaries that aborted and re-executed. */
    unsigned aborts() const { return aborts_; }

    /**
     * Releases the committed state and snapshot, and a begun chunk's
     * working state (BlockArena payloads drop their references).
     * Called at session eviction or shutdown; the pipeline must not
     * process further chunks afterwards.
     */
    void releaseState();

  private:
    /** The chunk between its begin and its close. */
    struct OpenChunk
    {
        /** Commit span detail: matched candidate (-1 committed final,
         *  >= 0 replica), or -2 for an abort. */
        std::int64_t matched = -1;
        /** Runs the body / re-execution; null until the chunk begins. */
        core::StateHandle state;
        util::Rng rng{};             //!< body(c) or reexec(c), carried.
        std::size_t ranTo = 0;       //!< Stream index state has reached.
        std::vector<double> outputs; //!< Of inputs [start, ranTo).
        /** Abort only: the Abort span, open from the check to the
         *  close, and the report attributed at the check — both get
         *  their input count at the close. */
        obs::Span abort;
        obs::AbortReport report;
    };

    /** Begins the open chunk; @p count is its input count when known
     *  (processChunk), 0 while it still fills. */
    void begin(std::uint32_t count);

    /** Runs the open chunk's state on to stream index @p to. */
    void runTo(std::size_t to);

    /** Opens the span of one body / re-execution segment ending at
     *  @p to. */
    obs::Span startSegment(std::size_t to) const;

    /** Installs the committed products of the chunk just resolved. */
    void commitChunk(core::StateHandle final_state,
                     core::StateHandle snapshot, std::size_t snap,
                     std::size_t end);

    const core::IStateModel &model_;
    Config cfg_; //!< Mutable only through reconfigure(), at boundaries.
    const util::Rng base_;
    util::ThreadPool *pool_;

    std::size_t nextInput_ = 0;
    unsigned chunkIndex_ = 0;
    unsigned commits_ = 0;
    unsigned aborts_ = 0;
    std::uint64_t traceSession_ = 0; //!< See setTraceContext().
    std::uint64_t traceParent_ = 0;

    // Committed products of the most recently resolved chunk: the
    // final state feeds the next commit check (and abort re-execution),
    // the snapshot feeds the next boundary's replica regeneration.
    core::StateHandle committedFinal_;
    core::StateHandle committedSnapshot_;
    std::size_t committedSnapStart_ = 0; //!< Snapshot's input index.
    std::size_t committedEnd_ = 0;       //!< End of the committed chunk.

    OpenChunk open_;
};

} // namespace repro::serving

#endif // REPRO_SERVING_SESSION_PIPELINE_H
