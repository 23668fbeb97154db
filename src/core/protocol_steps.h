/**
 * @file
 * The protocol steps batch and serving STATS share: the batch protocol
 * (core/batch_protocol.h, behind the engine and the native runtime)
 * and the serving session pipeline (serving/session_pipeline.h) run
 * the same update loop, take chunk snapshots at the same point, and
 * attribute an abort by the same rules, so a closure trace that
 * matches the batch boundaries reproduces the batch run bit for bit —
 * and its abort reports field for field, timings aside.
 */

#ifndef REPRO_CORE_PROTOCOL_STEPS_H
#define REPRO_CORE_PROTOCOL_STEPS_H

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "core/state_model.h"
#include "obs/abort_report.h"
#include "obs/span.h"
#include "util/rng.h"

namespace repro::core {

/**
 * Runs updates [from, to) on @p state with @p rng, writing update i's
 * output to outs[i - from] when @p outs is non-null.  @p kind is the
 * category the computation belongs to in the overhead taxonomy
 * (ChunkBody for useful work, AltProducer for speculative replays,
 * OriginalStateGen for boundary replicas, MispecReExec for abort
 * re-execution).  @p rng continues where the loop left it.
 *
 * When @p ops is non-null the updates tick it under @p kind, and the
 * bytes copy-on-write materialized during the loop are charged back to
 * StateCopy (clones defer their copies into the first writes; zero
 * under Deep versioning).
 * @return The ops the updates ticked.
 */
double runSpan(const IStateModel &model, State &state, std::size_t from,
               std::size_t to, util::Rng &rng, double *outs,
               trace::TaskKind kind, trace::OpCounter *ops = nullptr);

/** The snapshot point of chunk [begin, end): end - K clamped into the
 *  chunk.  Replicas of the boundary after the chunk replay
 *  [snapshot, end) from the state there. */
inline std::size_t
snapshotPoint(std::size_t begin, std::size_t end, std::size_t K)
{
    return end - begin > K ? end - K : begin;
}

/**
 * Attributes one aborted boundary: the first half of its root-cause
 * report.  Call it at the commit check, while every candidate is
 * still alive; fileAbort() records the result once the aborted chunk
 * is known in full.
 *
 * Comparisons are listed in check order — @p committed first, then
 * @p replicas — with the block where @p spec diverged from each.  The
 * headline is the candidate the byte walk got furthest into, ties
 * going to the later candidate so a replica is named over the
 * committed final state.  Wasted time follows §V-B: @p alt and
 * @p bodies are mispeculation, @p replica_spans and the compares
 * extra computation; the wall interval of the replica fan-out that
 * @p validation encloses (replica spans parented on it) is taken out
 * of the validation time, so the two terms stay disjoint.  The
 * report's identity fields are left for fileAbort().
 */
obs::AbortReport attributeAbort(const State &spec, const State &committed,
                                const std::vector<StateHandle> &replicas,
                                const obs::Span &validation,
                                const std::vector<obs::Span> &replica_spans,
                                const obs::Span &alt,
                                std::initializer_list<obs::Span> bodies = {});

/**
 * Records @p report in obs::AbortLog::global(), taking its session,
 * chunk, input range and span id from @p abort — the second half of
 * the root-cause report.  An untraced abort (span id 0) records
 * nothing, so callers attribute only traced aborts.
 */
void fileAbort(obs::AbortReport report, const obs::Span &abort);

} // namespace repro::core

#endif // REPRO_CORE_PROTOCOL_STEPS_H
