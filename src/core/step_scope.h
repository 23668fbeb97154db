/**
 * @file
 * One timed step of the STATS protocol, measured once for every sink.
 *
 * A protocol step — an alt-producer replay, a chunk body, a state
 * copy, a replica regeneration, a compare, a re-execution — can be
 * observed three ways: as an obs::Span (which one), as a sample of a
 * metrics phase histogram (how much), and, when a run is recorded, as
 * a trace::MeasuredTraceRecorder task (the §V-B measured graph).  A
 * StepScope reads the steady clock once when it opens and once when
 * it closes, and writes that one pair of timestamps to every sink the
 * step has, so the three views of a step agree to the nanosecond.
 * With spans and metrics disabled and no recorder attached it reads
 * no clock at all.
 */

#ifndef REPRO_CORE_STEP_SCOPE_H
#define REPRO_CORE_STEP_SCOPE_H

#include <chrono>
#include <cstdint>
#include <optional>

#include "obs/span.h"
#include "trace/task.h"

namespace repro::metrics {
class LatencyHistogram;
} // namespace repro::metrics

namespace repro::trace {
class MeasuredTraceRecorder;
} // namespace repro::trace

namespace repro::core {

/** Sentinel for "no recorded task". */
constexpr trace::TaskId kNoTask = static_cast<trace::TaskId>(-1);

/** The measured task a step records when a recorder is attached. */
struct StepTask
{
    trace::MeasuredTraceRecorder *recorder = nullptr; //!< null: none.
    trace::TaskKind kind = trace::TaskKind::ChunkBody;
    trace::ThreadId thread = 0;
    std::int32_t chunk = trace::kNoChunk;
};

/**
 * RAII bracket of one protocol step.  The step closes at finish() or
 * at the end of the scope, whichever comes first.
 */
class StepScope
{
  public:
    using Clock = std::chrono::steady_clock;

    /**
     * Opens the step now.
     * @param hist Phase histogram that receives the step's duration
     *        (null: none; skipped while metrics are disabled).
     * @param task Measured task to record (no recorder: none).
     * @param span Identity of the span to record in
     *        obs::SpanRecorder::global() — kind, parent, session,
     *        chunk, input range, detail; the scope assigns its id and
     *        timestamps (nullopt: none; skipped while tracing is
     *        disabled).
     */
    explicit StepScope(metrics::LatencyHistogram *hist,
                       const StepTask &task = {},
                       const std::optional<obs::Span> &span = std::nullopt);

    ~StepScope() { finish(); }

    StepScope(const StepScope &) = delete;
    StepScope &operator=(const StepScope &) = delete;

    /** Recorded task id (kNoTask when unrecorded). */
    trace::TaskId task() const { return task_; }

    /** Span id, valid while the step is open so children can parent
     *  on it (0 when untraced). */
    std::uint64_t spanId() const { return span_.id; }

    /** Closes the step (once; later calls only return) and returns its
     *  finished span (id 0 when untraced). */
    const obs::Span &finish();

  private:
    metrics::LatencyHistogram *hist_;
    trace::MeasuredTraceRecorder *recorder_;
    trace::TaskId task_ = kNoTask;
    obs::Span span_;
    Clock::time_point start_{};
    bool open_ = false;
};

} // namespace repro::core

#endif // REPRO_CORE_STEP_SCOPE_H
