#include "core/step_scope.h"

#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "trace/measured_trace.h"

namespace repro::core {

namespace {

/** The span time base: steady-clock nanoseconds since its epoch. */
std::uint64_t
nanosOf(StepScope::Clock::time_point t)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            t.time_since_epoch())
            .count());
}

} // namespace

StepScope::StepScope(metrics::LatencyHistogram *hist, const StepTask &task,
                     const std::optional<obs::Span> &span)
    : hist_(hist && metrics::enabled() ? hist : nullptr),
      recorder_(task.recorder)
{
    if (span) {
        const std::uint64_t id = obs::SpanRecorder::global().nextId();
        if (id != 0) {
            span_ = *span;
            span_.id = id;
        }
    }
    open_ = hist_ || recorder_ || span_.id != 0;
    if (!open_)
        return;
    start_ = Clock::now();
    if (recorder_)
        task_ = recorder_->begin(task.kind, task.thread, task.chunk, start_);
}

const obs::Span &
StepScope::finish()
{
    if (!open_)
        return span_;
    open_ = false;
    const Clock::time_point end = Clock::now();
    if (hist_)
        hist_->observe(std::chrono::duration<double>(end - start_).count());
    if (recorder_)
        recorder_->end(task_, end);
    if (span_.id != 0) {
        span_.startNs = nanosOf(start_);
        span_.endNs = nanosOf(end);
        obs::SpanRecorder::global().record(span_);
    }
    return span_;
}

} // namespace repro::core
