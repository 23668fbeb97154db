#include "obs/flight_recorder.h"

#include <fstream>
#include <sstream>

#include "metrics/export.h"
#include "util/json.h"
#include "util/log.h"

namespace repro::obs {

namespace {

metrics::Counter &
flightDumpsCounter()
{
    static metrics::Counter &c =
        metrics::MetricsRegistry::global().counter("obs.flight_dumps");
    return c;
}

} // namespace

FlightRecorder::FlightRecorder(Options options)
    : opts_(std::move(options))
{
    // Register the counter eagerly so snapshots carry the name even
    // before the first dump (checked by
    // FlightRecorderTest.AbortStormDumpClosesEveryCausalChain).
    (void)flightDumpsCounter();
    lastPoll_ = now();
}

std::chrono::steady_clock::time_point
FlightRecorder::now() const
{
    return opts_.clock ? opts_.clock()
                       : std::chrono::steady_clock::now();
}

std::optional<FlightDumpInfo>
FlightRecorder::poll()
{
    const metrics::MetricsSnapshot cur =
        metrics::MetricsRegistry::global().snapshot();
    lastPoll_ = now();
    if (!primed_) {
        // First poll establishes the window baseline; predicates need
        // a delta to judge.
        prev_ = cur;
        primed_ = true;
        return std::nullopt;
    }
    const metrics::MetricsSnapshot delta = metrics::snapshotDiff(prev_, cur);
    prev_ = cur;
    if (triggered_ >= opts_.maxDumps)
        return std::nullopt;

    std::string reason;
    if (opts_.watchDwellViolations &&
        delta.counterValue("adapt.dwell_violations") > 0) {
        reason = "dwell_violation";
    } else if (opts_.abortBurst > 0 &&
               delta.counterValue(opts_.abortCounter) >=
                   opts_.abortBurst) {
        reason = "abort_burst";
    } else if (opts_.latencySloSeconds > 0.0) {
        const auto window = delta.histogramValue(opts_.latencyHistogram);
        if (window.count > 0 &&
            window.quantileSeconds(0.99) > opts_.latencySloSeconds)
            reason = "latency_slo";
    }
    if (reason.empty())
        return std::nullopt;
    ++triggered_;
    return dump(reason);
}

std::optional<FlightDumpInfo>
FlightRecorder::dump(const std::string &reason)
{
    SpanRecorder &recorder =
        opts_.recorder ? *opts_.recorder : SpanRecorder::global();
    Span span = recorder.start(SpanKind::FlightDump, 0, 0, -1, -1, 0,
                               static_cast<std::int64_t>(dumps_));
    const SpanSnapshot spans = recorder.snapshot();
    const metrics::MetricsSnapshot snap =
        metrics::MetricsRegistry::global().snapshot();
    const std::vector<AbortReport> reports = AbortLog::global().recent();
    const std::uint64_t wallNs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now().time_since_epoch())
            .count());

    FlightDumpInfo info;
    info.reason = reason;
    info.sequence = dumps_;
    std::ostringstream name;
    name << (opts_.dir.empty() ? std::string(".") : opts_.dir)
         << "/flight-" << dumps_ << ".json";
    info.path = name.str();

    std::ofstream os(info.path);
    if (!os) {
        REPRO_LOG_WARN("flight recorder cannot write " << info.path);
        return std::nullopt;
    }
    os << flightDumpJson(reason, spans, snap, reports, wallNs) << "\n";
    ++dumps_;
    flightDumpsCounter().inc();
    recorder.finish(span);
    return info;
}

std::string
flightDumpJson(const std::string &reason, const SpanSnapshot &spans,
               const metrics::MetricsSnapshot &metrics,
               const std::vector<AbortReport> &reports,
               std::uint64_t wallNs)
{
    std::ostringstream os;
    os << "{\n"
       << "  \"schema\": \"repro.flight.v1\",\n"
       << "  \"reason\": \"" << util::jsonEscape(reason) << "\",\n"
       << "  \"wall_ns\": " << wallNs << ",\n"
       << "  \"spans_recorded\": " << spans.recorded << ",\n"
       << "  \"spans_dropped\": " << spans.dropped << ",\n"
       << "  \"spans\": [";
    for (std::size_t i = 0; i < spans.spans.size(); ++i) {
        const Span &s = spans.spans[i];
        os << (i ? "," : "") << "\n    {\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"kind\": \""
           << spanKindName(s.kind) << "\", \"session\": " << s.session
           << ", \"chunk\": " << s.chunk
           << ", \"first_input\": " << s.firstInput
           << ", \"input_count\": " << s.inputCount
           << ", \"thread\": " << s.thread
           << ", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs
           << ", \"detail\": " << s.detail << "}";
    }
    os << (spans.spans.empty() ? "" : "\n  ") << "],\n"
       << "  \"abort_reports\": [";
    for (std::size_t i = 0; i < reports.size(); ++i)
        os << (i ? "," : "") << "\n    "
           << abortReportJson(reports[i], "    ");
    os << (reports.empty() ? "" : "\n  ") << "],\n"
       << "  \"metrics\": " << metrics::toJson(metrics, "  ") << "\n"
       << "}";
    return os.str();
}

} // namespace repro::obs
