/**
 * @file
 * Anomaly-triggered flight recorder: when a trigger predicate fires,
 * atomically snapshot the span rings, the metrics registry, and the
 * recent AbortReports into one self-contained JSON dump for
 * post-mortem analysis.
 *
 * Triggers are evaluated against the *windowed delta* of the metrics
 * registry between poll() calls, the same primitive the feedback
 * controller consumes:
 *  - e2e latency: the window's p99 of a configured latency histogram
 *    exceeded the SLO;
 *  - abort burst: more than a configured number of aborts landed in
 *    one window;
 *  - dwell violations: the adapt.dwell_violations counter (an
 *    invariant that must stay 0) incremented at all.
 *
 * The clock is injectable so tests drive triggers deterministically
 * with a fake clock; poll() itself is cheap (one registry sweep) and
 * rate-limited by maxDumps so a persistent anomaly cannot fill the
 * disk.  dump() is also callable directly — tests use it to capture
 * an induced abort storm on demand.
 */

#ifndef REPRO_OBS_FLIGHT_RECORDER_H
#define REPRO_OBS_FLIGHT_RECORDER_H

#include <chrono>
#include <functional>
#include <optional>
#include <string>

#include "metrics/metrics.h"
#include "obs/abort_report.h"
#include "obs/span_recorder.h"

namespace repro::obs {

/** One dump, described back to the caller. */
struct FlightDumpInfo
{
    std::string path;    //!< File the dump was written to.
    std::string reason;  //!< Trigger ("latency_slo", "abort_burst",
                         //!< "dwell_violation", "manual", ...).
    std::uint64_t sequence = 0; //!< 0-based dump number.
};

class FlightRecorder
{
  public:
    struct Options
    {
        /** Directory dumps are written into (flight-<seq>.json).
         *  Must exist; empty writes into the working directory. */
        std::string dir;

        /** Windowed-p99 SLO on @ref latencyHistogram; 0 disables the
         *  predicate. */
        double latencySloSeconds = 0.0;
        std::string latencyHistogram = "serving.e2e_latency_seconds";

        /** Aborts per window that count as a burst; 0 disables. */
        std::uint64_t abortBurst = 0;
        std::string abortCounter = "serving.chunks_aborted";

        /** Dump whenever adapt.dwell_violations grows (invariant: it
         *  never does). */
        bool watchDwellViolations = true;

        /** Dumps after which triggers stop firing (manual dump()
         *  still works). */
        std::size_t maxDumps = 4;

        /** Injectable clock for deterministic trigger tests; null =
         *  steady clock. */
        std::function<std::chrono::steady_clock::time_point()> clock;

        /** Recorder whose rings the dump snapshots; null = global(). */
        SpanRecorder *recorder = nullptr;
    };

    explicit FlightRecorder(Options options);

    /**
     * One trigger-evaluation window: deltas the registry since the
     * previous poll and dumps on the first predicate that fires.
     * Returns the dump written, if any.
     */
    std::optional<FlightDumpInfo> poll();

    /** Unconditional dump with @p reason (not counted against
     *  maxDumps' trigger budget).  Returns nullopt when the file
     *  cannot be written. */
    std::optional<FlightDumpInfo> dump(const std::string &reason);

    /** Dumps written so far (triggered + manual). */
    std::uint64_t dumps() const { return dumps_; }

  private:
    std::chrono::steady_clock::time_point now() const;

    const Options opts_;
    metrics::MetricsSnapshot prev_;
    bool primed_ = false;
    std::uint64_t triggered_ = 0;
    std::uint64_t dumps_ = 0;
    std::chrono::steady_clock::time_point lastPoll_;
};

/** Renders one self-contained dump document (the "repro.flight.v1"
 *  schema of DESIGN.md §17) from explicit parts — exposed so tests
 *  and benches can build dumps without a recorder instance. */
std::string flightDumpJson(const std::string &reason,
                           const SpanSnapshot &spans,
                           const metrics::MetricsSnapshot &metrics,
                           const std::vector<AbortReport> &reports,
                           std::uint64_t wallNs);

} // namespace repro::obs

#endif // REPRO_OBS_FLIGHT_RECORDER_H
