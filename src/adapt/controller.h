/**
 * @file
 * Online feedback autotuning: the live-metrics controller.
 *
 * The autotuner (autotuner/tuner.h) explores the STATS design space
 * *offline*: profile, tune, run.  The configuration it ships goes
 * stale the moment traffic shifts — the serving layer keeps paying a
 * per-boundary overhead (alternative-producer replay of K inputs,
 * R-1 replica regenerations, state clones and comparisons) that was
 * priced for a different arrival rate.  FeedbackController closes the
 * loop at runtime, in the spirit of Prophet's runtime cost/benefit
 * decisions for speculative threads (PAPERS.md): it consumes windowed
 * deltas of the live metrics::MetricsRegistry and issues bounded step
 * adjustments to the three knobs of serving::SessionTuning.
 *
 * Scoring reuses the cost structure the offline stack already encodes:
 * the same per-chunk categories the DES engine prices and the tuner's
 * Objective simulates (chunk body work, alt-producer replay ~ K,
 * replica regeneration ~ K per extra original state, a fixed
 * clone+compare term, and re-execution work on abort), and the same
 * single-parameter neighborhood step the tuner's hill-climb strategy
 * explores.  The difference is the cost inputs: instead of simulated
 * cycles, the controller calibrates per-input seconds, abort fraction,
 * replica usefulness, and arrival rate from each metrics window —
 * runtime prediction driving scheduling, the cbs-with-runtime-
 * prediction shape (SNIPPETS.md #3).
 *
 * Stability (hysteresis) has two guards so the controller never flaps:
 *  - *dwell*: after any decision, at least ControllerConfig::
 *    dwellWindows observation windows must pass before the next one —
 *    the system gets time to exhibit the new configuration before
 *    being judged under it;
 *  - *deadband*: a move needs a predicted relative improvement of at
 *    least ControllerConfig::deadband, so noise-level differences
 *    never trigger a step.
 * adapt.dwell_violations counts decisions applied while a dwell was
 * still pending; by construction the count stays zero, and
 * ServingAdapt.ActiveAdaptorGrowsChunksWhenLoadShifts checks it on a
 * live session.
 *
 * Determinism: in ControllerMode::Frozen the controller runs its full
 * observe/score/decide loop and *records* every decision, but never
 * applies one — knobs stay at their initial values, so a frozen
 * adaptive run is bit-identical to the corresponding fixed-config run.
 * In Active mode the decision list doubles as a replay trace:
 * adaptive_runner.h re-applies it at the recorded chunk boundaries to
 * reproduce an adaptive run bit for bit without the metrics that drove
 * it.
 */

#ifndef REPRO_ADAPT_CONTROLLER_H
#define REPRO_ADAPT_CONTROLLER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serving/serving_runtime.h"
#include "util/histogram.h"

namespace repro::adapt {

/** Whether decisions are applied or only recorded. */
enum class ControllerMode : std::uint8_t
{
    Active, //!< Decisions change the live knobs.
    Frozen, //!< Decisions are recorded only; knobs never move.
};

/** Human-readable mode name ("active" / "frozen"). */
const char *controllerModeName(ControllerMode mode);

/** Controller parameters (see the file comment for the loop). */
struct ControllerConfig
{
    ControllerMode mode = ControllerMode::Active;

    /** Starting knobs (clamped into [minKnobs, maxKnobs]). */
    serving::SessionTuning initial;

    /** Per-knob lower bounds of the explored space. */
    serving::SessionTuning minKnobs{4, 1, 1};

    /** Per-knob upper bounds of the explored space. */
    serving::SessionTuning maxKnobs{512, 16, 4};

    /** Observation windows to hold after a decision before the next
     *  decision may fire (hysteresis guard #1). */
    unsigned dwellWindows = 2;

    /** Minimum predicted relative cost improvement for a step
     *  (hysteresis guard #2, the deadband). */
    double deadband = 0.05;

    /** Per-input latency budget the serving session runs under; used
     *  to stop chunk growth past the point where deadline closure
     *  would cut chunks anyway.  0 disables latency shaping
     *  (pure-throughput scoring). */
    double latencyBudgetSeconds = 0.0;

    /** Smoothing of the calibrated model terms. */
    double ewmaAlpha = 0.4;

    /** Observation windows consumed before the first decision may
     *  fire (the model needs calibration samples). */
    unsigned warmupWindows = 2;

    /** Consecutive abort-free windows required before the controller
     *  may *shrink* the speculation lookahead K — shrinking K trades
     *  boundary work against abort risk, so it needs evidence the
     *  short-memory property currently has slack. */
    unsigned kShrinkQuietWindows = 3;
};

/**
 * One observation window: deltas of the live metrics over the window
 * (MetricsRegistry::snapshotDelta), plus instantaneous context.
 */
struct WindowObservation
{
    double seconds = 0.0;              //!< Window wall-clock length.
    std::uint64_t chunksProcessed = 0; //!< Chunks resolved in window.
    std::uint64_t inputsProcessed = 0; //!< Inputs those chunks held.
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t matchFirst = 0;   //!< Commit checks: final matched.
    std::uint64_t matchReplica = 0; //!< ... a replica saved it.
    std::uint64_t matchNone = 0;    //!< ... nothing matched (abort).
    std::uint64_t inputsSubmitted = 0;
    std::uint64_t inputsRejected = 0;  //!< Backpressure in the window.
    double chunkSeconds = 0.0;      //!< Sum of chunk process times.
    double queueDepthP99 = 0.0;     //!< Inputs pending at closure, p99.
    unsigned sessions = 1;          //!< Live sessions sharing traffic.
};

/** One controller decision (applied or frozen-recorded). */
struct Decision
{
    std::uint64_t window = 0; //!< Observation window that decided.
    serving::SessionTuning from;
    serving::SessionTuning to;
    const char *knob = "none"; //!< "chunk" / "lookahead" / "replicas".
    int direction = 0;         //!< +1 grow, -1 shrink.
    double predictedGain = 0.0; //!< Relative per-input cost reduction.
    bool applied = false;       //!< False in Frozen mode.
    std::string reason;         //!< "saturated" / "predicted-cost" ...
    /** Batch replay anchor: index of the first chunk the new knobs
     *  govern (filled by adaptive_runner; 0 for serving decisions,
     *  where each session lands the swap at its own next boundary). */
    std::size_t atChunk = 0;
};

/**
 * The feedback loop.  Single-threaded by contract: one owner calls
 * observe() per window (the serving adaptor serializes its ticks, the
 * batch runner is a loop).
 */
class FeedbackController
{
  public:
    explicit FeedbackController(ControllerConfig config);

    /**
     * Feeds one observation window; returns the decision it produced,
     * if any.  In Active mode an applied decision moves current(); in
     * Frozen mode the decision is recorded with applied == false and
     * current() never changes.
     */
    std::optional<Decision> observe(const WindowObservation &obs);

    /** Knobs the controller currently prescribes. */
    const serving::SessionTuning &current() const { return current_; }

    /** Every decision so far, in order (the replay trace). */
    const std::vector<Decision> &decisions() const { return decisions_; }

    /** Observation windows consumed. */
    std::uint64_t windows() const { return windows_; }

    /** Decisions applied while a dwell was pending (invariant: 0). */
    std::uint64_t dwellViolations() const { return dwellViolations_; }

    /** Calibrated per-input body seconds (0 until first window with
     *  work). */
    double perInputSeconds() const { return perInput_; }

    /** Calibrated abort fraction per boundary. */
    double abortFraction() const { return abortFrac_; }

    /** Calibrated per-session arrival rate (inputs/sec). */
    double arrivalRate() const { return arrivalPerSession_; }

    /** Predicted per-input seconds under @p tuning with the current
     *  calibration (exposed for tests and bench reports). */
    double predictPerInput(const serving::SessionTuning &tuning) const;

  private:
    serving::SessionTuning
    clampKnobs(const serving::SessionTuning &tuning) const;
    double abortProbability(const serving::SessionTuning &tuning) const;
    double costPerInput(const serving::SessionTuning &tuning, double b,
                        bool saturated) const;

    const ControllerConfig cfg_;
    serving::SessionTuning current_;
    std::vector<Decision> decisions_;

    std::uint64_t windows_ = 0;
    unsigned dwellRemaining_ = 0;
    std::uint64_t dwellViolations_ = 0;
    unsigned quietWindows_ = 0;

    // Calibrated model terms (EWMA across windows; the decision itself
    // uses the median of the per-window samples accumulated since the
    // previous decision — util::Histogram::windowedSnapshot — which is
    // robust to scheduler noise a single window can carry).
    bool calibrated_ = false;
    double perInput_ = 0.0;
    double abortFrac_ = 0.0;
    double replicaShare_ = 0.25;
    double arrivalPerSession_ = 0.0;
    util::Histogram perInputWindow_{0.0, 0.1, 2000};

    // Last exported per-knob gauge values (gauges are delta-driven).
    std::int64_t gaugeChunk_ = 0;
    std::int64_t gaugeK_ = 0;
    std::int64_t gaugeR_ = 0;
};

/** JSON array rendering of a decision trace.  @p indent prefixes
 *  inner lines. */
std::string decisionsToJson(const std::vector<Decision> &decisions,
                            const std::string &indent = "");

} // namespace repro::adapt

#endif // REPRO_ADAPT_CONTROLLER_H
