/**
 * @file
 * The glue between the feedback controller and the live serving
 * runtime: periodically snapshot the metrics registry, hand the
 * windowed delta to the controller, broadcast applied decisions to
 * every session.
 *
 * ServingAdaptor owns a rolling MetricsSnapshot: each tick() computes
 * the delta since the previous tick (metrics::snapshotDiff), folds the
 * serving.* instruments into one WindowObservation, and feeds the
 * controller.  When a decision applies, it calls
 * ServingRuntime::retuneAll — every session lands the swap at its own
 * next chunk boundary, so no protocol step ever sees a mid-chunk knob
 * change.
 *
 * Ticks can be driven two ways:
 *  - manually, tick() per window — what the deterministic tests do;
 *  - by a background thread (Options::background + start()), the
 *    production shape.
 * Either way ticks are serialized by a mutex; the controller itself
 * stays single-threaded.
 */

#ifndef REPRO_ADAPT_SERVING_ADAPTOR_H
#define REPRO_ADAPT_SERVING_ADAPTOR_H

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

#include "adapt/controller.h"
#include "metrics/metrics.h"
#include "serving/serving_runtime.h"

namespace repro::adapt {

/** Feeds live serving metrics to a FeedbackController. */
class ServingAdaptor
{
  public:
    struct Options
    {
        ControllerConfig controller;

        /** Tick period of the background thread (ignored for manual
         *  ticks). */
        std::chrono::milliseconds window{100};

        /** Clock used to measure window lengths; null = steady clock
         *  (injectable for deterministic tests). */
        std::function<std::chrono::steady_clock::time_point()> clock;
    };

    /** @param runtime Must outlive the adaptor. */
    ServingAdaptor(serving::ServingRuntime &runtime, Options options);

    /** Stops the background thread if running. */
    ~ServingAdaptor();

    ServingAdaptor(const ServingAdaptor &) = delete;
    ServingAdaptor &operator=(const ServingAdaptor &) = delete;

    /**
     * One observation window: delta the registry since the last tick,
     * run the controller, broadcast an applied decision.  Returns the
     * decision, if any.
     */
    std::optional<Decision> tick();

    /** Starts the background tick thread (idempotent). */
    void start();

    /** Stops the background tick thread (idempotent; the destructor
     *  calls it). */
    void stop();

    /** The wrapped controller (decision trace, calibration state). */
    const FeedbackController &controller() const { return controller_; }

  private:
    std::chrono::steady_clock::time_point now() const;
    void loop();

    serving::ServingRuntime &runtime_;
    const Options opts_;

    std::mutex mu_; //!< Serializes ticks (manual + background).
    FeedbackController controller_;
    metrics::MetricsSnapshot prev_;
    std::chrono::steady_clock::time_point lastTick_;

    std::mutex stopMu_;
    std::condition_variable stopCv_;
    bool stopping_ = false;
    std::thread thread_;
};

} // namespace repro::adapt

#endif // REPRO_ADAPT_SERVING_ADAPTOR_H
