/**
 * @file
 * Lock-light per-thread span ring buffers behind one process-wide
 * recorder.
 *
 * Design mirrors metrics/metrics.h so the two layers price the same
 * way:
 *  - each recording thread owns a fixed-size ring of Span slots,
 *    created on the thread's first span and registered centrally;
 *    recording is a slot write plus a head bump — no allocation, no
 *    global lock, drop-oldest when the ring wraps (counted into the
 *    obs.dropped_spans counter so loss is observable, never silent);
 *  - a per-ring mutex serializes the owning writer with snapshot
 *    readers only — writers never contend with each other, and the
 *    mutex is uncontended except while a flight dump is copying;
 *  - obs::setEnabled(false) reduces start()/finish() to one relaxed
 *    atomic load, and a run's results do not depend on it
 *    (NativeRuntimeInstrumentation.TracingDoesNotChangeResults); the
 *    cost of one span is perfbench's ladder.span_ns;
 *  - span ids come from one process-wide atomic, so parent links are
 *    valid across threads and across rings.
 *
 * The global() recorder is immortal (same leak-on-exit contract as
 * MetricsRegistry): pool threads draining during static destruction
 * can still record safely.  Tests build their own small-ring
 * instances to exercise wraparound without 4096-span fixtures.
 */

#ifndef REPRO_OBS_SPAN_RECORDER_H
#define REPRO_OBS_SPAN_RECORDER_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/span.h"

namespace repro::obs {

/** Globally enables/disables span recording (default: enabled).
 *  Independent of metrics::setEnabled so each layer prices alone. */
void setEnabled(bool enabled);

/** Whether spans currently record. */
bool enabled();

/** Everything a snapshot() returns: the surviving spans of every ring
 *  plus exact drop accounting. */
struct SpanSnapshot
{
    std::vector<Span> spans;    //!< Oldest-first per ring, rings
                                //!< concatenated in registration order.
    std::uint64_t dropped = 0;  //!< Spans overwritten before snapshot.
    std::uint64_t recorded = 0; //!< Spans ever finished into rings.
};

/**
 * The recorder.  Use global() for production spans; construct a local
 * instance (tests) to control the per-thread ring size.
 */
class SpanRecorder
{
  public:
    /** Default per-thread ring capacity.  Sized so a paced serving
     *  session never wraps (dropped == 0 is asserted by
     *  ServingRuntime.PacedRunClosesOnDeadlineAndTracesEverySpan)
     *  while a ring stays ~0.5 MB per thread. */
    static constexpr std::size_t kDefaultSlots = 8192;

    /** The process-wide recorder (immortal). */
    static SpanRecorder &global();

    explicit SpanRecorder(std::size_t slotsPerThread = kDefaultSlots);

    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /**
     * Opens a span: allocates its id, stamps startNs, fills the
     * identity fields.  Returns a by-value Span the caller holds on
     * its stack until finish(); children may parent on span.id while
     * it is still open.  When recording is disabled the returned span
     * has id 0 and finish() on it is a no-op.
     */
    Span start(SpanKind kind, std::uint64_t parent = 0,
               std::uint64_t session = 0, std::int64_t chunk = -1,
               std::int64_t firstInput = -1, std::uint32_t inputCount = 0,
               std::int64_t detail = -1);

    /** Closes @p span (stamps endNs) and commits it to the calling
     *  thread's ring, dropping the oldest slot when full. */
    void finish(Span &span);

    /** Records an already-timed span whose start/end the caller
     *  stamped itself (queue-wait spans start at submit time on a
     *  different thread).  @p span.id must come from start() or
     *  nextId(). */
    void record(const Span &span);

    /** Allocates a span id without opening a span (0 when disabled). */
    std::uint64_t nextId();

    /** Copies every ring's surviving spans (oldest first) plus drop
     *  accounting.  Safe concurrently with writers; a writer racing
     *  the copy simply lands in the next snapshot. */
    SpanSnapshot snapshot() const;

    /** Empties every ring and zeroes drop accounting (ids keep
     *  growing).  Test / bench phase isolation only. */
    void clear();

    /** Per-thread ring capacity this recorder was built with. */
    std::size_t slotsPerThread() const { return slots_; }

  private:
    struct ThreadRing
    {
        explicit ThreadRing(std::size_t slots) : ring(slots) {}
        mutable std::mutex mu;  //!< Writer vs snapshot/clear only.
        std::vector<Span> ring; //!< Fixed capacity, id 0 = empty slot.
        std::uint64_t head = 0; //!< Next write position (monotone).
        std::uint64_t dropped = 0;
        std::uint64_t recorded = 0;
        std::uint32_t thread = 0; //!< Registration-order slot.
    };

    ThreadRing &ringForThisThread();

    const std::size_t slots_;
    const std::uint64_t recorderId_; //!< Keys the thread-local cache.
    std::atomic<std::uint64_t> nextId_{1};

    mutable std::mutex registryMu_; //!< Guards rings_ growth.
    std::vector<std::unique_ptr<ThreadRing>> rings_;
};

} // namespace repro::obs

#endif // REPRO_OBS_SPAN_RECORDER_H
