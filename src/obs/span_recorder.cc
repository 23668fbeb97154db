#include "obs/span_recorder.h"

#include <chrono>

#include "metrics/metrics.h"

namespace repro::obs {

namespace {

std::atomic<bool> g_enabled{true};

/** Instruments resolved once; also eagerly registers the obs.* family
 *  so snapshots always carry the names (a flight dump is checked for
 *  them by FlightRecorderTest.AbortStormDumpClosesEveryCausalChain),
 *  even before the first drop / dump. */
struct ObsCounters
{
    metrics::Counter &spansRecorded;
    metrics::Counter &droppedSpans;
};

ObsCounters &
obsCounters()
{
    static ObsCounters c{
        metrics::MetricsRegistry::global().counter("obs.spans_recorded"),
        metrics::MetricsRegistry::global().counter("obs.dropped_spans"),
    };
    return c;
}

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Process-unique recorder ids so the thread-local ring cache never
 *  confuses a dead test recorder with a new one at the same address. */
std::atomic<std::uint64_t> g_recorderIds{1};

} // namespace

void
setEnabled(bool enabled)
{
    g_enabled.store(enabled, std::memory_order_relaxed);
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

SpanRecorder &
SpanRecorder::global()
{
    // Immortal, like MetricsRegistry::global(): worker threads
    // draining during static destruction may still record.
    static SpanRecorder *recorder = new SpanRecorder();
    // Touch the instrument family so the names exist in every
    // snapshot from the first use of the recorder.
    (void)obsCounters();
    return *recorder;
}

SpanRecorder::SpanRecorder(std::size_t slotsPerThread)
    : slots_(slotsPerThread ? slotsPerThread : 1),
      recorderId_(g_recorderIds.fetch_add(1, std::memory_order_relaxed))
{
}

SpanRecorder::ThreadRing &
SpanRecorder::ringForThisThread()
{
    // One cache entry per (thread, recorder) pair.  Keyed by the
    // recorder's unique id, not its address, so a test recorder dying
    // and a new one reusing the allocation cannot alias.
    struct CacheEntry
    {
        std::uint64_t recorder;
        ThreadRing *ring;
    };
    thread_local std::vector<CacheEntry> cache;
    for (const CacheEntry &e : cache)
        if (e.recorder == recorderId_)
            return *e.ring;

    std::lock_guard<std::mutex> lock(registryMu_);
    rings_.push_back(std::make_unique<ThreadRing>(slots_));
    ThreadRing &ring = *rings_.back();
    ring.thread = static_cast<std::uint32_t>(rings_.size() - 1);
    cache.push_back({recorderId_, &ring});
    return ring;
}

Span
SpanRecorder::start(SpanKind kind, std::uint64_t parent,
                    std::uint64_t session, std::int64_t chunk,
                    std::int64_t firstInput, std::uint32_t inputCount,
                    std::int64_t detail)
{
    Span s;
    if (!enabled())
        return s; // id 0: finish() is a no-op.
    s.id = nextId_.fetch_add(1, std::memory_order_relaxed);
    s.parent = parent;
    s.session = session;
    s.chunk = chunk;
    s.firstInput = firstInput;
    s.inputCount = inputCount;
    s.kind = kind;
    s.detail = detail;
    s.startNs = nowNs();
    return s;
}

void
SpanRecorder::finish(Span &span)
{
    if (span.id == 0)
        return;
    span.endNs = nowNs();
    record(span);
}

void
SpanRecorder::record(const Span &span)
{
    if (span.id == 0)
        return;
    ThreadRing &ring = ringForThisThread();
    std::lock_guard<std::mutex> lock(ring.mu);
    const std::size_t slot = ring.head % slots_;
    if (ring.ring[slot].id != 0) {
        ++ring.dropped; // Oldest span overwritten; loss is counted.
        obsCounters().droppedSpans.inc();
    }
    ring.ring[slot] = span;
    ring.ring[slot].thread = ring.thread;
    ++ring.head;
    ++ring.recorded;
    obsCounters().spansRecorded.inc();
}

std::uint64_t
SpanRecorder::nextId()
{
    if (!enabled())
        return 0;
    return nextId_.fetch_add(1, std::memory_order_relaxed);
}

SpanSnapshot
SpanRecorder::snapshot() const
{
    SpanSnapshot out;
    std::lock_guard<std::mutex> registry(registryMu_);
    for (const auto &ringPtr : rings_) {
        const ThreadRing &ring = *ringPtr;
        std::lock_guard<std::mutex> lock(ring.mu);
        out.dropped += ring.dropped;
        out.recorded += ring.recorded;
        // Oldest-first: when wrapped, the slot at head is the oldest
        // survivor; before wrapping, slot 0 is.
        const std::uint64_t live =
            ring.head < slots_ ? ring.head : slots_;
        const std::uint64_t first =
            ring.head < slots_ ? 0 : ring.head % slots_;
        for (std::uint64_t i = 0; i < live; ++i) {
            const Span &s = ring.ring[(first + i) % slots_];
            if (s.id != 0)
                out.spans.push_back(s);
        }
    }
    return out;
}

void
SpanRecorder::clear()
{
    std::lock_guard<std::mutex> registry(registryMu_);
    for (const auto &ringPtr : rings_) {
        ThreadRing &ring = *ringPtr;
        std::lock_guard<std::mutex> lock(ring.mu);
        for (Span &s : ring.ring)
            s = Span{};
        ring.head = 0;
        ring.dropped = 0;
        ring.recorded = 0;
    }
}

const char *
spanKindName(SpanKind kind)
{
    switch (kind) {
      case SpanKind::Submit:        return "submit";
      case SpanKind::QueueWait:     return "queue_wait";
      case SpanKind::ChunkClose:    return "chunk_close";
      case SpanKind::ChunkProcess:  return "chunk_process";
      case SpanKind::AltProducer:   return "alt_producer";
      case SpanKind::ChunkBody:     return "chunk_body";
      case SpanKind::ReplicaRegen:  return "replica_regen";
      case SpanKind::Validation:    return "validation";
      case SpanKind::Commit:        return "commit";
      case SpanKind::Abort:         return "abort";
      case SpanKind::ReExec:        return "reexec";
      case SpanKind::Callback:      return "callback";
      case SpanKind::AdaptDecision: return "adapt_decision";
      case SpanKind::FlightDump:    return "flight_dump";
      case SpanKind::NumKinds:      break;
    }
    return "unknown";
}

} // namespace repro::obs
