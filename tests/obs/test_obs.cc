/**
 * @file
 * Tests of the tracing subsystem (src/obs/): span ring wraparound and
 * drop accounting, cross-thread parent links, the abort causal chain
 * plus its root-cause report, and the flight recorder's trigger
 * predicates driven by a fake clock.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/ema_model.h"
#include "core/native_runtime.h"
#include "metrics/metrics.h"
#include "obs/abort_report.h"
#include "obs/flight_recorder.h"
#include "obs/span_recorder.h"
#include "serving/session_pipeline.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace {

using repro::core::NativeRuntime;
using repro::obs::AbortLog;
using repro::obs::AbortReport;
using repro::obs::FlightRecorder;
using repro::obs::Span;
using repro::obs::SpanKind;
using repro::obs::SpanRecorder;
using repro::obs::SpanSnapshot;
using repro::serving::SessionPipeline;
using repro::testing::EmaModel;
using repro::util::JsonValue;

TEST(SpanRing, WrapAroundDropsOldest)
{
    SpanRecorder rec(4);
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
        Span s = rec.start(SpanKind::Submit, 0, 7, i);
        ids.push_back(s.id);
        rec.finish(s);
    }
    const SpanSnapshot snap = rec.snapshot();
    EXPECT_EQ(snap.recorded, 6u);
    EXPECT_EQ(snap.dropped, 2u);
    ASSERT_EQ(snap.spans.size(), 4u);
    // Oldest-first: the two earliest spans were overwritten.
    for (std::size_t i = 0; i < snap.spans.size(); ++i) {
        EXPECT_EQ(snap.spans[i].id, ids[i + 2]);
        EXPECT_EQ(snap.spans[i].session, 7u);
    }
}

TEST(SpanRing, ClearResetsRingsButNotIds)
{
    SpanRecorder rec(4);
    Span a = rec.start(SpanKind::Submit);
    rec.finish(a);
    rec.clear();
    EXPECT_TRUE(rec.snapshot().spans.empty());
    EXPECT_EQ(rec.snapshot().recorded, 0u);
    Span b = rec.start(SpanKind::Submit);
    rec.finish(b);
    EXPECT_GT(b.id, a.id); // Ids keep growing across clear().
}

TEST(SpanRing, DisabledRecordingIsInert)
{
    SpanRecorder rec(4);
    repro::obs::setEnabled(false);
    Span s = rec.start(SpanKind::Submit, 0, 1);
    EXPECT_EQ(s.id, 0u);
    rec.finish(s);
    EXPECT_EQ(rec.nextId(), 0u);
    repro::obs::setEnabled(true);
    EXPECT_TRUE(rec.snapshot().spans.empty());
}

TEST(SpanRing, CrossThreadParentLinksResolve)
{
    SpanRecorder rec(64);
    Span parent = rec.start(SpanKind::ChunkClose, 0, 3, 0);
    std::uint64_t childId = 0;
    std::thread worker([&] {
        Span child =
            rec.start(SpanKind::ChunkProcess, parent.id, 3, 0);
        childId = child.id;
        rec.finish(child);
    });
    worker.join();
    rec.finish(parent);

    const SpanSnapshot snap = rec.snapshot();
    ASSERT_EQ(snap.spans.size(), 2u);
    const Span *par = nullptr;
    const Span *child = nullptr;
    for (const Span &s : snap.spans) {
        if (s.id == parent.id)
            par = &s;
        if (s.id == childId)
            child = &s;
    }
    ASSERT_NE(par, nullptr);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(child->parent, par->id);
    EXPECT_NE(child->thread, par->thread); // Distinct rings.
    EXPECT_EQ(child->session, par->session);
}

/** Finds the first span of @p kind for @p chunk, or null. */
const Span *
findSpan(const SpanSnapshot &snap, SpanKind kind, std::int64_t chunk)
{
    for (const Span &s : snap.spans)
        if (s.kind == kind && s.chunk == chunk)
            return &s;
    return nullptr;
}

TEST(SpanTrace, AbortPathEmitsCausalChainAndReport)
{
    // Abort-heavy config pinned by the serving oracle tests: tiny
    // alpha + tight tolerance forces the commit check to reject.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);

    SpanRecorder::global().clear();
    AbortLog::global().clear();

    SessionPipeline::Config pc;
    pc.altWindowK = 2;
    pc.numOriginalStates = 2;
    SessionPipeline pipeline(model, pc, 5,
                             &repro::util::ThreadPool::global());
    pipeline.setTraceContext(/*session=*/11, /*parentSpan=*/0);
    unsigned aborts = 0;
    std::int64_t abortedChunk = -1;
    for (unsigned c = 0; c < 4; ++c) {
        const auto r = pipeline.processChunk(32);
        if (r.aborted && abortedChunk < 0)
            abortedChunk = static_cast<std::int64_t>(r.chunkIndex);
        aborts += r.aborted ? 1 : 0;
    }
    ASSERT_GT(aborts, 0u) << "config must exercise the abort path";

    const SpanSnapshot snap = SpanRecorder::global().snapshot();
    EXPECT_EQ(snap.dropped, 0u);
    const Span *abortSpan =
        findSpan(snap, SpanKind::Abort, abortedChunk);
    ASSERT_NE(abortSpan, nullptr);
    EXPECT_EQ(abortSpan->session, 11u);

    // The re-execution and the post-re-exec commit hang off the abort.
    const Span *reexec = findSpan(snap, SpanKind::ReExec, abortedChunk);
    ASSERT_NE(reexec, nullptr);
    EXPECT_EQ(reexec->parent, abortSpan->id);
    bool sawReexecCommit = false;
    for (const Span &s : snap.spans)
        if (s.kind == SpanKind::Commit && s.chunk == abortedChunk &&
            s.detail == -2 && s.parent == abortSpan->id)
            sawReexecCommit = true;
    EXPECT_TRUE(sawReexecCommit);

    // The validation that rejected the speculation is in the chain
    // too, and compared every candidate (committed final + replica).
    const Span *validation =
        findSpan(snap, SpanKind::Validation, abortedChunk);
    ASSERT_NE(validation, nullptr);
    EXPECT_EQ(validation->detail, 2);

    // The structured report names the boundary and ties back to the
    // Abort span.
    const std::vector<AbortReport> reports = AbortLog::global().recent();
    ASSERT_FALSE(reports.empty());
    const AbortReport &rep = reports.front();
    EXPECT_EQ(rep.session, 11u);
    EXPECT_EQ(rep.chunk, abortedChunk);
    EXPECT_EQ(rep.inputCount, 32u);
    ASSERT_EQ(rep.comparisons.size(), 2u); // Final + one replica.
    EXPECT_EQ(rep.comparisons[0].candidate, -1);
    EXPECT_FALSE(rep.comparisons[0].matched);
    EXPECT_EQ(rep.comparisons[1].candidate, 0);
    EXPECT_GE(rep.wastedBodySeconds, 0.0);
    EXPECT_GE(rep.wastedAltSeconds, 0.0);
    EXPECT_GE(rep.validateSeconds, 0.0);
    bool found = false;
    for (const Span &s : snap.spans)
        found = found || s.id == rep.spanId;
    EXPECT_TRUE(found) << "report's Abort span must be in the trace";
}

/** Wall seconds @p s covered. */
double
spanSeconds(const Span &s)
{
    return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

TEST(SpanTrace, ReplicasRegenerateOnlyOnFirstCandidateMiss)
{
    // R = 3 on a config whose boundaries mix first-candidate commits,
    // replica-rescued commits and aborts.  No pool: the replicas
    // regenerate serially, so their summed time fits inside the
    // fan-out's wall interval.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.noise = 0.3;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    constexpr unsigned R = 3;

    SpanRecorder::global().clear();
    AbortLog::global().clear();
    SessionPipeline::Config pc;
    pc.altWindowK = 4;
    pc.numOriginalStates = R;
    SessionPipeline pipeline(model, pc, 3);
    pipeline.setTraceContext(/*session=*/12, /*parentSpan=*/0);
    for (unsigned c = 0; c < 16; ++c)
        pipeline.processChunk(8);

    const SpanSnapshot snap = SpanRecorder::global().snapshot();
    EXPECT_EQ(snap.dropped, 0u);
    const std::vector<AbortReport> reports = AbortLog::global().recent();
    unsigned firstHits = 0;
    unsigned misses = 0;
    for (std::int64_t c = 1; c < 16; ++c) {
        const Span *val = findSpan(snap, SpanKind::Validation, c);
        ASSERT_NE(val, nullptr) << "chunk " << c;
        const Span *abort = findSpan(snap, SpanKind::Abort, c);
        const Span *commit = nullptr;
        for (const Span &s : snap.spans)
            if (s.kind == SpanKind::Commit && s.chunk == c)
                commit = &s;
        ASSERT_NE(commit, nullptr) << "chunk " << c;
        std::vector<const Span *> regens;
        for (const Span &s : snap.spans)
            if (s.kind == SpanKind::ReplicaRegen && s.chunk == c)
                regens.push_back(&s);

        if (commit->detail == -1) {
            // The committed final state matched: no replica was built.
            ++firstHits;
            EXPECT_TRUE(regens.empty()) << "chunk " << c;
            EXPECT_EQ(val->detail, 1) << "chunk " << c;
            continue;
        }
        ++misses;
        ASSERT_EQ(regens.size(), R - 1) << "chunk " << c;
        double regenSeconds = 0.0;
        std::uint64_t regenFrom = val->endNs;
        std::uint64_t regenTo = val->startNs;
        for (const Span *rs : regens) {
            // Each replica hangs off, and runs inside, the validation
            // that asked for it.
            EXPECT_EQ(rs->parent, val->id);
            EXPECT_GE(rs->startNs, val->startNs);
            EXPECT_LE(rs->endNs, val->endNs);
            regenSeconds += spanSeconds(*rs);
            regenFrom = std::min(regenFrom, rs->startNs);
            regenTo = std::max(regenTo, rs->endNs);
        }
        if (!abort) {
            EXPECT_GE(commit->detail, 0) << "chunk " << c;
            EXPECT_NE(findSpan(snap, SpanKind::ChunkBody, c), nullptr);
            continue;
        }

        // An abort skips the speculative body entirely.
        EXPECT_EQ(commit->detail, -2);
        EXPECT_EQ(findSpan(snap, SpanKind::ChunkBody, c), nullptr)
            << "chunk " << c;
        const AbortReport *rep = nullptr;
        for (const AbortReport &r : reports)
            if (r.chunk == c)
                rep = &r;
        ASSERT_NE(rep, nullptr) << "chunk " << c;
        EXPECT_EQ(rep->spanId, abort->id);
        EXPECT_EQ(rep->wastedBodySeconds, 0.0);
        EXPECT_EQ(rep->comparisons.size(), std::size_t{R});
        EXPECT_NEAR(rep->wastedReplicaSeconds, regenSeconds, 1e-9);
        // Validation time is the check's compares only: the wall
        // interval of the replica fan-out it encloses is taken out, so
        // the two extra-computation terms never count the same
        // nanosecond twice.
        EXPECT_NEAR(rep->validateSeconds,
                    spanSeconds(*val) -
                        static_cast<double>(regenTo - regenFrom) * 1e-9,
                    1e-9);
        EXPECT_LE(rep->validateSeconds + rep->wastedReplicaSeconds,
                  spanSeconds(*val) + 1e-9);
    }
    EXPECT_GT(firstHits, 0u) << "config must commit on the first compare";
    EXPECT_GT(misses, 0u) << "config must miss the first compare";
    EXPECT_FALSE(reports.empty()) << "config must abort";
}

TEST(SpanTrace, BatchBarrierRegeneratesReplicasOnlyOnFirstMiss)
{
    // The batch barrier schedule resolves a boundary the way the
    // serving pipeline does: compare against the committed final
    // state, and only on a miss regenerate the R-1 replicas (fanned
    // out on the pool) inside the validation span.  Batch replica
    // spans carry the boundary index c; the validation they serve is
    // chunk c+1's.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.noise = 0.3;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    constexpr unsigned C = 16;
    constexpr unsigned R = 3;
    repro::core::StatsConfig config;
    config.numChunks = C;
    config.altWindowK = 4;
    config.numOriginalStates = R;

    SpanRecorder::global().clear();
    AbortLog::global().clear();
    const NativeRuntime native(4, repro::core::CommitProtocol::Barrier);
    native.run(model, config, 3);

    const SpanSnapshot snap = SpanRecorder::global().snapshot();
    EXPECT_EQ(snap.dropped, 0u);
    const std::vector<AbortReport> reports = AbortLog::global().recent();
    unsigned firstHits = 0;
    unsigned misses = 0;
    for (std::int64_t c = 1; c < C; ++c) {
        const Span *val = findSpan(snap, SpanKind::Validation, c);
        ASSERT_NE(val, nullptr) << "chunk " << c;
        const Span *commit = findSpan(snap, SpanKind::Commit, c);
        ASSERT_NE(commit, nullptr) << "chunk " << c;
        std::vector<const Span *> regens;
        for (const Span &s : snap.spans)
            if (s.kind == SpanKind::ReplicaRegen && s.chunk == c - 1)
                regens.push_back(&s);

        if (commit->detail == -1) {
            // The committed final state matched: no replica was built.
            ++firstHits;
            EXPECT_TRUE(regens.empty()) << "chunk " << c;
            EXPECT_EQ(val->detail, 1) << "chunk " << c;
            continue;
        }
        ++misses;
        ASSERT_EQ(regens.size(), R - 1) << "chunk " << c;
        double regenSeconds = 0.0;
        std::uint64_t regenFrom = val->endNs;
        std::uint64_t regenTo = val->startNs;
        for (const Span *rs : regens) {
            // Each replica hangs off, and runs inside, the validation
            // that asked for it.
            EXPECT_EQ(rs->parent, val->id);
            EXPECT_GE(rs->startNs, val->startNs);
            EXPECT_LE(rs->endNs, val->endNs);
            regenSeconds += spanSeconds(*rs);
            regenFrom = std::min(regenFrom, rs->startNs);
            regenTo = std::max(regenTo, rs->endNs);
        }
        const Span *abort = findSpan(snap, SpanKind::Abort, c);
        if (!abort) {
            EXPECT_GE(commit->detail, 0) << "chunk " << c;
            continue;
        }
        EXPECT_EQ(commit->detail, -2) << "chunk " << c;
        const AbortReport *rep = nullptr;
        for (const AbortReport &r : reports)
            if (r.chunk == c)
                rep = &r;
        ASSERT_NE(rep, nullptr) << "chunk " << c;
        EXPECT_EQ(rep->spanId, abort->id);
        EXPECT_EQ(rep->comparisons.size(), std::size_t{R});
        EXPECT_NEAR(rep->wastedReplicaSeconds, regenSeconds, 1e-9);
        // The fan-out's wall interval is taken out of the validation
        // time, so the two extra-computation terms stay disjoint.
        const double fanOut =
            static_cast<double>(regenTo - regenFrom) * 1e-9;
        EXPECT_NEAR(rep->validateSeconds, spanSeconds(*val) - fanOut,
                    1e-9);
        EXPECT_LE(rep->validateSeconds + fanOut, spanSeconds(*val) + 1e-9);
    }
    EXPECT_GT(firstHits, 0u) << "config must commit on the first compare";
    EXPECT_GT(misses, 0u) << "config must miss the first compare";
    EXPECT_FALSE(reports.empty()) << "config must abort";
}

TEST(FlightRecorderTest, AbortBurstTriggerWritesValidDump)
{
    const std::string dir =
        ::testing::TempDir() + "obs_flight_burst_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    auto &counter = repro::metrics::MetricsRegistry::global().counter(
        "test.obs.burst_aborts");
    SpanRecorder rec(64);
    Span s = rec.start(SpanKind::Abort, 0, 5, 9);
    rec.finish(s);

    // Fake clock: triggers must not depend on wall time.
    auto tick = std::chrono::steady_clock::time_point(
        std::chrono::seconds(100));
    FlightRecorder::Options opts;
    opts.dir = dir;
    opts.abortBurst = 3;
    opts.abortCounter = "test.obs.burst_aborts";
    opts.watchDwellViolations = false;
    opts.maxDumps = 1;
    opts.recorder = &rec;
    opts.clock = [&tick] { return tick; };
    FlightRecorder recorder(opts);

    // First poll only primes the window baseline.
    EXPECT_FALSE(recorder.poll().has_value());

    // Below the burst threshold: no dump.
    counter.inc(2);
    tick += std::chrono::seconds(1);
    EXPECT_FALSE(recorder.poll().has_value());

    // A burst lands in one window: dump fires.
    counter.inc(4);
    tick += std::chrono::seconds(1);
    const auto dump = recorder.poll();
    ASSERT_TRUE(dump.has_value());
    EXPECT_EQ(dump->reason, "abort_burst");
    EXPECT_EQ(recorder.dumps(), 1u);

    // The dump is a self-contained, parseable document.
    const JsonValue doc = JsonValue::parseFile(dump->path);
    ASSERT_NE(doc.find("schema"), nullptr);
    EXPECT_EQ(doc.find("schema")->asString(), "repro.flight.v1");
    EXPECT_EQ(doc.find("reason")->asString(), "abort_burst");
    ASSERT_NE(doc.find("spans"), nullptr);
    ASSERT_TRUE(doc.find("spans")->isArray());
    ASSERT_GE(doc.find("spans")->array().size(), 1u);
    bool sawAbortSpan = false;
    for (const JsonValue &span : doc.find("spans")->array()) {
        if (span.find("kind")->asString() == "abort" &&
            span.find("session")->asNumber() == 5.0)
            sawAbortSpan = true;
    }
    EXPECT_TRUE(sawAbortSpan);
    ASSERT_NE(doc.find("metrics"), nullptr);
    EXPECT_TRUE(doc.find("metrics")->isObject());
    ASSERT_NE(doc.find("abort_reports"), nullptr);
    EXPECT_TRUE(doc.find("abort_reports")->isArray());

    // maxDumps reached: another burst no longer triggers.
    counter.inc(10);
    tick += std::chrono::seconds(1);
    EXPECT_FALSE(recorder.poll().has_value());
    // ... but a manual dump still works and advances the sequence.
    const auto manual = recorder.dump("manual");
    ASSERT_TRUE(manual.has_value());
    EXPECT_EQ(manual->sequence, 1u);

    std::filesystem::remove_all(dir);
}

TEST(FlightRecorderTest, LatencySloTriggerUsesWindowQuantile)
{
    const std::string dir =
        ::testing::TempDir() + "obs_flight_slo_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    auto &hist = repro::metrics::MetricsRegistry::global().histogram(
        "test.obs.slo_latency_seconds");
    SpanRecorder rec(16);
    FlightRecorder::Options opts;
    opts.dir = dir;
    opts.latencySloSeconds = 0.5;
    opts.latencyHistogram = "test.obs.slo_latency_seconds";
    opts.watchDwellViolations = false;
    opts.recorder = &rec;
    FlightRecorder recorder(opts);

    EXPECT_FALSE(recorder.poll().has_value()); // Prime.
    for (int i = 0; i < 100; ++i)
        hist.observe(0.01); // Healthy window.
    EXPECT_FALSE(recorder.poll().has_value());
    for (int i = 0; i < 100; ++i)
        hist.observe(2.0); // p99 blows the SLO.
    const auto dump = recorder.poll();
    ASSERT_TRUE(dump.has_value());
    EXPECT_EQ(dump->reason, "latency_slo");
    const JsonValue doc = JsonValue::parseFile(dump->path);
    EXPECT_EQ(doc.find("reason")->asString(), "latency_slo");

    std::filesystem::remove_all(dir);
}

} // namespace
