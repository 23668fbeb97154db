/**
 * @file
 * Cross-validation of the native (std::thread) runtime against the
 * logical engine: same RNG stream derivation, same protocol, so same
 * outputs, commit decisions, and abort counts — bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/ema_model.h"
#include "core/native_runtime.h"
#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "trace/measured_trace.h"
#include "workloads/workload.h"

namespace {

using repro::core::commitProtocolName;
using repro::core::CommitProtocol;
using repro::core::Engine;
using repro::core::NativeRuntime;
using repro::core::StatsConfig;
using repro::core::TlpModel;
using repro::testing::EmaModel;
using repro::trace::MeasuredTrace;
using repro::trace::MeasuredTraceRecorder;
using repro::trace::TaskKind;

StatsConfig
cfg(unsigned chunks, unsigned k, unsigned r)
{
    StatsConfig c;
    c.numChunks = chunks;
    c.altWindowK = k;
    c.numOriginalStates = r;
    return c;
}

TEST(NativeRuntime, SequentialMatchesEngine)
{
    EmaModel::Config mc;
    mc.inputs = 96;
    const EmaModel model(mc);
    const Engine engine;
    const NativeRuntime native(4);

    const auto logical = engine.runSequential(model, {}, 21);
    const auto real = native.runSequential(model, 21);
    ASSERT_EQ(logical.outputs.size(), real.outputs.size());
    for (std::size_t i = 0; i < logical.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(logical.outputs[i], real.outputs[i]);
}

TEST(NativeRuntime, StatsMatchesEngineWhenAllCommit)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    const Engine engine;
    const NativeRuntime native(4);
    const auto config = cfg(8, 8, 3);

    const auto logical =
        engine.runStats(model, {}, TlpModel{}, config, 17);
    const auto real = native.run(model, config, 17);
    EXPECT_EQ(real.commits, logical.commits);
    EXPECT_EQ(real.aborts, logical.aborts);
    ASSERT_EQ(real.outputs.size(), logical.outputs.size());
    for (std::size_t i = 0; i < real.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(real.outputs[i], logical.outputs[i]);
}

TEST(NativeRuntime, StatsMatchesEngineWhenAllAbort)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);
    const Engine engine;
    const NativeRuntime native(3);
    const auto config = cfg(4, 2, 2);

    const auto logical =
        engine.runStats(model, {}, TlpModel{}, config, 5);
    const auto real = native.run(model, config, 5);
    EXPECT_GT(real.aborts, 0u);
    EXPECT_EQ(real.commits, logical.commits);
    EXPECT_EQ(real.aborts, logical.aborts);
    for (std::size_t i = 0; i < real.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(real.outputs[i], logical.outputs[i]);
}

TEST(NativeRuntime, MatchesEngineOnRealWorkloads)
{
    const Engine engine;
    const NativeRuntime native(4);
    for (const auto &name :
         {"swaptions", "streamclassifier", "facetrack"}) {
        const auto w = repro::workloads::makeWorkload(name, 0.25);
        auto config = w->tunedConfig(14);
        config.innerTlpThreads = 1;
        const auto logical = engine.runStats(
            w->model(), w->region(), w->tlpModel(), config, 33);
        const auto real = native.run(w->model(), config, 33);
        EXPECT_EQ(real.commits, logical.commits) << name;
        EXPECT_EQ(real.aborts, logical.aborts) << name;
        ASSERT_EQ(real.outputs.size(), logical.outputs.size());
        for (std::size_t i = 0; i < real.outputs.size(); ++i) {
            ASSERT_DOUBLE_EQ(real.outputs[i], logical.outputs[i])
                << name << " input " << i;
        }
    }
}

TEST(NativeRuntime, SingleChunkIsSequential)
{
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    const NativeRuntime native(2);
    const auto seq = native.runSequential(model, 3);
    const auto one = native.run(model, cfg(1, 1, 1), 3);
    for (std::size_t i = 0; i < seq.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(seq.outputs[i], one.outputs[i]);
}

TEST(NativeRuntime, ThreadCapRespectedFunctionally)
{
    // Running with 1 worker thread must still produce the same result
    // (the cap batches the parallel phase, it must not change it).
    EmaModel::Config mc;
    mc.inputs = 96;
    const EmaModel model(mc);
    const NativeRuntime wide(8), narrow(1);
    const auto config = cfg(6, 4, 2);
    const auto a = wide.run(model, config, 9);
    const auto b = narrow.run(model, config, 9);
    EXPECT_EQ(a.commits, b.commits);
    for (std::size_t i = 0; i < a.outputs.size(); ++i)
        ASSERT_DOUBLE_EQ(a.outputs[i], b.outputs[i]);
}

TEST(NativeRuntime, AbortRewritesSpansAtCorrectGlobalIndices)
{
    // Abort path regression: with C chunks the re-execution writes two
    // spans — [begin, redo_snap) and [redo_snap, end) — directly into
    // the global output array.  An off-by-anything in the redo_snap
    // offset corrupts outputs silently while commits/aborts still
    // match, so check every element against the engine oracle for
    // several all-abort geometries (different K push redo_snap around).
    const Engine engine;
    const NativeRuntime native(4);
    EmaModel::Config mc;
    mc.inputs = 120;
    mc.alpha = 0.01;
    mc.tolerance = 1e-9; // Never matches: every boundary aborts.
    const EmaModel model(mc);
    const struct
    {
        unsigned chunks, k, r;
    } geometries[] = {{5, 2, 1}, {5, 7, 2}, {4, 24, 2}, {3, 39, 1}};
    for (const auto &g : geometries) {
        const auto config = cfg(g.chunks, g.k, g.r);
        const auto logical =
            engine.runStats(model, {}, TlpModel{}, config, 5);
        const auto real = native.run(model, config, 5);
        ASSERT_EQ(real.aborts, g.chunks - 1)
            << "geometry C=" << g.chunks << " did not force all aborts";
        EXPECT_EQ(real.commits, logical.commits);
        ASSERT_EQ(real.outputs.size(), logical.outputs.size());
        for (std::size_t i = 0; i < real.outputs.size(); ++i) {
            ASSERT_DOUBLE_EQ(real.outputs[i], logical.outputs[i])
                << "C=" << g.chunks << ",k=" << g.k << " input " << i;
        }
    }
}

TEST(NativeRuntime, RecordingPreservesResults)
{
    // The recorder is strictly observational: outputs, commits, and
    // aborts must be bit-identical with and without it (acceptance
    // criterion of the measured-trace layer), on both a committing and
    // an aborting run.
    EmaModel::Config mc;
    mc.inputs = 128;
    const NativeRuntime native(4);
    for (const bool aborting : {false, true}) {
        mc.alpha = aborting ? 0.01 : 0.5;
        mc.tolerance = aborting ? 1e-7 : 0.1;
        const EmaModel model(mc);
        const auto config = aborting ? cfg(4, 2, 2) : cfg(8, 8, 3);
        const std::uint64_t seed = aborting ? 5 : 17;

        const auto plain = native.run(model, config, seed);
        MeasuredTraceRecorder rec;
        const auto recorded = native.run(model, config, seed, &rec);
        EXPECT_EQ(recorded.commits, plain.commits);
        EXPECT_EQ(recorded.aborts, plain.aborts);
        ASSERT_EQ(recorded.outputs.size(), plain.outputs.size());
        for (std::size_t i = 0; i < plain.outputs.size(); ++i)
            ASSERT_DOUBLE_EQ(recorded.outputs[i], plain.outputs[i]);
        EXPECT_GT(rec.size(), 0u);

        // Sequential recording, same guarantee.
        const auto seq_plain = native.runSequential(model, seed);
        MeasuredTraceRecorder seq_rec;
        const auto seq_recorded =
            native.runSequential(model, seed, &seq_rec);
        for (std::size_t i = 0; i < seq_plain.outputs.size(); ++i) {
            ASSERT_DOUBLE_EQ(seq_recorded.outputs[i],
                             seq_plain.outputs[i]);
        }
        const MeasuredTrace seq_mt = seq_rec.finish();
        ASSERT_EQ(seq_mt.graph.size(), 1u);
        EXPECT_EQ(seq_mt.graph.task(0).kind, TaskKind::ChunkBody);
    }
}

std::array<std::size_t, repro::trace::kNumTaskKinds>
kindCounts(const MeasuredTrace &mt)
{
    std::array<std::size_t, repro::trace::kNumTaskKinds> counts{};
    for (const auto &t : mt.graph.tasks())
        ++counts[static_cast<std::size_t>(t.kind)];
    return counts;
}

TEST(NativeRuntime, RecordedKindsMatchProtocolWhenAllCommit)
{
    // All-commit run, C=8, K=8, R=3: the measured graph must contain
    // exactly the protocol's task population with true kinds — the
    // runSpan mislabeling bug tagged alt-producer and replica spans
    // ChunkBody, which this distribution catches.  The populations
    // differ per protocol: the pipeline grows every boundary's
    // replicas eagerly, while the barrier regenerates them only when
    // the committed final state misses — never on an all-commit run.
    // Only the barrier has the phase-1 join, recorded as one Sync
    // task.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    const unsigned C = 8, R = 3;
    for (const auto protocol :
         {CommitProtocol::Barrier, CommitProtocol::Pipelined}) {
        const NativeRuntime native(4, protocol);
        MeasuredTraceRecorder rec;
        const auto result = native.run(model, cfg(C, 8, R), 17);
        MeasuredTraceRecorder rec2;
        const auto recorded = native.run(model, cfg(C, 8, R), 17, &rec2);
        ASSERT_EQ(recorded.aborts, 0u);
        ASSERT_EQ(recorded.commits, C - 1);
        ASSERT_EQ(result.aborts, 0u);

        const MeasuredTrace mt = rec2.finish();
        const auto counts = kindCounts(mt);
        const auto count = [&](TaskKind k) {
            return counts[static_cast<std::size_t>(k)];
        };
        EXPECT_EQ(count(TaskKind::Setup), 1u);
        // Bodies: chunk 0..C-2 split around the snapshot (2 each), the
        // last chunk runs in one piece.
        EXPECT_EQ(count(TaskKind::ChunkBody), 2u * (C - 1) + 1u);
        EXPECT_EQ(count(TaskKind::AltProducer), C - 1);
        // Replicas: (R-1) per boundary under the pipeline, none under
        // the barrier (every first compare hits).
        const bool barrier = protocol == CommitProtocol::Barrier;
        const unsigned replicas = barrier ? 0u : (C - 1) * (R - 1);
        EXPECT_EQ(count(TaskKind::OriginalStateGen), replicas);
        // All-commit: every boundary matches on the first comparison.
        EXPECT_EQ(count(TaskKind::StateCompare), C - 1);
        EXPECT_EQ(count(TaskKind::MispecReExec), 0u);
        // The barrier's join is recorded (measured caller wait); the
        // pipeline has no join.
        EXPECT_EQ(count(TaskKind::Sync), barrier ? 1u : 0u);
        // Copies: spec-state clone per alt chunk, snapshot clone per
        // non-final chunk, replica clone per regenerated original.
        EXPECT_EQ(count(TaskKind::StateCopy), (C - 1) + (C - 1) + replicas);
        // Every measured task carries a real (non-negative) duration.
        for (const auto &t : mt.graph.tasks())
            EXPECT_GE(t.work, 0.0);
    }
}

TEST(NativeRuntime, StepSinksShareOneClockPair)
{
    // Each timed step reads the clock once at each end and hands the
    // same pair to its span, its phase histogram, and its recorded
    // task, so the three agree: every span lasts exactly as long as
    // the task it times, and each histogram's interval sums exactly
    // the spans of its kind.  Same all-commit config as above.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    using repro::obs::SpanKind;
    using repro::obs::SpanRecorder;
    struct Step
    {
        SpanKind span;
        TaskKind task;
        const char *hist;
    };
    const Step steps[] = {
        {SpanKind::AltProducer, TaskKind::AltProducer, "alt_producer"},
        {SpanKind::ChunkBody, TaskKind::ChunkBody, "chunk_body"},
        {SpanKind::ReplicaRegen, TaskKind::OriginalStateGen,
         "replica_gen"},
    };
    auto &reg = repro::metrics::MetricsRegistry::global();
    for (const auto protocol :
         {CommitProtocol::Barrier, CommitProtocol::Pipelined}) {
        const std::string name = commitProtocolName(protocol);
        const NativeRuntime native(4, protocol);
        const auto before = reg.snapshot();
        SpanRecorder::global().clear();
        MeasuredTraceRecorder rec;
        const auto result = native.run(model, cfg(8, 8, 3), 17, &rec);
        ASSERT_EQ(result.aborts, 0u) << name;
        const auto spans = SpanRecorder::global().snapshot();
        const auto delta =
            repro::metrics::snapshotDiff(before, reg.snapshot());
        const MeasuredTrace mt = rec.finish();
        ASSERT_EQ(spans.dropped, 0u);

        for (const Step &step : steps) {
            // Durations in ns per chunk, spans and tasks alike, sorted
            // so the two body halves of a chunk and the replicas of a
            // boundary pair up however they interleaved.
            std::map<std::int64_t, std::vector<double>> spanNs, taskNs;
            std::size_t count = 0;
            double seconds = 0.0;
            for (const auto &s : spans.spans) {
                if (s.kind != step.span || s.session != 0)
                    continue;
                const auto ns = static_cast<double>(s.endNs - s.startNs);
                spanNs[s.chunk].push_back(ns);
                ++count;
                seconds += ns * 1e-9;
            }
            for (const auto &t : mt.graph.tasks())
                if (t.kind == step.task)
                    taskNs[t.chunk].push_back(t.work * 1e3);
            ASSERT_EQ(spanNs.size(), taskNs.size())
                << name << " " << step.hist;
            for (auto &[chunk, durations] : spanNs) {
                std::vector<double> &recorded = taskNs[chunk];
                std::sort(durations.begin(), durations.end());
                std::sort(recorded.begin(), recorded.end());
                ASSERT_EQ(durations.size(), recorded.size())
                    << name << " " << step.hist << " chunk " << chunk;
                for (std::size_t i = 0; i < durations.size(); ++i)
                    EXPECT_NEAR(durations[i], recorded[i], 1.0)
                        << name << " " << step.hist << " chunk " << chunk;
            }
            const auto hist = delta.histogramValue(
                "runtime." + name + "." + step.hist + "_seconds");
            EXPECT_EQ(hist.count, count) << name << " " << step.hist;
            EXPECT_NEAR(hist.sumSeconds, seconds, 1e-9)
                << name << " " << step.hist;
        }
    }
}

TEST(NativeRuntime, RecordedKindsMarkAbortsAsMispec)
{
    // All-abort run: speculative bodies of aborted chunks are retagged
    // MispecReExec (like the engine does) and the re-execution spans
    // are recorded as MispecReExec, never ChunkBody.  Pinned to the
    // barrier protocol, whose task population these exact counts
    // describe; the pipelined protocol adds retagged eager replicas
    // (covered by RecordedKindsPipelinedAbortRetagsEagerReplicas).
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);
    const NativeRuntime native(3, CommitProtocol::Barrier);
    const unsigned C = 4;
    MeasuredTraceRecorder rec;
    const auto recorded = native.run(model, cfg(C, 2, 2), 5, &rec);
    ASSERT_EQ(recorded.aborts, C - 1);

    const MeasuredTrace mt = rec.finish();
    const auto counts = kindCounts(mt);
    const auto count = [&](TaskKind k) {
        return counts[static_cast<std::size_t>(k)];
    };
    // Only chunk 0's body commits; every other speculative body (2
    // split spans or 1 whole) plus its re-execution is MispecReExec.
    EXPECT_EQ(count(TaskKind::ChunkBody), 2u);
    // Aborted chunks 1..C-2: 2 speculative spans + 2 redo spans; the
    // last chunk: 1 + 1.
    EXPECT_EQ(count(TaskKind::MispecReExec), 4u * (C - 2) + 2u);
    EXPECT_EQ(count(TaskKind::AltProducer), C - 1);
    EXPECT_EQ(count(TaskKind::StateCompare),
              recorded.commits + 2u * recorded.aborts);
    EXPECT_EQ(count(TaskKind::Sync), 1u);
}

TEST(NativeRuntime, RecordedKindsPipelinedAbortRetagsEagerReplicas)
{
    // Pipelined all-abort run, C=4, R=2: every boundary's replica is
    // generated eagerly from the speculative snapshot.  Chunk 0 is
    // never speculative, so boundary 0's eager replica stays valid;
    // boundaries 1..C-2 follow an abort, so their eager replicas are
    // wasted work — retagged MispecReExec — and regenerated from the
    // re-executed snapshot.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);
    const NativeRuntime native(3, CommitProtocol::Pipelined);
    const unsigned C = 4, R = 2;
    MeasuredTraceRecorder rec;
    const auto recorded = native.run(model, cfg(C, 2, R), 5, &rec);
    ASSERT_EQ(recorded.aborts, C - 1);

    const MeasuredTrace mt = rec.finish();
    const auto counts = kindCounts(mt);
    const auto count = [&](TaskKind k) {
        return counts[static_cast<std::size_t>(k)];
    };
    // Valid replicas that survive with their true kind: one per
    // boundary (R-1 = 1), eager for boundary 0, regenerated for the
    // rest.
    EXPECT_EQ(count(TaskKind::OriginalStateGen), (C - 1) * (R - 1));
    // MispecReExec = the barrier population (speculative bodies of
    // aborted chunks + redo spans: 4 per middle chunk, 2 for the
    // last) plus the discarded eager replicas of boundaries 1..C-2.
    EXPECT_EQ(count(TaskKind::MispecReExec),
              4u * (C - 2) + 2u + (C - 2) * (R - 1));
    // Replica clones: one per eager replica plus one per
    // regeneration.
    EXPECT_EQ(count(TaskKind::StateCopy),
              (C - 1) + (C - 1) /* spec + snapshot clones */
                  + (C - 1) * (R - 1) /* eager replica clones */
                  + (C - 2) * (R - 1) /* regen replica clones */
                  + (C - 2) /* redo snapshot clones */
                  + (C - 1) /* redo start clones */);
    EXPECT_EQ(count(TaskKind::ChunkBody), 2u);
    EXPECT_EQ(count(TaskKind::StateCompare),
              recorded.commits + 2u * recorded.aborts);
    EXPECT_EQ(count(TaskKind::Sync), 0u);
}

TEST(NativeRuntime, ReplicasRegenerateOnlyOnFirstMiss)
{
    // R = 3 on the config whose boundaries split three ways: the
    // committed final state matches, only a replica matches, or
    // nothing does (the serving oracle pins the same config).  Each
    // boundary compares against the committed final state first and
    // regenerates replicas from the committed snapshot only on a miss
    // with no valid eager replicas; the results stay bit-identical to
    // the engine, which prices every replica.  The replica counter
    // pins the schedule: under the barrier, R-1 regenerations per
    // first miss and none per first hit; under the pipeline, R-1
    // eager replicas per boundary plus R-1 per first miss after a
    // re-executed chunk.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.noise = 0.3;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    const unsigned C = 16, R = 3;
    const auto config = cfg(C, 4, R);
    const std::uint64_t seed = 3;
    const auto logical =
        Engine().runStats(model, {}, TlpModel{}, config, seed);
    auto &regens = repro::metrics::MetricsRegistry::global().counter(
        "runtime.replica_regens");
    auto &spans = repro::obs::SpanRecorder::global();
    ASSERT_TRUE(repro::obs::enabled());
    for (const auto protocol :
         {CommitProtocol::Barrier, CommitProtocol::Pipelined}) {
        for (const bool recorded : {false, true}) {
            SCOPED_TRACE(std::string(commitProtocolName(protocol)) +
                         (recorded ? " recorded" : " plain"));
            spans.clear();
            MeasuredTraceRecorder rec;
            const auto before = regens.value();
            const auto real = NativeRuntime(4, protocol).run(
                model, config, seed, recorded ? &rec : nullptr);
            const auto regenerated = regens.value() - before;
            EXPECT_EQ(real.commits, logical.commits);
            EXPECT_EQ(real.aborts, logical.aborts);
            ASSERT_EQ(real.outputs.size(), logical.outputs.size());
            for (std::size_t i = 0; i < real.outputs.size(); ++i)
                ASSERT_DOUBLE_EQ(real.outputs[i], logical.outputs[i])
                    << "input " << i;

            // How each chunk committed, from its Commit span: -1 the
            // committed final state matched, >= 0 that replica
            // matched, -2 re-executed after an abort.
            std::vector<std::int64_t> outcome(C, -3);
            for (const repro::obs::Span &s : spans.snapshot().spans)
                if (s.kind == repro::obs::SpanKind::Commit &&
                    s.chunk >= 1 && s.chunk < static_cast<int>(C))
                    outcome[s.chunk] = s.detail;
            unsigned hits = 0, rescues = 0, aborts = 0, misses = 0;
            unsigned missesAfterReexec = 0;
            for (unsigned c = 1; c < C; ++c) {
                ASSERT_NE(outcome[c], -3) << "chunk " << c;
                hits += outcome[c] == -1;
                rescues += outcome[c] >= 0;
                aborts += outcome[c] == -2;
                misses += outcome[c] != -1;
                missesAfterReexec += outcome[c] != -1 && c >= 2 &&
                                     outcome[c - 1] == -2;
            }
            EXPECT_GT(hits, 0u) << "config must commit on a first hit";
            EXPECT_GT(rescues, 0u) << "config must commit on a replica";
            EXPECT_GT(aborts, 0u) << "config must abort";
            EXPECT_EQ(aborts, real.aborts);
            EXPECT_EQ(regenerated,
                      (R - 1) * (protocol == CommitProtocol::Barrier
                                     ? misses
                                     : (C - 1) + missesAfterReexec));
            if (!recorded)
                continue;

            // Every replica compare waits on its own OriginalStateGen
            // task: exactly one of the boundary's replicas feeds it,
            // and no two compares share one.
            const MeasuredTrace mt = rec.finish();
            const auto &tasks = mt.graph.tasks();
            std::vector<std::vector<repro::trace::TaskId>> compares(C - 1);
            for (const auto &t : tasks)
                if (t.kind == TaskKind::StateCompare)
                    compares.at(t.chunk).push_back(t.id);
            for (unsigned c = 0; c + 1 < C; ++c) {
                ASSERT_EQ(compares[c].size() > 1, outcome[c + 1] != -1)
                    << "boundary " << c;
                std::vector<repro::trace::TaskId> sources;
                for (std::size_t k = 1; k < compares[c].size(); ++k) {
                    std::vector<repro::trace::TaskId> gens;
                    for (const auto d : tasks[compares[c][k]].deps)
                        if (tasks[d].kind == TaskKind::OriginalStateGen &&
                            tasks[d].chunk == static_cast<int>(c))
                            gens.push_back(d);
                    ASSERT_EQ(gens.size(), 1u)
                        << "boundary " << c << " compare " << k;
                    EXPECT_EQ(std::count(sources.begin(), sources.end(),
                                         gens[0]),
                              0)
                        << "boundary " << c << " compare " << k;
                    sources.push_back(gens[0]);
                }
            }
        }
    }
}

TEST(NativeRuntime, BothProtocolsMatchEngineAcrossAbortHeavySweep)
{
    // The tentpole acceptance criterion: for every (K, R) point of an
    // abort-heavy sweep, both commit protocols — with and without a
    // recorder attached — produce outputs, commits, and aborts
    // bit-identical to the Engine::runStats oracle.  The EMA model's
    // tight tolerance forces mispeculation on most boundaries, so the
    // pipelined abort path (discard eager replicas, re-execute off the
    // main thread, regenerate from the redo snapshot) is exercised
    // throughout the sweep, not just on one config.
    const Engine engine;
    EmaModel::Config mc;
    mc.inputs = 160;
    mc.alpha = 0.05;
    mc.tolerance = 1e-6;
    const EmaModel model(mc);
    unsigned total_aborts = 0;
    for (const unsigned k : {1u, 5u, 13u}) {
        for (const unsigned r : {1u, 2u, 4u}) {
            const auto config = cfg(5, k, r);
            const auto logical =
                engine.runStats(model, {}, TlpModel{}, config, 29);
            total_aborts += logical.aborts;
            for (const auto protocol : {CommitProtocol::Barrier,
                                        CommitProtocol::Pipelined}) {
                const NativeRuntime native(4, protocol);
                MeasuredTraceRecorder rec;
                const auto plain = native.run(model, config, 29);
                const auto recorded =
                    native.run(model, config, 29, &rec);
                for (const auto *run : {&plain, &recorded}) {
                    const char *what =
                        run == &plain ? "plain" : "recorded";
                    EXPECT_EQ(run->commits, logical.commits)
                        << commitProtocolName(protocol) << " " << what
                        << " K=" << k << " R=" << r;
                    EXPECT_EQ(run->aborts, logical.aborts)
                        << commitProtocolName(protocol) << " " << what
                        << " K=" << k << " R=" << r;
                    ASSERT_EQ(run->outputs.size(),
                              logical.outputs.size());
                    for (std::size_t i = 0; i < run->outputs.size();
                         ++i) {
                        ASSERT_DOUBLE_EQ(run->outputs[i],
                                         logical.outputs[i])
                            << commitProtocolName(protocol) << " "
                            << what << " K=" << k << " R=" << r
                            << " input " << i;
                    }
                }
            }
        }
    }
    // The sweep must actually be abort-heavy, or it proves nothing
    // about the abort path.
    EXPECT_GT(total_aborts, 10u);
}

TEST(NativeRuntime, PipelinedMatchesBarrierOnRealWorkloads)
{
    // Same workload matrix as MatchesEngineOnRealWorkloads, but
    // cross-checking the two protocols directly against each other.
    for (const auto &name :
         {"swaptions", "streamclassifier", "facetrack"}) {
        const auto w = repro::workloads::makeWorkload(name, 0.25);
        auto config = w->tunedConfig(14);
        config.innerTlpThreads = 1;
        const NativeRuntime barrier(4, CommitProtocol::Barrier);
        const NativeRuntime pipelined(4, CommitProtocol::Pipelined);
        const auto a = barrier.run(w->model(), config, 33);
        const auto b = pipelined.run(w->model(), config, 33);
        EXPECT_EQ(a.commits, b.commits) << name;
        EXPECT_EQ(a.aborts, b.aborts) << name;
        ASSERT_EQ(a.outputs.size(), b.outputs.size());
        for (std::size_t i = 0; i < a.outputs.size(); ++i)
            ASSERT_DOUBLE_EQ(a.outputs[i], b.outputs[i])
                << name << " input " << i;
    }
}

TEST(NativeRuntimeDeathTest, RequiresStatsTlp)
{
    // The global pool's workers are alive by now; a plain fork() would
    // copy their locks in whatever state they hold, and the child can
    // hang on one.  "threadsafe" re-executes the binary instead.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    const NativeRuntime native(2);
    StatsConfig config = cfg(4, 2, 1);
    config.useStatsTlp = false;
    EXPECT_EXIT(native.run(model, config, 1),
                ::testing::ExitedWithCode(1), "useStatsTlp");
}

} // namespace
