/**
 * @file
 * Oracle tests: a serving session fed the batch runtime's chunk
 * boundaries produces bit-identical outputs, commit decisions, and
 * abort counts to NativeRuntime::run for the same (model, config,
 * seed) — across both commit protocols (Barrier/Pipelined) and both
 * state-versioning modes (Deep/CopyOnWrite).
 *
 * This is the determinism contract of the serving mode: streaming,
 * deadline closure, and multiplexing change *when* work happens, never
 * what a given closure trace computes.  The batch runtime derives its
 * boundaries as begin[c] = n*c/C; driving the session with exactly
 * those chunk sizes must reproduce the batch run bit for bit.  (C = 1
 * is excluded by construction: the batch runtime treats a single-chunk
 * run as sequential, which is a different — non-STATS — program.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/ema_model.h"
#include "core/native_runtime.h"
#include "core/versioned_state.h"
#include "metrics/metrics.h"
#include "obs/abort_report.h"
#include "serving/serving_runtime.h"
#include "serving/session_pipeline.h"
#include "util/thread_pool.h"
#include "workloads/workload.h"

namespace {

using repro::core::CommitProtocol;
using repro::core::commitProtocolName;
using repro::core::IStateModel;
using repro::core::NativeRuntime;
using repro::core::ScopedStateVersioning;
using repro::core::StateVersioning;
using repro::core::StatsConfig;
using repro::obs::AbortLog;
using repro::obs::AbortReport;
using repro::serving::ResultChunk;
using repro::serving::ServingOptions;
using repro::serving::ServingRuntime;
using repro::serving::SessionConfig;
using repro::serving::SessionId;
using repro::serving::SessionPipeline;
using repro::serving::SubmitStatus;
using repro::testing::EmaModel;

/** The batch runtime's chunk sizes for n inputs in C chunks. */
std::vector<std::size_t>
batchChunkSizes(std::size_t n, unsigned chunks)
{
    std::vector<std::size_t> sizes(chunks);
    for (unsigned c = 0; c < chunks; ++c)
        sizes[c] = n * (c + 1) / chunks - n * c / chunks;
    return sizes;
}

/** Drives a SessionPipeline with the batch boundaries and compares
 *  every output plus the commit/abort tallies against the oracle. */
void
expectPipelineMatchesBatch(const IStateModel &model,
                           const StatsConfig &config, std::uint64_t seed,
                           CommitProtocol protocol)
{
    const NativeRuntime native(4, protocol);
    const auto oracle = native.run(model, config, seed);

    SessionPipeline::Config pc;
    pc.altWindowK = config.altWindowK;
    pc.numOriginalStates = config.numOriginalStates;
    SessionPipeline pipeline(model, pc, seed,
                             &repro::util::ThreadPool::global());
    std::vector<double> outputs;
    for (const std::size_t size :
         batchChunkSizes(model.numInputs(), config.numChunks)) {
        const auto chunk = pipeline.processChunk(size);
        outputs.insert(outputs.end(), chunk.outputs.begin(),
                       chunk.outputs.end());
    }

    EXPECT_EQ(pipeline.commits(), oracle.commits)
        << commitProtocolName(protocol);
    EXPECT_EQ(pipeline.aborts(), oracle.aborts)
        << commitProtocolName(protocol);
    ASSERT_EQ(outputs.size(), oracle.outputs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i)
        ASSERT_EQ(outputs[i], oracle.outputs[i])
            << commitProtocolName(protocol) << " input " << i;
}

StatsConfig
cfg(unsigned chunks, unsigned k, unsigned r)
{
    StatsConfig c;
    c.numChunks = chunks;
    c.altWindowK = k;
    c.numOriginalStates = r;
    return c;
}

TEST(ServingOracle, PipelineMatchesBatchWhenAllCommit)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    for (const auto protocol :
         {CommitProtocol::Barrier, CommitProtocol::Pipelined})
        expectPipelineMatchesBatch(model, cfg(8, 8, 3), 17, protocol);
}

TEST(ServingOracle, PipelineMatchesBatchWhenAbortsOccur)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);
    for (const auto protocol :
         {CommitProtocol::Barrier, CommitProtocol::Pipelined}) {
        const NativeRuntime native(3, protocol);
        const auto oracle = native.run(model, cfg(4, 2, 2), 5);
        ASSERT_GT(oracle.aborts, 0u)
            << "config must actually exercise the abort path";
        expectPipelineMatchesBatch(model, cfg(4, 2, 2), 5, protocol);
    }
}

TEST(ServingOracle, PipelineMatchesBatchWhenReplicasRescueCommits)
{
    // R = 3 with enough noise that the boundaries split three ways:
    // the committed final state matches, only a replica matches, or
    // nothing does.  The session regenerates replicas only on a
    // first-candidate miss (fanned out on the pool, R-1 = 2), so this
    // is the case that exercises that path against the batch oracle.
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.noise = 0.3;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    auto &reg = repro::metrics::MetricsRegistry::global();
    auto &first = reg.counter("serving.commit_match_first");
    auto &replica = reg.counter("serving.commit_match_replica");
    auto &none = reg.counter("serving.commit_match_none");
    for (const auto protocol :
         {CommitProtocol::Barrier, CommitProtocol::Pipelined}) {
        const auto f0 = first.value();
        const auto r0 = replica.value();
        const auto n0 = none.value();
        expectPipelineMatchesBatch(model, cfg(16, 4, 3), 3, protocol);
        EXPECT_GT(first.value(), f0) << commitProtocolName(protocol);
        EXPECT_GT(replica.value(), r0) << commitProtocolName(protocol);
        EXPECT_GT(none.value(), n0) << commitProtocolName(protocol);
    }
}

TEST(ServingOracle, PipelineMatchesBatchUnderBothVersioningModes)
{
    EmaModel::Config mc;
    mc.inputs = 96;
    mc.alpha = 0.2;
    mc.tolerance = 0.05;
    const EmaModel model(mc);
    for (const auto mode :
         {StateVersioning::Deep, StateVersioning::CopyOnWrite}) {
        const ScopedStateVersioning scope(mode);
        for (const auto protocol :
             {CommitProtocol::Barrier, CommitProtocol::Pipelined})
            expectPipelineMatchesBatch(model, cfg(6, 4, 2), 21,
                                       protocol);
    }
}

TEST(ServingOracle, PipelineMatchesBatchOnBlockStateWorkload)
{
    // A real tracking workload with block-backed particle state, under
    // CopyOnWrite: the serving pipeline must reproduce the batch run
    // on the state layer the server actually deploys with.
    const ScopedStateVersioning cow(StateVersioning::CopyOnWrite);
    const auto workload = repro::workloads::makeWorkload("facetrack", 0.1);
    auto config = workload->tunedConfig(8);
    config.innerTlpThreads = 1;
    for (const auto protocol :
         {CommitProtocol::Barrier, CommitProtocol::Pipelined})
        expectPipelineMatchesBatch(workload->model(), config, 33,
                                   protocol);
}

/** The non-timing fields of every retained abort report, one line
 *  per report in log order. */
std::string
describeAbortReports()
{
    std::ostringstream out;
    for (const AbortReport &r : AbortLog::global().recent()) {
        out << "chunk " << r.chunk << " inputs " << r.firstInput << "+"
            << r.inputCount << " headline " << r.mismatchCandidate
            << " block " << r.firstDiffBlock << " bytes "
            << r.bytesCompared << " |";
        for (const auto &cmp : r.comparisons)
            out << " " << cmp.candidate << (cmp.matched ? "=" : "!")
                << cmp.firstDiffBlock << "/" << cmp.bytesCompared;
        out << "\n";
    }
    return out.str();
}

TEST(ServingOracle, AbortReportsMatchBatch)
{
    // Both batch schedules and a session fed the batch closure trace —
    // closing each chunk whole, or advancing it as its inputs arrive —
    // attribute each abort the same way: same chunk and inputs, same
    // comparisons in check order with the same divergence block and
    // bytes walked, same headline.  facetrack under CopyOnWrite has
    // block-backed state, so the block fields are real; seeds 3, 8
    // and 20 each abort twice at C=8, K=16, R=2.
    const ScopedStateVersioning cow(StateVersioning::CopyOnWrite);
    const auto workload = repro::workloads::makeWorkload("facetrack", 1.0);
    const IStateModel &model = workload->model();
    const auto config = cfg(8, 16, 2);
    SessionPipeline::Config pc;
    pc.altWindowK = config.altWindowK;
    pc.numOriginalStates = config.numOriginalStates;
    for (const std::uint64_t seed : {3u, 8u, 20u}) {
        std::vector<std::string> reports;
        for (const auto protocol :
             {CommitProtocol::Barrier, CommitProtocol::Pipelined}) {
            AbortLog::global().clear();
            NativeRuntime(4, protocol).run(model, config, seed);
            reports.push_back(describeAbortReports());
        }
        AbortLog::global().clear();
        SessionPipeline pipeline(model, pc, seed,
                                 &repro::util::ThreadPool::global());
        for (const std::size_t size :
             batchChunkSizes(model.numInputs(), config.numChunks))
            pipeline.processChunk(size);
        ASSERT_EQ(pipeline.aborts(), 2u) << "seed " << seed;
        reports.push_back(describeAbortReports());

        // The same session, each chunk advanced one input at a time as
        // its inputs arrive: the reports are filed at the close, with
        // the chunk's input count.
        AbortLog::global().clear();
        SessionPipeline fed(model, pc, seed,
                            &repro::util::ThreadPool::global());
        for (const std::size_t size :
             batchChunkSizes(model.numInputs(), config.numChunks)) {
            for (std::size_t queued = 1; queued <= size; ++queued)
                fed.advance(queued);
            fed.processChunk(size);
        }
        ASSERT_EQ(fed.aborts(), 2u) << "seed " << seed;
        reports.push_back(describeAbortReports());

        EXPECT_EQ(std::count(reports[0].begin(), reports[0].end(), '\n'),
                  2)
            << "seed " << seed;
        EXPECT_EQ(reports[1], reports[0]) << "pipelined, seed " << seed;
        EXPECT_EQ(reports[2], reports[0]) << "session, seed " << seed;
        EXPECT_EQ(reports[3], reports[0])
            << "advance-fed session, seed " << seed;
    }
    AbortLog::global().clear();
}

TEST(ServingOracle, EndToEndServingMatchesBatch)
{
    // Full runtime path: submit() through the SPSC ring, closeChunk()
    // at the batch boundaries, strand execution on the pool, callback
    // delivery — outputs still bit-identical to NativeRuntime::run.
    EmaModel::Config mc;
    mc.inputs = 120;
    mc.alpha = 0.3;
    mc.tolerance = 0.02;
    const EmaModel model(mc);
    const auto config = cfg(5, 3, 2);
    const std::uint64_t seed = 77;

    const NativeRuntime native(4);
    const auto oracle = native.run(model, config, seed);

    ServingOptions opts;
    opts.backgroundCoordinator = false;
    ServingRuntime runtime(opts);

    std::mutex mu;
    std::vector<double> outputs;
    unsigned aborted = 0;
    SessionConfig sc;
    sc.seed = seed;
    sc.stats.altWindowK = config.altWindowK;
    sc.stats.numOriginalStates = config.numOriginalStates;
    sc.chunkInputs = 1000; // Closure is driven manually below.
    sc.queueCapacity = 128;
    sc.onResult = [&](const ResultChunk &chunk) {
        const std::lock_guard<std::mutex> lock(mu);
        if (chunk.aborted)
            ++aborted;
        outputs.insert(outputs.end(), chunk.outputs.begin(),
                       chunk.outputs.end());
    };
    const SessionId id = runtime.admit(model, sc);

    for (const std::size_t size :
         batchChunkSizes(model.numInputs(), config.numChunks)) {
        for (std::size_t i = 0; i < size; ++i)
            ASSERT_EQ(runtime.submit(id).status, SubmitStatus::Accepted);
        ASSERT_TRUE(runtime.closeChunk(id));
    }
    runtime.drain(id);

    const auto stats = runtime.sessionStats(id);
    // Chunk 0 is never speculative: the runtime counts it as a
    // processed commit, the batch tally counts boundaries only.
    EXPECT_EQ(stats.commits, oracle.commits + 1u);
    EXPECT_EQ(stats.aborts, oracle.aborts);

    const std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(aborted, oracle.aborts);
    ASSERT_EQ(outputs.size(), oracle.outputs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i)
        ASSERT_EQ(outputs[i], oracle.outputs[i]) << "input " << i;

    runtime.evict(id);
}

} // namespace
