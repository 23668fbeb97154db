/**
 * @file
 * Incremental-execution equivalence of SessionPipeline: a chunk fed
 * through any sequence of advance() calls before its processChunk()
 * produces the outputs, commit decisions, abort count and abort
 * reports (timings aside) of the processChunk()-only run over the same
 * closure trace.
 *
 * The advance schedules cover no advance at all, one input at a time,
 * jumps of several inputs, only the K held-back inputs (the body never
 * moves before the close), the whole chunk, and — in every closure
 * trace — a short last chunk, as a deadline closure produces.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/ema_model.h"
#include "core/versioned_state.h"
#include "obs/abort_report.h"
#include "serving/session_pipeline.h"
#include "util/thread_pool.h"
#include "workloads/workload.h"

namespace {

using repro::core::IStateModel;
using repro::core::ScopedStateVersioning;
using repro::core::StateVersioning;
using repro::obs::AbortLog;
using repro::obs::AbortReport;
using repro::serving::SessionPipeline;
using repro::testing::EmaModel;

/** The queued counts a chunk of @p count inputs is advanced with
 *  before it closes, K being the session's alt window. */
using Schedule =
    std::function<std::vector<std::size_t>(std::size_t count, std::size_t K)>;

struct NamedSchedule
{
    const char *name;
    Schedule queued;
};

std::vector<std::size_t>
upTo(std::size_t last, std::size_t step)
{
    std::vector<std::size_t> q;
    for (std::size_t n = 1; n <= last; n += step)
        q.push_back(n);
    return q;
}

const std::vector<NamedSchedule> &
schedules()
{
    static const std::vector<NamedSchedule> all{
        {"none", [](std::size_t, std::size_t) {
             return std::vector<std::size_t>{};
         }},
        {"one-at-a-time",
         [](std::size_t count, std::size_t) { return upTo(count, 1); }},
        {"jumps",
         [](std::size_t count, std::size_t) { return upTo(count, 5); }},
        {"held-back-only",
         [](std::size_t count, std::size_t K) {
             return upTo(std::min(count, K), 1);
         }},
        {"whole-chunk",
         [](std::size_t count, std::size_t) {
             return std::vector<std::size_t>{count};
         }},
    };
    return all;
}

/** Chunks of @p size, then a last chunk of @p tail inputs, cut short
 *  as a deadline closure cuts it. */
std::vector<std::size_t>
closureTrace(std::size_t n, std::size_t size, std::size_t tail)
{
    std::vector<std::size_t> sizes;
    for (std::size_t left = n - tail; left > 0; left -= sizes.back())
        sizes.push_back(std::min(size, left));
    sizes.push_back(tail);
    return sizes;
}

/** Everything a run decides, abort-report timings aside. */
struct RunRecord
{
    std::vector<double> outputs;
    std::vector<bool> aborted;
    std::vector<std::size_t> firstInputs;
    unsigned commits = 0;
    unsigned aborts = 0;
    std::string reports;
};

/** The non-timing fields of every retained abort report. */
std::string
describeAbortReports()
{
    std::ostringstream out;
    for (const AbortReport &r : AbortLog::global().recent()) {
        out << "session " << r.session << " chunk " << r.chunk
            << " inputs " << r.firstInput << "+" << r.inputCount
            << " headline " << r.mismatchCandidate << " block "
            << r.firstDiffBlock << " bytes " << r.bytesCompared << " |";
        for (const auto &cmp : r.comparisons)
            out << " " << cmp.candidate << (cmp.matched ? "=" : "!")
                << cmp.firstDiffBlock << "/" << cmp.bytesCompared;
        out << "\n";
    }
    return out.str();
}

RunRecord
runTrace(const IStateModel &model, SessionPipeline::Config pc,
         std::uint64_t seed, const std::vector<std::size_t> &trace,
         const Schedule *schedule)
{
    AbortLog::global().clear();
    SessionPipeline pipeline(model, pc, seed,
                             &repro::util::ThreadPool::global());
    pipeline.setTraceContext(/*session=*/21, /*parentSpan=*/0);
    RunRecord run;
    for (const std::size_t count : trace) {
        if (schedule)
            for (const std::size_t q : (*schedule)(count, pc.altWindowK))
                pipeline.advance(q);
        const auto chunk = pipeline.processChunk(count);
        EXPECT_FALSE(pipeline.begun());
        run.outputs.insert(run.outputs.end(), chunk.outputs.begin(),
                           chunk.outputs.end());
        run.aborted.push_back(chunk.aborted);
        run.firstInputs.push_back(chunk.firstInput);
    }
    run.commits = pipeline.commits();
    run.aborts = pipeline.aborts();
    run.reports = describeAbortReports();
    AbortLog::global().clear();
    return run;
}

/** Runs @p trace processChunk-only and under every advance schedule;
 *  returns the reference run. */
RunRecord
expectAdvanceIsUnobservable(const IStateModel &model,
                            SessionPipeline::Config pc, std::uint64_t seed,
                            const std::vector<std::size_t> &trace)
{
    const RunRecord ref = runTrace(model, pc, seed, trace, nullptr);
    for (const NamedSchedule &s : schedules()) {
        const RunRecord got = runTrace(model, pc, seed, trace, &s.queued);
        EXPECT_EQ(got.commits, ref.commits) << s.name;
        EXPECT_EQ(got.aborts, ref.aborts) << s.name;
        EXPECT_EQ(got.aborted, ref.aborted) << s.name;
        EXPECT_EQ(got.firstInputs, ref.firstInputs) << s.name;
        EXPECT_EQ(got.reports, ref.reports) << s.name;
        EXPECT_TRUE(got.outputs == ref.outputs) << s.name;
    }
    return ref;
}

TEST(SessionPipelineAdvance, AbortHeavyEmaMatchesProcessChunkOnly)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.01;
    mc.tolerance = 1e-7;
    const EmaModel model(mc);
    const RunRecord ref = expectAdvanceIsUnobservable(
        model, {2, 2}, 5, closureTrace(mc.inputs, 20, 3));
    EXPECT_GT(ref.aborts, 0u) << "config must exercise the abort path";
    EXPECT_FALSE(ref.reports.empty());
}

TEST(SessionPipelineAdvance, ReplicaRescueEmaMatchesProcessChunkOnly)
{
    EmaModel::Config mc;
    mc.inputs = 128;
    mc.alpha = 0.5;
    mc.noise = 0.3;
    mc.tolerance = 0.1;
    const EmaModel model(mc);
    const RunRecord ref = expectAdvanceIsUnobservable(
        model, {4, 3}, 3, closureTrace(mc.inputs, 8, 3));
    EXPECT_GT(ref.commits, 0u);
    EXPECT_GT(ref.aborts, 0u);
}

TEST(SessionPipelineAdvance, FacetrackMatchesProcessChunkOnlyUnderBothModes)
{
    // Block-backed state under CopyOnWrite makes the reports' block
    // fields real; Deep runs the same trace on legacy clones.
    const auto workload = repro::workloads::makeWorkload("facetrack", 1.0);
    const IStateModel &model = workload->model();
    for (const auto mode :
         {StateVersioning::CopyOnWrite, StateVersioning::Deep}) {
        const ScopedStateVersioning scope(mode);
        const RunRecord ref = expectAdvanceIsUnobservable(
            model, {16, 2}, 3,
            closureTrace(model.numInputs(), model.numInputs() / 8, 9));
        EXPECT_GT(ref.aborts, 0u)
            << "config must exercise the abort path, mode "
            << static_cast<int>(mode);
    }
}

TEST(SessionPipelineAdvance, AdvanceNeverRunsPastTheHeldBackInputs)
{
    // Outputs of the inputs an advance covered exist before the close;
    // the last K do not, whatever the closure later picks.
    EmaModel::Config mc;
    mc.inputs = 64;
    const EmaModel model(mc);
    SessionPipeline pipeline(model, {3, 1}, 9);
    const auto first = pipeline.processChunk(8);
    EXPECT_FALSE(pipeline.begun());
    pipeline.advance(2); // <= K: begins the chunk, body stays put.
    EXPECT_TRUE(pipeline.begun());
    pipeline.advance(7);
    const auto second = pipeline.processChunk(7);
    EXPECT_EQ(first.outputs.size(), 8u);
    EXPECT_EQ(second.firstInput, 8u);
    EXPECT_EQ(second.outputs.size(), 7u);
    EXPECT_EQ(pipeline.nextInput(), 15u);
    EXPECT_EQ(pipeline.chunksProcessed(), 2u);
}

} // namespace
