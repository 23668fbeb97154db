/**
 * @file
 * What the native runtime's instrumentation layers promise about a
 * batch run: the state-versioning counters show copy-on-write sharing
 * blocks that deep cloning copies, metrics collection switches off
 * completely, a config's protocol counters repeat exactly from run to
 * run, and span tracing never changes a result.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/native_runtime.h"
#include "core/versioned_state.h"
#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "workloads/workload.h"

namespace {

using repro::core::CommitProtocol;
using repro::core::commitProtocolName;
using repro::core::NativeRuntime;
using repro::core::ScopedStateVersioning;
using repro::core::StateVersioning;
using repro::core::StatsConfig;
using repro::metrics::MetricsRegistry;

constexpr CommitProtocol kProtocols[] = {CommitProtocol::Barrier,
                                         CommitProtocol::Pipelined};

/** facetrack: an 8 KB block state, and a config whose boundaries both
 *  commit and abort, so clones, replicas and re-execution all run. */
struct BlockStateRun
{
    std::unique_ptr<repro::workloads::Workload> workload =
        repro::workloads::makeWorkload("facetrack", 0.1);
    StatsConfig config = [] {
        StatsConfig c;
        c.numChunks = 6;
        c.altWindowK = 2;
        c.numOriginalStates = 2;
        return c;
    }();
    std::uint64_t seed = 1;

    NativeRuntime::Result
    run(CommitProtocol protocol) const
    {
        return NativeRuntime(4, protocol)
            .run(workload->model(), config, seed);
    }
};

/** Counters whose name starts with one of @p prefixes, by name. */
std::map<std::string, std::uint64_t>
countersWithPrefix(std::initializer_list<const char *> prefixes)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] :
         MetricsRegistry::global().snapshot().counters)
        for (const char *prefix : prefixes)
            if (name.rfind(prefix, 0) == 0)
                out[name] = value;
    return out;
}

/** after - before, name by name (counters only grow). */
std::map<std::string, std::uint64_t>
deltas(const std::map<std::string, std::uint64_t> &before,
       const std::map<std::string, std::uint64_t> &after)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] : after) {
        const auto it = before.find(name);
        out[name] = value - (it == before.end() ? 0 : it->second);
    }
    return out;
}

/** The state.* counter deltas of one run under @p mode. */
std::map<std::string, std::uint64_t>
stateDeltas(const BlockStateRun &r, CommitProtocol protocol,
            StateVersioning mode)
{
    const ScopedStateVersioning guard(mode);
    const auto before = countersWithPrefix({"state."});
    (void)r.run(protocol);
    return deltas(before, countersWithPrefix({"state."}));
}

TEST(NativeRuntimeInstrumentation, CowCopiesFewerBytesThanDeep)
{
    // The versioning knob exists to stop cloning whole states: a
    // copy-on-write clone shares every block until a write, so the
    // same run copies fewer bytes than deep cloning, and most of its
    // clones' blocks are shared, not copied.  (Identical outputs
    // across the two modes: StatsSweep.StateVersioningModesAreBitIdentical.)
    const BlockStateRun r;
    for (const CommitProtocol protocol : kProtocols) {
        const auto deep = stateDeltas(r, protocol, StateVersioning::Deep);
        const auto cow =
            stateDeltas(r, protocol, StateVersioning::CopyOnWrite);
        const char *name = commitProtocolName(protocol);
        EXPECT_GT(deep.at("state.bytes_copied"), 0u) << name;
        EXPECT_LT(cow.at("state.bytes_copied"),
                  deep.at("state.bytes_copied"))
            << name;
        EXPECT_GT(cow.at("state.blocks_shared"),
                  cow.at("state.blocks_copied"))
            << name;
    }
}

TEST(NativeRuntimeInstrumentation, MetricsOffLeavesRuntimeCountersAlone)
{
    const BlockStateRun r;
    const auto before = countersWithPrefix({"runtime.", "pool."});
    (void)r.run(CommitProtocol::Barrier);
    auto on = deltas(before, countersWithPrefix({"runtime.", "pool."}));
    EXPECT_GT(on.at("runtime.chunks_committed"), 0u);
    // The run hands helper tasks to the pool; a worker may dequeue one
    // only after the caller has drained the work itself, so wait
    // (bounded) until every enqueued task has run.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (on.at("pool.tasks_executed") < on.at("pool.tasks_enqueued") &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        on = deltas(before, countersWithPrefix({"runtime.", "pool."}));
    }
    EXPECT_GT(on.at("pool.tasks_executed"), 0u);

    repro::metrics::setEnabled(false);
    const auto offBefore = countersWithPrefix({"runtime."});
    (void)r.run(CommitProtocol::Barrier);
    const auto offAfter = countersWithPrefix({"runtime."});
    repro::metrics::setEnabled(true);
    EXPECT_EQ(offAfter, offBefore);
}

TEST(NativeRuntimeInstrumentation, CounterDeltasRepeatAcrossRuns)
{
    // The protocol is deterministic, so two runs of one config take
    // the same steps: every runtime.* and state.* counter must move by
    // exactly the same amount.  Growth here is a real regression (more
    // copies, compares or aborts for the same work), not noise.
    const BlockStateRun r;
    for (const CommitProtocol protocol : kProtocols) {
        std::map<std::string, std::uint64_t> first;
        for (int rep = 0; rep < 2; ++rep) {
            const auto before = countersWithPrefix({"runtime.", "state."});
            (void)r.run(protocol);
            const auto d =
                deltas(before, countersWithPrefix({"runtime.", "state."}));
            if (rep == 0)
                first = d;
            else
                EXPECT_EQ(d, first) << commitProtocolName(protocol);
        }
        EXPECT_GT(first.at("runtime.chunks_aborted"), 0u)
            << "config must exercise the abort path";
    }
}

TEST(NativeRuntimeInstrumentation, TracingDoesNotChangeResults)
{
    const BlockStateRun r;
    for (const CommitProtocol protocol : kProtocols) {
        const auto traced = r.run(protocol);
        repro::obs::setEnabled(false);
        const auto untraced = r.run(protocol);
        repro::obs::setEnabled(true);
        const char *name = commitProtocolName(protocol);
        EXPECT_EQ(traced.commits, untraced.commits) << name;
        EXPECT_EQ(traced.aborts, untraced.aborts) << name;
        ASSERT_EQ(traced.outputs.size(), untraced.outputs.size()) << name;
        for (std::size_t i = 0; i < traced.outputs.size(); ++i)
            ASSERT_EQ(traced.outputs[i], untraced.outputs[i])
                << name << " input " << i;
    }
}

} // namespace
