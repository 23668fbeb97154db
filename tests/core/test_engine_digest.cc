/**
 * @file
 * Pinned digests of Engine::runStats on every registry workload.
 *
 * Each digest hashes everything a RunResult carries: every task of the
 * emitted graph (kind, thread, chunk, work, bytes, deps, payload
 * source), the op counts per kind, the outputs, commits and aborts,
 * and the Table I resources.  The constants were computed from the
 * engine while it still ran its own copy of the protocol steps, so
 * they are the independent reference for the DES: once the engine and
 * the native runtime share their steps, an oracle test comparing the
 * two can no longer see a step that drifted in both.  Any intended
 * change to the DES cost model or the protocol moves these constants;
 * regenerate them from the failure messages and say why in the change.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "core/ema_model.h"
#include "core/engine.h"
#include "core/versioned_state.h"
#include "workloads/workload.h"

namespace {

using repro::core::Engine;
using repro::core::RunResult;
using repro::core::ScopedStateVersioning;
using repro::core::StateVersioning;
using repro::core::StatsConfig;
using repro::core::TlpModel;
using repro::testing::EmaModel;
using repro::trace::kNumTaskKinds;
using repro::trace::TaskKind;

constexpr double kScale = 0.25;
constexpr std::uint64_t kSeed = 7;

/** FNV-1a over the bytes of every value fed to it. */
class Digest
{
  public:
    template <typename T>
    void
    add(const T &value)
    {
        unsigned char bytes[sizeof(T)];
        std::memcpy(bytes, &value, sizeof(T));
        for (const unsigned char b : bytes) {
            h_ ^= b;
            h_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t
digestOf(const RunResult &r)
{
    Digest d;
    d.add(r.graph.size());
    for (const auto &t : r.graph.tasks()) {
        d.add(t.id);
        d.add(static_cast<std::uint8_t>(t.kind));
        d.add(t.thread);
        d.add(t.chunk);
        d.add(t.work);
        d.add(static_cast<std::uint64_t>(t.bytes));
        d.add(t.payloadSource);
        d.add(t.deps.size());
        for (const auto dep : t.deps)
            d.add(dep);
    }
    for (std::size_t k = 0; k < kNumTaskKinds; ++k)
        d.add(r.ops.count(static_cast<TaskKind>(k)));
    d.add(r.outputs.size());
    for (const double out : r.outputs)
        d.add(out);
    d.add(r.commits);
    d.add(r.aborts);
    d.add(r.threadsCreated);
    d.add(r.statesCreated);
    d.add(static_cast<std::uint64_t>(r.stateSizeBytes));
    d.add(r.bodyWork);
    return d.value();
}

/** The four pinned setups of one workload. */
enum class RunSetup
{
    Tuned,          //!< tunedConfig(28).
    AbortHeavy,     //!< C=16, k=1, R=2: short windows, the most aborts.
    ForceAllCommit, //!< AbortHeavy under the all-commit counterfactual.
    ParStats,       //!< tunedConfig(28) with 4 inner-TLP threads.
};

struct Pinned
{
    const char *workload;
    RunSetup setup;
    StateVersioning mode;
    std::uint64_t digest;
};

const char *
setupName(RunSetup s)
{
    switch (s) {
    case RunSetup::Tuned:
        return "tuned";
    case RunSetup::AbortHeavy:
        return "abort-heavy";
    case RunSetup::ForceAllCommit:
        return "force-all-commit";
    case RunSetup::ParStats:
        return "par-stats";
    }
    return "?";
}

// clang-format off
constexpr Pinned kPinned[] = {
    {"swaptions", RunSetup::Tuned, StateVersioning::Deep, 0x5219e522558a527eULL},
    {"swaptions", RunSetup::Tuned, StateVersioning::CopyOnWrite, 0x5219e522558a527eULL},
    {"swaptions", RunSetup::AbortHeavy, StateVersioning::Deep, 0xe1102976532cdc3eULL},
    {"swaptions", RunSetup::AbortHeavy, StateVersioning::CopyOnWrite, 0xe1102976532cdc3eULL},
    {"swaptions", RunSetup::ForceAllCommit, StateVersioning::Deep, 0xe1102976532cdc3eULL},
    {"swaptions", RunSetup::ForceAllCommit, StateVersioning::CopyOnWrite, 0xe1102976532cdc3eULL},
    {"swaptions", RunSetup::ParStats, StateVersioning::Deep, 0xed405da58a4e4e77ULL},
    {"swaptions", RunSetup::ParStats, StateVersioning::CopyOnWrite, 0xed405da58a4e4e77ULL},
    {"bodytrack", RunSetup::Tuned, StateVersioning::Deep, 0x3d37de57641916beULL},
    {"bodytrack", RunSetup::Tuned, StateVersioning::CopyOnWrite, 0xa680fcc8af00a2daULL},
    {"bodytrack", RunSetup::AbortHeavy, StateVersioning::Deep, 0x4803e95b876a1c53ULL},
    {"bodytrack", RunSetup::AbortHeavy, StateVersioning::CopyOnWrite, 0x4310d86acafd8101ULL},
    {"bodytrack", RunSetup::ForceAllCommit, StateVersioning::Deep, 0x4803e95b876a1c53ULL},
    {"bodytrack", RunSetup::ForceAllCommit, StateVersioning::CopyOnWrite, 0x4310d86acafd8101ULL},
    {"bodytrack", RunSetup::ParStats, StateVersioning::Deep, 0xf6119da7ce8189feULL},
    {"bodytrack", RunSetup::ParStats, StateVersioning::CopyOnWrite, 0xf37b841d9f4fd2caULL},
    {"facetrack", RunSetup::Tuned, StateVersioning::Deep, 0xcd9ebd7418e544c1ULL},
    {"facetrack", RunSetup::Tuned, StateVersioning::CopyOnWrite, 0x67219dd30429d110ULL},
    {"facetrack", RunSetup::AbortHeavy, StateVersioning::Deep, 0x880c59a707f5b72dULL},
    {"facetrack", RunSetup::AbortHeavy, StateVersioning::CopyOnWrite, 0x3428cb31678aecb8ULL},
    {"facetrack", RunSetup::ForceAllCommit, StateVersioning::Deep, 0x10f93f4fc9740816ULL},
    {"facetrack", RunSetup::ForceAllCommit, StateVersioning::CopyOnWrite, 0x4926acbd153e2c61ULL},
    {"facetrack", RunSetup::ParStats, StateVersioning::Deep, 0x5947bce57c334d87ULL},
    {"facetrack", RunSetup::ParStats, StateVersioning::CopyOnWrite, 0xb3a9f18df33dc97eULL},
    {"facedet-and-track", RunSetup::Tuned, StateVersioning::Deep, 0xa6d180c8ff8007ecULL},
    {"facedet-and-track", RunSetup::Tuned, StateVersioning::CopyOnWrite, 0x343cf8f1bad84f73ULL},
    {"facedet-and-track", RunSetup::AbortHeavy, StateVersioning::Deep, 0x87dd00da4800dfcaULL},
    {"facedet-and-track", RunSetup::AbortHeavy, StateVersioning::CopyOnWrite, 0x49e92a884b6c2848ULL},
    {"facedet-and-track", RunSetup::ForceAllCommit, StateVersioning::Deep, 0x48c30fda6fc9ef21ULL},
    {"facedet-and-track", RunSetup::ForceAllCommit, StateVersioning::CopyOnWrite, 0x5b4c39a5cd80399eULL},
    {"facedet-and-track", RunSetup::ParStats, StateVersioning::Deep, 0xf658f2d6dc429b84ULL},
    {"facedet-and-track", RunSetup::ParStats, StateVersioning::CopyOnWrite, 0x7a42da83cd6462b3ULL},
    {"streamclassifier", RunSetup::Tuned, StateVersioning::Deep, 0x6ebe07796bb62d78ULL},
    {"streamclassifier", RunSetup::Tuned, StateVersioning::CopyOnWrite, 0x6ebe07796bb62d78ULL},
    {"streamclassifier", RunSetup::AbortHeavy, StateVersioning::Deep, 0x90706d9fbfe52608ULL},
    {"streamclassifier", RunSetup::AbortHeavy, StateVersioning::CopyOnWrite, 0x90706d9fbfe52608ULL},
    {"streamclassifier", RunSetup::ForceAllCommit, StateVersioning::Deep, 0x90706d9fbfe52608ULL},
    {"streamclassifier", RunSetup::ForceAllCommit, StateVersioning::CopyOnWrite, 0x90706d9fbfe52608ULL},
    {"streamclassifier", RunSetup::ParStats, StateVersioning::Deep, 0xfb4b9445f17dfd5eULL},
    {"streamclassifier", RunSetup::ParStats, StateVersioning::CopyOnWrite, 0xfb4b9445f17dfd5eULL},
    {"streamcluster", RunSetup::Tuned, StateVersioning::Deep, 0x94d00a86ae40327bULL},
    {"streamcluster", RunSetup::Tuned, StateVersioning::CopyOnWrite, 0xc50475f0e3afea97ULL},
    {"streamcluster", RunSetup::AbortHeavy, StateVersioning::Deep, 0x143641d166458398ULL},
    {"streamcluster", RunSetup::AbortHeavy, StateVersioning::CopyOnWrite, 0xe1f6ad42fb26f44cULL},
    {"streamcluster", RunSetup::ForceAllCommit, StateVersioning::Deep, 0x143641d166458398ULL},
    {"streamcluster", RunSetup::ForceAllCommit, StateVersioning::CopyOnWrite, 0xe1f6ad42fb26f44cULL},
    {"streamcluster", RunSetup::ParStats, StateVersioning::Deep, 0x8130e442b46c59b4ULL},
    {"streamcluster", RunSetup::ParStats, StateVersioning::CopyOnWrite, 0xf95baeda9c8b9f38ULL},
};
// clang-format on

class EngineDigest : public ::testing::TestWithParam<Pinned>
{
};

TEST_P(EngineDigest, MatchesPinnedDigest)
{
    const Pinned &p = GetParam();
    const auto w = repro::workloads::makeWorkload(p.workload, kScale);
    StatsConfig cfg = w->tunedConfig(28);
    bool force_all_commit = false;
    switch (p.setup) {
    case RunSetup::Tuned:
        break;
    case RunSetup::ForceAllCommit:
        force_all_commit = true;
        [[fallthrough]];
    case RunSetup::AbortHeavy:
        cfg.numChunks = 16;
        cfg.altWindowK = 1;
        cfg.numOriginalStates = 2;
        cfg.innerTlpThreads = 1;
        break;
    case RunSetup::ParStats:
        cfg.innerTlpThreads = 4;
        break;
    }
    const ScopedStateVersioning guard(p.mode);
    const RunResult r = Engine().runStats(w->model(), w->region(),
                                          w->tlpModel(), cfg, kSeed,
                                          force_all_commit);
    EXPECT_EQ(digestOf(r), p.digest)
        << p.workload << " " << setupName(p.setup) << " "
        << (p.mode == StateVersioning::Deep ? "deep" : "cow")
        << " digest 0x" << std::hex << digestOf(r) << std::dec
        << " commits " << r.commits << " aborts " << r.aborts;
}

std::string
pinnedName(const ::testing::TestParamInfo<Pinned> &info)
{
    std::string name = std::string(info.param.workload) + "_" +
                       setupName(info.param.setup) + "_" +
                       (info.param.mode == StateVersioning::Deep ? "deep"
                                                                 : "cow");
    for (char &c : name)
        if (c == '-')
            c = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, EngineDigest,
                         ::testing::ValuesIn(kPinned), pinnedName);

/** The registry workloads rarely need a replica; these EMA runs pin the
 *  paths they leave out: a boundary rescued by a replica, an abort
 *  after a re-executed chunk, and an all-abort run, each with and
 *  without inner TLP and under the all-commit counterfactual. */
TEST(EngineDigest, EmaProtocolPathsMatchPinnedDigests)
{
    struct EmaCase
    {
        double alpha, noise, tolerance;
        unsigned chunks, k, r, t;
        std::uint64_t seed;
        bool forceAllCommit;
        std::uint64_t digest;
    };
    // clang-format off
    const EmaCase cases[] = {
        {0.5, 0.3, 0.1, 16, 4, 3, 1, 3, false, 0x3a9454addbfad8c1ULL},
        {0.5, 0.3, 0.1, 16, 4, 3, 3, 3, false, 0xc60eb13e1f7b5f61ULL},
        {0.5, 0.3, 0.1, 16, 4, 3, 1, 3, true, 0x524e8c58ad98ffa8ULL},
        {0.01, 0.0001, 1e-7, 4, 2, 2, 1, 5, false, 0x9a1d5e9e58b1d85dULL},
        {0.01, 0.0001, 1e-7, 4, 2, 2, 2, 5, false, 0x883d5b7e46a6a81dULL},
    };
    // clang-format on
    for (const EmaCase &e : cases) {
        EmaModel::Config mc;
        mc.inputs = 128;
        mc.alpha = e.alpha;
        mc.noise = e.noise;
        mc.tolerance = e.tolerance;
        const EmaModel model(mc);
        StatsConfig cfg;
        cfg.numChunks = e.chunks;
        cfg.altWindowK = e.k;
        cfg.numOriginalStates = e.r;
        cfg.innerTlpThreads = e.t;
        const RunResult r = Engine().runStats(model, {}, TlpModel{}, cfg,
                                              e.seed, e.forceAllCommit);
        EXPECT_EQ(digestOf(r), e.digest)
            << cfg.describe() << (e.forceAllCommit ? " forced" : "")
            << " digest 0x" << std::hex << digestOf(r) << std::dec
            << " commits " << r.commits << " aborts " << r.aborts;
    }
}

TEST(EngineDigest, CoversEveryWorkloadSetupAndMode)
{
    for (const std::string &name : repro::workloads::workloadNames())
        for (const RunSetup s : {RunSetup::Tuned, RunSetup::AbortHeavy,
                              RunSetup::ForceAllCommit, RunSetup::ParStats})
            for (const StateVersioning m :
                 {StateVersioning::Deep, StateVersioning::CopyOnWrite}) {
                int found = 0;
                for (const Pinned &p : kPinned)
                    found += name == p.workload && p.setup == s &&
                             p.mode == m;
                EXPECT_EQ(found, 1) << name << " " << setupName(s);
            }
}

} // namespace
