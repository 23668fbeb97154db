/**
 * @file
 * The STATS execution engine.
 *
 * This is the library equivalent of the STATS back-end compiler plus
 * runtime (paper §II-C): given a state dependence (IStateModel) and a
 * configuration (StatsConfig), it *logically executes* the workload under
 * the STATS execution model of §II-B — chunking the input sequence,
 * running alternative producers, regenerating multiple original states at
 * chunk boundaries, comparing states, and committing or aborting
 * speculative chunks in program order — while emitting a task graph that
 * mirrors the parallel structure the real STATS binary would have.  The
 * platform simulator then provides timing for that graph on the modeled
 * machine.  runStats drives the protocol steps NativeRuntime also runs
 * (core/batch_protocol.h) in program order, growing each boundary's
 * replicas before its check as in the paper, and prices every step in
 * a DES cost sink; tests/core/test_engine_digest.cc pins its results.
 *
 * Semantics preservation (tested in tests/core): every committed output
 * sequence could have been produced by the original sequential program,
 * because speculative chunks only commit when their starting state
 * matched a state the original (nondeterministic) computation legitimately
 * produced, and aborted chunks re-execute from the exact committed
 * predecessor state.
 */

#ifndef REPRO_CORE_ENGINE_H
#define REPRO_CORE_ENGINE_H

#include <cstdint>

#include "core/config.h"
#include "core/run_result.h"
#include "core/state_model.h"

namespace repro::core {

/**
 * Work executed outside the STATS region of interest (paper Fig. 8:
 * "Code before STATS" / "Code after STATS").
 */
struct RegionProfile
{
    double seqBeforeWork = 0.0; //!< Ops before the parallelized region.
    double seqAfterWork = 0.0;  //!< Ops after the parallelized region.
};

/**
 * Executes workloads under the sequential, original-TLP, and STATS
 * execution models.
 */
class Engine
{
  public:
    /** Cost constants of the modeled runtime implementation. */
    struct Params
    {
        double setupBaseWork = 10000.0;   //!< Fixed setup ops (§III-B).
        double setupPerThreadWork = 400.0; //!< Setup ops per thread.
        double setupPerStateWork = 100.0;  //!< Setup ops per state buffer.
        double teardownFraction = 0.3;    //!< Teardown = fraction of setup.
        double syncOpsProxy = 200.0;      //!< Ops charged per sync op.
        /** States below this size are replicated per worker thread
         *  (private copies avoid sharing); larger states are shared
         *  within a chunk (Table I accounting). */
        std::size_t perThreadStateCopyLimit = 64 * 1024;
        std::size_t fanoutRoundsPerChunk = 6; //!< TLP rounds per chunk.
        std::size_t taskSlices = 10;       //!< Preemption granularity:
                                          //!< long tasks are emitted as
                                          //!< this many slices so the
                                          //!< scheduler can time-share
                                          //!< oversubscribed cores.
        std::size_t tlpRoundsCap = 256;   //!< Rounds cap, original-TLP run.
    };

    Engine() : params_(Params{}) {}
    explicit Engine(Params params) : params_(params) {}

    /**
     * The original program, sequential build: one thread, no STATS.
     * Reference for speedups, instruction baselines, and Fig. 16.
     */
    RunResult runSequential(const IStateModel &model,
                            const RegionProfile &region,
                            std::uint64_t seed) const;

    /**
     * The original program with only its pre-existing TLP (the black
     * "Original" bars of Fig. 9): per-input work fans out over
     * @p threads workers per @p tlp, the state-dependence chain stays
     * sequential.
     */
    RunResult runOriginalTlp(const IStateModel &model,
                             const RegionProfile &region,
                             const TlpModel &tlp, unsigned threads,
                             std::uint64_t seed) const;

    /**
     * The STATS binary.  config.innerTlpThreads == 1 gives "Seq. STATS"
     * (STATS TLP only); > 1 combines the original TLP within each chunk
     * ("Par. STATS").  config.useStatsTlp == false degenerates to
     * runOriginalTlp.
     *
     * @param force_all_commit Counterfactual used by the mispeculation
     *        analysis (§III-E): every speculation is treated as matching,
     *        so no re-execution happens.
     */
    RunResult runStats(const IStateModel &model, const RegionProfile &region,
                       const TlpModel &tlp, const StatsConfig &config,
                       std::uint64_t seed,
                       bool force_all_commit = false) const;

    /** Engine cost constants. */
    const Params &params() const { return params_; }

  private:
    Params params_;
};

} // namespace repro::core

#endif // REPRO_CORE_ENGINE_H
