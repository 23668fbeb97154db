#include "analysis/overheads.h"

#include <algorithm>
#include <map>

#include "util/log.h"

namespace repro::analysis {

using core::RunResult;
using core::StatsConfig;
using platform::SimOptions;
using platform::Simulator;
using trace::TaskGraph;
using trace::TaskKind;

namespace {

/** The §III-B extra-computation kinds. */
constexpr TaskKind kExtraKinds[] = {
    TaskKind::AltProducer, TaskKind::OriginalStateGen,
    TaskKind::StateCompare, TaskKind::StateCopy, TaskKind::Setup};

SimOptions
withoutKinds(SimOptions base, std::initializer_list<TaskKind> kinds)
{
    for (TaskKind k : kinds)
        base.kindCostScale[static_cast<std::size_t>(k)] = 0.0;
    return base;
}

/** Copy of @p graph with every chunk's body work set to the mean
 *  across chunks (the perfect-balance counterfactual). */
TaskGraph
balancedCopy(const TaskGraph &graph)
{
    // Mean body work per chunk.
    std::map<std::int32_t, double> chunk_work;
    for (const auto &t : graph.tasks()) {
        if (t.kind == TaskKind::ChunkBody && t.chunk != trace::kNoChunk)
            chunk_work[t.chunk] += t.work;
    }
    if (chunk_work.empty())
        return graph;
    double total = 0.0;
    for (const auto &[chunk, work] : chunk_work)
        total += work;
    const double mean = total / static_cast<double>(chunk_work.size());

    TaskGraph balanced = graph;
    for (const auto &t : graph.tasks()) {
        if (t.kind != TaskKind::ChunkBody || t.chunk == trace::kNoChunk)
            continue;
        const double cw = chunk_work[t.chunk];
        if (cw <= 0.0)
            continue;
        balanced.mutableTask(t.id).work = t.work * mean / cw;
    }
    return balanced;
}

} // namespace

const char *
overheadCategoryName(OverheadCategory category)
{
    switch (category) {
      case OverheadCategory::Synchronization: return "synchronization";
      case OverheadCategory::ExtraComputation: return "extra-computation";
      case OverheadCategory::Imbalance:       return "imbalance";
      case OverheadCategory::SequentialCode:  return "sequential-code";
      case OverheadCategory::Mispeculation:   return "mispeculation";
      case OverheadCategory::Unreachability:  return "unreachability";
      case OverheadCategory::NumCategories:   break;
    }
    return "?";
}

OverheadAnalyzer::OverheadAnalyzer(const core::Engine &engine,
                                   platform::MachineModel machine)
    : engine_(engine), machine_(std::move(machine))
{
}

double
OverheadAnalyzer::sequentialTime(const workloads::Workload &workload,
                                 std::uint64_t seed) const
{
    const RunResult seq = engine_.runSequential(workload.model(),
                                                workload.region(), seed);
    return Simulator(machine_).run(seq.graph).makespan;
}

TaskGraph
OverheadAnalyzer::balancedGraph(const TaskGraph &graph)
{
    return balancedCopy(graph);
}

OverheadBreakdown
analyzeMeasuredGraph(const TaskGraph &graph, unsigned cores,
                     double sequential_seconds, unsigned commits,
                     unsigned aborts)
{
    REPRO_ASSERT(cores > 0, "measured ladder needs at least one core");
    REPRO_ASSERT(sequential_seconds > 0.0,
                 "measured ladder needs a positive sequential time");
    const platform::MachineModel machine =
        platform::MachineModel::measured(cores);
    // Measured work units are microseconds; so are this machine's
    // "cycles" (ghz = 1e-3 => seconds() divides by 1e6).
    const double t_seq = sequential_seconds * 1e6;

    OverheadBreakdown out;
    out.idealSpeedup = static_cast<double>(cores);
    out.commits = commits;
    out.aborts = aborts;

    auto speedup_of = [&](const TaskGraph &g, const SimOptions &opt) {
        const double t = Simulator(machine, opt).run(g).makespan;
        REPRO_ASSERT(t > 0.0, "zero makespan in what-if simulation");
        return t_seq / t;
    };

    // Each rung is at least the one below it and at most ideal: a
    // replay faster than the cores allow can only come from timing
    // noise between the recorded run and the sequential baseline, and
    // capping it keeps the losses a partition of [actual, ideal].
    const double ideal = out.idealSpeedup;
    auto rung = [&](double below, double s) {
        return std::min(ideal, std::max(below, s));
    };

    const SimOptions base;
    const double s0 = speedup_of(graph, base);
    out.actualSpeedup = s0;

    const SimOptions no_seqcode = withoutKinds(base, {TaskKind::SeqCode});
    const double s1 = rung(s0, speedup_of(graph, no_seqcode));

    const SimOptions no_sync = withoutKinds(no_seqcode, {TaskKind::Sync});
    const double s2 = rung(s1, speedup_of(graph, no_sync));

    SimOptions no_extra = no_sync;
    for (TaskKind k : kExtraKinds)
        no_extra.kindCostScale[static_cast<std::size_t>(k)] = 0.0;
    const double s3 = rung(s2, speedup_of(graph, no_extra));

    const TaskGraph balanced = balancedCopy(graph);
    const double s4 = rung(s3, speedup_of(balanced, no_extra));

    const SimOptions no_mispec =
        withoutKinds(no_extra, {TaskKind::MispecReExec});
    const double s5 = rung(s4, speedup_of(balanced, no_mispec));

    auto lost = [&](double hi, double lo) {
        return std::max(0.0, (hi - lo) / ideal);
    };
    auto &frac = out.lostFraction;
    frac[static_cast<std::size_t>(OverheadCategory::SequentialCode)] =
        lost(s1, s0);
    frac[static_cast<std::size_t>(OverheadCategory::Synchronization)] =
        lost(s2, s1);
    frac[static_cast<std::size_t>(OverheadCategory::ExtraComputation)] =
        lost(s3, s2);
    frac[static_cast<std::size_t>(OverheadCategory::Imbalance)] =
        lost(s4, s3);
    frac[static_cast<std::size_t>(OverheadCategory::Mispeculation)] =
        lost(s5, s4);
    frac[static_cast<std::size_t>(OverheadCategory::Unreachability)] =
        lost(ideal, s5);
    return out;
}

StatsConfig
OverheadAnalyzer::mispecFreeConfig(const StatsConfig &config,
                                   std::size_t num_inputs) const
{
    // "The more parallel chunks, the more speculations, the more
    // potential mispeculations" (§III-E): without aborts the autotuner
    // would raise the chunk count until the cores are filled.
    StatsConfig free = config;
    free.numChunks = std::max(config.numChunks, machine_.numCores);
    free.numChunks = static_cast<unsigned>(std::min<std::size_t>(
        free.numChunks, num_inputs / 2));
    const std::size_t chunk_len =
        std::max<std::size_t>(num_inputs / free.numChunks, 2);
    free.altWindowK = static_cast<unsigned>(std::max<std::size_t>(
        std::min<std::size_t>(config.altWindowK, chunk_len - 1), 1));
    return free;
}

OverheadBreakdown
OverheadAnalyzer::analyze(const workloads::Workload &workload,
                          const StatsConfig &config,
                          std::uint64_t seed) const
{
    const auto &model = workload.model();
    const auto region = workload.region();
    const auto tlp = workload.tlpModel();

    const double t_seq = sequentialTime(workload, seed);
    const RunResult run =
        engine_.runStats(model, region, tlp, config, seed);

    OverheadBreakdown out;
    out.idealSpeedup = static_cast<double>(machine_.numCores);
    out.commits = run.commits;
    out.aborts = run.aborts;

    auto speedup_of = [&](const TaskGraph &graph, const SimOptions &opt) {
        const double t = Simulator(machine_, opt).run(graph).makespan;
        REPRO_ASSERT(t > 0.0, "zero makespan in what-if simulation");
        return t_seq / t;
    };

    // Ladder of counterfactuals (see header).  Sequential code is
    // removed first: it lives outside the STATS region, and removing
    // it first keeps its Amdahl cap from masking the execution-model
    // overheads.  Each rung is clamped to the previous one (a removal
    // can only help), so the per-category losses partition
    // [actual, ideal] exactly.
    const SimOptions base;
    const double s0 = speedup_of(run.graph, base);
    out.actualSpeedup = s0;

    const SimOptions no_seqcode =
        withoutKinds(base, {TaskKind::SeqCode});
    const double s1 = std::max(s0, speedup_of(run.graph, no_seqcode));

    const SimOptions no_sync =
        withoutKinds(no_seqcode, {TaskKind::Sync});
    const double s2 = std::max(s1, speedup_of(run.graph, no_sync));

    SimOptions no_extra = no_sync;
    for (TaskKind k : kExtraKinds) {
        no_extra.kindCostScale[static_cast<std::size_t>(k)] = 0.0;
    }
    const double s3 = std::max(s2, speedup_of(run.graph, no_extra));

    const TaskGraph balanced = balancedGraph(run.graph);
    const double s4 = std::max(s3, speedup_of(balanced, no_extra));

    // Mispeculation-free counterfactual: enough chunks, all commits,
    // re-executions gone; same removals as step 4 plus the re-execution
    // kind itself.
    const StatsConfig free_cfg =
        mispecFreeConfig(config, model.numInputs());
    const RunResult free_run = engine_.runStats(
        model, region, tlp, free_cfg, seed, /*force_all_commit=*/true);
    const SimOptions no_mispec =
        withoutKinds(no_extra, {TaskKind::MispecReExec});
    const double s5 = std::min(
        out.idealSpeedup,
        std::max(s4, speedup_of(balancedGraph(free_run.graph),
                                no_mispec)));

    const double ideal = out.idealSpeedup;
    auto lost = [&](double hi, double lo) {
        return std::max(0.0, (hi - lo) / ideal);
    };
    auto &frac = out.lostFraction;
    frac[static_cast<std::size_t>(OverheadCategory::SequentialCode)] =
        lost(s1, s0);
    frac[static_cast<std::size_t>(OverheadCategory::Synchronization)] =
        lost(s2, s1);
    frac[static_cast<std::size_t>(OverheadCategory::ExtraComputation)] =
        lost(s3, s2);
    frac[static_cast<std::size_t>(OverheadCategory::Imbalance)] =
        lost(s4, s3);
    frac[static_cast<std::size_t>(OverheadCategory::Mispeculation)] =
        lost(s5, s4);
    frac[static_cast<std::size_t>(OverheadCategory::Unreachability)] =
        lost(ideal, s5);
    return out;
}

ExtraComputationBreakdown
OverheadAnalyzer::analyzeExtraComputation(
    const workloads::Workload &workload, const StatsConfig &config,
    std::uint64_t seed) const
{
    const auto &model = workload.model();
    const double t_seq = sequentialTime(workload, seed);
    const RunResult run = engine_.runStats(model, workload.region(),
                                           workload.tlpModel(), config,
                                           seed);

    ExtraComputationBreakdown out;

    // Fig. 11: busy-time shares within the extra computation.
    const auto sched = Simulator(machine_).run(run.graph);
    const double spec =
        sched.busyByKind[static_cast<std::size_t>(TaskKind::AltProducer)];
    const double orig = sched.busyByKind[static_cast<std::size_t>(
        TaskKind::OriginalStateGen)];
    const double cmp = sched.busyByKind[static_cast<std::size_t>(
        TaskKind::StateCompare)];
    const double setup =
        sched.busyByKind[static_cast<std::size_t>(TaskKind::Setup)];
    const double copy =
        sched.busyByKind[static_cast<std::size_t>(TaskKind::StateCopy)];
    const double total = spec + orig + cmp + setup + copy;
    if (total > 0.0) {
        out.specStateTime = spec / total;
        out.origStatesTime = orig / total;
        out.comparisonsTime = cmp / total;
        out.setupTime = setup / total;
        out.copyTime = copy / total;
    }

    // Fig. 13: speedup lost to each subcategory alone.
    const double s_actual = t_seq / sched.makespan;
    auto loss_without = [&](TaskKind kind) {
        const Simulator sim(machine_, SimOptions::without({kind}));
        const double s = t_seq / sim.run(run.graph).makespan;
        return std::max(0.0, s - s_actual);
    };
    out.specStateLoss = loss_without(TaskKind::AltProducer);
    out.origStatesLoss = loss_without(TaskKind::OriginalStateGen);
    out.comparisonsLoss = loss_without(TaskKind::StateCompare);
    out.setupLoss = loss_without(TaskKind::Setup);
    out.copyLoss = loss_without(TaskKind::StateCopy);
    return out;
}

} // namespace repro::analysis
