/**
 * @file
 * Measured Fig.-10-style overhead characterization of a *native* run.
 *
 * Every figure bench re-simulates logical task graphs; this harness
 * instead executes the STATS protocol with real threads
 * (core::NativeRuntime), records a measured task graph through
 * trace::MeasuredTraceRecorder, and feeds it to the same §V-B ladder
 * (analysis::analyzeMeasuredGraph) — printing the measured
 * per-category speedup losses next to the DES prediction for the same
 * (workload, config, seed).  Both commit protocols (barrier and
 * pipelined, core::CommitProtocol) are characterized side by side, so
 * the artifact quantifies exactly what the dependency-driven pipeline
 * buys over the two-phase barrier.  The machine-readable baseline
 * lives in BENCH_native_overheads.json at the repo root.
 *
 * Default config: facedet-and-track at full scale, 4 threads, 5
 * repeats.  facedet-and-track is the workload whose tuned config has
 * R = 3 original states — the commit protocols only differ in how
 * replicas and commits are scheduled, so the default must exercise
 * the replica path (streamclassifier tunes to R = 1: no replicas at
 * all).  Full scale keeps chunk bodies long enough that, even on a
 * host with fewer cores than threads, OS time-sharing averages out
 * inside each chunk and the measured replay separates the protocols
 * above scheduling noise.
 *
 * Flags (bench_common.h style):
 *   --scale=<0..1>     workload input scale          (default 1.0)
 *   --seed=<n>         run seed                      (default 42)
 *   --workload=<name>  benchmark to run              (default facedet-and-track)
 *   --threads=<n>      parallelism cap, 0 = hardware (default 4)
 *   --repeats=<n>      timed runs, best taken        (default 5)
 *   --pipeline=<mode>  on | off | both               (default both)
 *   --versioning=<m>   deep | cow | both             (default both)
 *   --out=<path>       write the JSON here           (default BENCH_native_overheads.json)
 *   --trace=<path>     dump the last mode's measured run as a Chrome trace
 *   --metrics=<on|off> always-on metrics collection  (default on)
 *   --metrics-out=<p>  also write the metrics snapshot to <p>
 *   --trace-out=<p>    dump the recorded obs spans as a Chrome trace
 *   --flight-dir=<d>   write a manual flight-recorder dump into <d>
 *
 * Besides the overhead ladder, the harness prices the always-on
 * metrics themselves: the first protocol's STATS run is timed with
 * collection on and off (interleaved, best of repeats) and the ratio
 * is reported as "metrics_overhead_fraction" — the acceptance bound
 * is < 2%.  The always-on span tracing layer (src/obs/) is priced the
 * same way and reported as "tracing_overhead_fraction", with the same
 * < 2% acceptance bound (CI gates the committed baseline).
 *
 * The harness also prices the state-versioning layer the same way:
 * under --versioning=both (the default) the first protocol's run is
 * repeated under StateVersioning::Deep and ::CopyOnWrite and the §V-B
 * state-copy / state-comparison busy seconds, plus the state.*
 * counter deltas, are reported side by side ("state_versioning" in
 * the JSON).  Outputs must be bit-identical across modes — the knob
 * only changes how state bytes are stored and checked, never what
 * they contain.  --versioning=deep|cow instead pins the whole bench
 * to one mode.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/critical_path.h"
#include "analysis/overheads.h"
#include "bench/bench_common.h"
#include "core/native_runtime.h"
#include "core/versioned_state.h"
#include "metrics/metrics.h"
#include "obs/flight_recorder.h"
#include "obs/span_recorder.h"
#include "platform/machine.h"
#include "platform/measured.h"
#include "platform/trace_export.h"
#include "trace/measured_trace.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/thread_pool.h"

using namespace repro;
using analysis::OverheadBreakdown;
using analysis::OverheadCategory;
using core::CommitProtocol;
using core::NativeRuntime;
using repro::util::formatDouble;
using repro::util::formatPercent;
using repro::util::Table;

namespace {

bool
sameResult(const NativeRuntime::Result &a, const NativeRuntime::Result &b)
{
    return a.outputs == b.outputs && a.commits == b.commits &&
           a.aborts == b.aborts;
}

double
lost(const OverheadBreakdown &b, OverheadCategory c)
{
    return b.lostFraction[static_cast<std::size_t>(c)];
}

void
ladderJson(std::ostringstream &json, const std::string &indent,
           const char *key, const OverheadBreakdown &b)
{
    json << indent << "\"" << key << "\": {\n"
         << indent << "  \"ideal_speedup\": " << b.idealSpeedup << ",\n"
         << indent << "  \"actual_speedup\": " << b.actualSpeedup
         << ",\n"
         << indent << "  \"lost_fraction\": {";
    for (std::size_t c = 0; c < analysis::kNumOverheadCategories; ++c) {
        json << (c ? ", " : "") << "\""
             << analysis::overheadCategoryName(
                    static_cast<OverheadCategory>(c))
             << "\": " << b.lostFraction[c];
    }
    json << "}\n" << indent << "}";
}

/** One commit protocol, fully characterized. */
struct ModeReport
{
    CommitProtocol protocol = CommitProtocol::Barrier;
    double statsSeconds = 0.0;
    NativeRuntime::Result recorded;
    bool identical = true; //!< Recording did not change the results.
    trace::MeasuredTrace mt;
    platform::Schedule sched;
    analysis::CriticalPathReport cp;
    OverheadBreakdown measured;

    /** Per-repeat sync+imbalance loss, one entry per recorded run. */
    std::vector<double> syncImbalanceSamples;

    /**
     * The §V-B losses the pipeline is designed to shrink, averaged
     * over every recorded repeat.  The mean, not the selected
     * recording's value: on a host with fewer cores than threads the
     * OS decides per run which executor straggles at the barrier, so
     * any single run's number is bimodal (near zero when the caller
     * happened to finish last, the full join wait otherwise) and only
     * the expectation is stable.
     */
    double
    syncPlusImbalance() const
    {
        if (syncImbalanceSamples.empty())
            return lost(measured, OverheadCategory::Synchronization) +
                   lost(measured, OverheadCategory::Imbalance);
        double sum = 0.0;
        for (double s : syncImbalanceSamples)
            sum += s;
        return sum / static_cast<double>(syncImbalanceSamples.size());
    }
};

/** The state.* counters the versioning A/B reports as deltas. */
constexpr const char *kStateCounterNames[] = {
    "state.blocks_shared",          "state.blocks_copied",
    "state.bytes_copied",           "state.blocks_swapped",
    "state.validation_blocks_compared",
    "state.validation_blocks_skipped",
    "state.validation_blocks_hashed",
};

/** One StateVersioning mode of the A/B probe, fully characterized. */
struct VersioningReport
{
    core::StateVersioning mode = core::StateVersioning::Deep;
    double statsSeconds = 0.0;        //!< Best-of unrecorded runs.
    double stateCopySeconds = 0.0;    //!< §V-B state-copy busy time.
    double stateCompareSeconds = 0.0; //!< §V-B state-comparison busy time.
    NativeRuntime::Result result;
    std::map<std::string, double> counterDeltas;
};

} // namespace

int
main(int argc, char **argv)
{
    const util::Cli cli(argc, argv);
    const auto opt = bench::BenchOptions::parse(argc, argv, 1.0);
    const std::string workload_name =
        cli.getString("workload", "facedet-and-track");
    const unsigned threads = util::ThreadPool::defaultThreadCount(
        static_cast<unsigned>(cli.getInt("threads", 4)));
    const int repeats =
        std::max(1, static_cast<int>(cli.getInt("repeats", 5)));
    const std::string pipeline_mode = cli.getString("pipeline", "both");
    const std::string versioning_mode =
        cli.getString("versioning", "both");
    const std::string out_path =
        cli.getString("out", "BENCH_native_overheads.json");
    const std::string trace_path = cli.getString("trace", "");
    const std::string span_trace_path = cli.getString("trace-out", "");
    const std::string flight_dir = cli.getString("flight-dir", "");
    const bench::MetricsScope metrics_scope(opt);

    // --versioning=deep|cow pins every run in this process to one
    // clone discipline; "both" leaves the default (cow) for the main
    // characterization and adds the A/B probe section below.
    std::optional<core::ScopedStateVersioning> pinned_versioning;
    if (versioning_mode == "deep")
        pinned_versioning.emplace(core::StateVersioning::Deep);
    else if (versioning_mode == "cow")
        pinned_versioning.emplace(core::StateVersioning::CopyOnWrite);
    else if (versioning_mode != "both")
        util::fatal("unknown --versioning mode: " + versioning_mode +
                    " (expected deep, cow, or both)");

    std::vector<CommitProtocol> protocols;
    if (pipeline_mode == "both")
        protocols = {CommitProtocol::Barrier, CommitProtocol::Pipelined};
    else if (pipeline_mode == "on")
        protocols = {CommitProtocol::Pipelined};
    else if (pipeline_mode == "off")
        protocols = {CommitProtocol::Barrier};
    else
        util::fatal("unknown --pipeline mode: " + pipeline_mode +
                    " (expected on, off, or both)");

    const bool oversubscribed = bench::threadsExceedCores(threads);

    const auto w = workloads::makeWorkload(workload_name, opt.scale);
    core::StatsConfig config = w->tunedConfig(threads);
    config.useStatsTlp = true;
    config.innerTlpThreads = 1; // Native path: no inner TLP re-execution.
    const auto &model = w->model();

    // Native sequential baseline (denominator), best of repeats.
    double seq_seconds = std::numeric_limits<double>::infinity();
    NativeRuntime::Result seq;
    for (int r = 0; r < repeats; ++r) {
        seq = NativeRuntime(threads).runSequential(model, opt.seed);
        seq_seconds = std::min(seq_seconds, seq.wallSeconds);
    }

    std::vector<ModeReport> modes;
    for (const CommitProtocol protocol : protocols) {
        const NativeRuntime rt(threads, protocol);
        ModeReport mode;
        mode.protocol = protocol;

        // Unrecorded STATS runs: the timing reference and identity
        // oracle.
        mode.statsSeconds = std::numeric_limits<double>::infinity();
        NativeRuntime::Result plain;
        for (int r = 0; r < repeats; ++r) {
            plain = rt.run(model, config, opt.seed);
            mode.statsSeconds =
                std::min(mode.statsSeconds, plain.wallSeconds);
        }

        // Recorded runs: same results, plus the measured task graph.
        // Keep the recording that used the most executor lanes and,
        // among those, the smallest makespan.  Preferring lanes first
        // matters on hosts with fewer cores than threads: there a
        // repeat can degenerate to the caller draining every chunk
        // itself — a serial execution that never exercises the commit
        // protocol's scheduling constraints — and such a run must not
        // represent the protocol.  On an unloaded multi-core host
        // every repeat uses all lanes and the rule reduces to plain
        // min-makespan (the run the OS disturbed least, same
        // best-of-repeats rule as the timings above).
        for (int r = 0; r < repeats; ++r) {
            trace::MeasuredTraceRecorder recorder;
            const NativeRuntime::Result recorded =
                rt.run(model, config, opt.seed, &recorder);
            trace::MeasuredTrace mt = recorder.finish();
            const OverheadBreakdown ladder =
                analysis::analyzeMeasuredGraph(mt.graph, threads,
                                               seq_seconds,
                                               recorded.commits,
                                               recorded.aborts);
            mode.syncImbalanceSamples.push_back(
                lost(ladder, OverheadCategory::Synchronization) +
                lost(ladder, OverheadCategory::Imbalance));
            const bool better =
                r == 0 || mt.laneCount > mode.mt.laneCount ||
                (mt.laneCount == mode.mt.laneCount &&
                 mt.makespanUs() < mode.mt.makespanUs());
            if (better) {
                mode.mt = std::move(mt);
                mode.recorded = recorded;
            }
            mode.identical =
                mode.identical && sameResult(recorded, plain);
        }
        if (!mode.identical) {
            REPRO_LOG_WARN("recording changed the "
                           << core::commitProtocolName(protocol)
                           << " results — observer bug");
        }
        mode.sched = platform::measuredSchedule(mode.mt);
        mode.cp = analysis::criticalPathReport(mode.sched, mode.mt.graph);
        mode.measured = analysis::analyzeMeasuredGraph(
            mode.mt.graph, threads, seq_seconds, mode.recorded.commits,
            mode.recorded.aborts);
        modes.push_back(std::move(mode));
    }

    // Cross-protocol identity: the two schedules must agree bit for
    // bit (the tests enforce this against the engine oracle; the bench
    // repeats the check on its own workload/config).
    for (std::size_t m = 1; m < modes.size(); ++m) {
        if (!sameResult(modes[m].recorded, modes[0].recorded)) {
            REPRO_LOG_WARN("commit protocols disagree on results — "
                           "scheduling bug");
        }
    }

    // Price the always-on metrics: the first protocol's STATS run,
    // collection on vs off, interleaved so clock drift and cache
    // warm-up hit both states alike, best of repeats each.  Results
    // must be bit-identical either way — collection only counts.
    // Skipped under --metrics=off: the probe would have to enable
    // collection, against the flag's word (the fields stay 0).
    double on_seconds = 0.0;
    double off_seconds = 0.0;
    double metrics_overhead = 0.0;
    bool metrics_identical = true;
    if (opt.metrics) {
        const NativeRuntime probe_rt(threads, protocols.front());
        on_seconds = std::numeric_limits<double>::infinity();
        off_seconds = std::numeric_limits<double>::infinity();
        for (int r = 0; r < repeats; ++r) {
            metrics::setEnabled(true);
            const NativeRuntime::Result on_run =
                probe_rt.run(model, config, opt.seed);
            metrics::setEnabled(false);
            const NativeRuntime::Result off_run =
                probe_rt.run(model, config, opt.seed);
            on_seconds = std::min(on_seconds, on_run.wallSeconds);
            off_seconds = std::min(off_seconds, off_run.wallSeconds);
            metrics_identical =
                metrics_identical && sameResult(on_run, off_run);
        }
        metrics::setEnabled(opt.metrics);
        if (!metrics_identical) {
            REPRO_LOG_WARN("metrics collection changed the results — "
                           "instrumentation bug");
        }
        metrics_overhead =
            off_seconds > 0.0 ? on_seconds / off_seconds - 1.0 : 0.0;
    }

    // Price the always-on span tracing (src/obs/) the same way:
    // recording on vs off, interleaved, best of repeats, and the
    // results must be bit-identical — spans only observe.
    double tracing_on_seconds = std::numeric_limits<double>::infinity();
    double tracing_off_seconds = std::numeric_limits<double>::infinity();
    double tracing_overhead = 0.0;
    bool tracing_identical = true;
    {
        const NativeRuntime probe_rt(threads, protocols.front());
        for (int r = 0; r < repeats; ++r) {
            obs::setEnabled(true);
            const NativeRuntime::Result on_run =
                probe_rt.run(model, config, opt.seed);
            obs::setEnabled(false);
            const NativeRuntime::Result off_run =
                probe_rt.run(model, config, opt.seed);
            tracing_on_seconds =
                std::min(tracing_on_seconds, on_run.wallSeconds);
            tracing_off_seconds =
                std::min(tracing_off_seconds, off_run.wallSeconds);
            tracing_identical =
                tracing_identical && sameResult(on_run, off_run);
        }
        obs::setEnabled(true);
        if (!tracing_identical) {
            REPRO_LOG_WARN("span tracing changed the results — "
                           "instrumentation bug");
        }
        tracing_overhead =
            tracing_off_seconds > 0.0
                ? tracing_on_seconds / tracing_off_seconds - 1.0
                : 0.0;
    }

    // A/B-price the state-versioning layer on the first protocol:
    // best-of-repeats timings per StateVersioning mode, recorded
    // replays for the §V-B state-copy / state-comparison busy-time
    // split (best of repeats per category — single recordings are
    // noisy on a shared host), and the state.* counter deltas
    // attributed to each mode.  Deep runs first so its clones cannot
    // warm any block-level cache for cow.
    std::vector<VersioningReport> vmodes;
    bool versioning_identical = true;
    if (versioning_mode == "both") {
        auto &reg = metrics::MetricsRegistry::global();
        const NativeRuntime ab_rt(threads, protocols.front());
        for (const core::StateVersioning sv :
             {core::StateVersioning::Deep,
              core::StateVersioning::CopyOnWrite}) {
            const core::ScopedStateVersioning guard(sv);
            VersioningReport rep;
            rep.mode = sv;
            std::map<std::string, double> before;
            for (const char *name : kStateCounterNames)
                before[name] =
                    static_cast<double>(reg.counter(name).value());
            rep.statsSeconds = std::numeric_limits<double>::infinity();
            for (int r = 0; r < repeats; ++r) {
                rep.result = ab_rt.run(model, config, opt.seed);
                rep.statsSeconds =
                    std::min(rep.statsSeconds, rep.result.wallSeconds);
            }
            rep.stateCopySeconds =
                std::numeric_limits<double>::infinity();
            rep.stateCompareSeconds =
                std::numeric_limits<double>::infinity();
            for (int r = 0; r < repeats; ++r) {
                trace::MeasuredTraceRecorder recorder;
                ab_rt.run(model, config, opt.seed, &recorder);
                const trace::MeasuredTrace mt = recorder.finish();
                const platform::Schedule sched =
                    platform::measuredSchedule(mt);
                rep.stateCopySeconds = std::min(
                    rep.stateCopySeconds,
                    sched.busyByKind[static_cast<std::size_t>(
                        trace::TaskKind::StateCopy)] *
                        1e-6);
                rep.stateCompareSeconds = std::min(
                    rep.stateCompareSeconds,
                    sched.busyByKind[static_cast<std::size_t>(
                        trace::TaskKind::StateCompare)] *
                        1e-6);
            }
            for (const char *name : kStateCounterNames)
                rep.counterDeltas[name] =
                    static_cast<double>(reg.counter(name).value()) -
                    before[name];
            vmodes.push_back(std::move(rep));
        }
        versioning_identical =
            sameResult(vmodes.front().result, vmodes.back().result);
        if (!versioning_identical) {
            REPRO_LOG_WARN("state versioning modes disagree on results "
                           "— copy-on-write bug");
        }
    }

    // DES prediction of the same (workload, config, seed) for the
    // side-by-side comparison.
    const core::Engine engine;
    const analysis::OverheadAnalyzer analyzer(
        engine, platform::MachineModel::haswell(threads));
    const OverheadBreakdown des = analyzer.analyze(*w, config, opt.seed);

    if (!trace_path.empty()) {
        std::ofstream os(trace_path);
        if (!os)
            util::fatal("cannot write " + trace_path);
        platform::writeChromeTrace(modes.back().sched,
                                   modes.back().mt.graph, os);
    }
    if (!span_trace_path.empty()) {
        std::ofstream os(span_trace_path);
        if (!os)
            util::fatal("cannot write " + span_trace_path);
        platform::writeSpansChromeTrace(
            obs::SpanRecorder::global().snapshot(), os);
    }
    if (!flight_dir.empty()) {
        obs::FlightRecorder::Options fopts;
        fopts.dir = flight_dir;
        obs::FlightRecorder flight(fopts);
        const auto dump = flight.dump("manual");
        if (dump)
            std::cout << "flight dump: " << dump->path << "\n";
    }

    std::vector<std::string> header{"Category"};
    for (const ModeReport &mode : modes)
        header.push_back(std::string("measured ") +
                         core::commitProtocolName(mode.protocol));
    header.push_back("DES model");
    Table table(header);
    const auto row = [&](OverheadCategory c) {
        std::vector<std::string> cells{analysis::overheadCategoryName(c)};
        for (const ModeReport &mode : modes)
            cells.push_back(formatPercent(lost(mode.measured, c)));
        cells.push_back(formatPercent(lost(des, c)));
        table.addRow(cells);
    };
    row(OverheadCategory::Synchronization);
    row(OverheadCategory::ExtraComputation);
    row(OverheadCategory::Imbalance);
    row(OverheadCategory::SequentialCode);
    row(OverheadCategory::Mispeculation);
    row(OverheadCategory::Unreachability);
    {
        std::vector<std::string> cells{"achieved speedup"};
        for (const ModeReport &mode : modes)
            cells.push_back(formatDouble(mode.measured.actualSpeedup, 2) +
                            "x");
        cells.push_back(formatDouble(des.actualSpeedup, 2) + "x");
        table.addRow(cells);
    }
    bench::emit(table,
                "Measured vs DES % of ideal speedup lost (" +
                    workload_name + ", " + config.describe() + ", " +
                    std::to_string(threads) + " threads)",
                opt.csv);

    for (const ModeReport &mode : modes) {
        const double wall_speedup = mode.statsSeconds > 0.0
                                        ? seq_seconds / mode.statsSeconds
                                        : 0.0;
        std::cout << core::commitProtocolName(mode.protocol)
                  << ": seq " << formatDouble(seq_seconds * 1e3, 2)
                  << " ms, stats "
                  << formatDouble(mode.statsSeconds * 1e3, 2)
                  << " ms (wall speedup "
                  << formatDouble(wall_speedup, 2) << "x), "
                  << mode.recorded.commits << " commits, "
                  << mode.recorded.aborts << " aborts, "
                  << mode.mt.graph.size() << " measured tasks on "
                  << mode.mt.laneCount << " lanes, sync+imbalance "
                  << formatPercent(mode.syncPlusImbalance()) << "\n";
        std::cout << mode.cp.describe();
    }
    if (modes.size() == 2) {
        std::cout << "pipeline gain: sync+imbalance "
                  << formatPercent(modes[0].syncPlusImbalance()) << " -> "
                  << formatPercent(modes[1].syncPlusImbalance())
                  << " of ideal speedup\n";
    }
    if (opt.metrics) {
        std::cout << "metrics overhead: "
                  << formatPercent(metrics_overhead) << " ("
                  << formatDouble(on_seconds * 1e3, 2) << " ms on vs "
                  << formatDouble(off_seconds * 1e3, 2) << " ms off)\n";
    }
    std::cout << "tracing overhead: " << formatPercent(tracing_overhead)
              << " (" << formatDouble(tracing_on_seconds * 1e3, 2)
              << " ms on vs "
              << formatDouble(tracing_off_seconds * 1e3, 2)
              << " ms off)\n";
    if (!vmodes.empty()) {
        Table vt({"versioning", "stats ms", "state-copy s",
                  "state-compare s", "bytes copied", "blocks shared",
                  "blocks copied"});
        for (const VersioningReport &rep : vmodes) {
            vt.addRow(
                {core::stateVersioningName(rep.mode),
                 formatDouble(rep.statsSeconds * 1e3, 2),
                 formatDouble(rep.stateCopySeconds, 6),
                 formatDouble(rep.stateCompareSeconds, 6),
                 formatDouble(
                     rep.counterDeltas.at("state.bytes_copied"), 0),
                 formatDouble(
                     rep.counterDeltas.at("state.blocks_shared"), 0),
                 formatDouble(
                     rep.counterDeltas.at("state.blocks_copied"), 0)});
        }
        bench::emit(vt,
                    std::string("State versioning A/B (") +
                        core::commitProtocolName(protocols.front()) +
                        " protocol, best of " +
                        std::to_string(repeats) + ")",
                    opt.csv);
        std::cout << "versioning outputs identical: "
                  << (versioning_identical ? "yes" : "NO") << "\n";
    }

    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"native_overheads\",\n"
         << "  \"workload\": \"" << workload_name << "\",\n"
         << "  \"config\": \"" << config.describe() << "\",\n"
         << "  \"scale\": " << opt.scale << ",\n"
         << "  \"seed\": " << opt.seed << ",\n"
         << "  \"threads\": " << threads << ",\n"
         << "  \"threads_exceed_cores\": "
         << (oversubscribed ? "true" : "false") << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"versioning\": \"" << versioning_mode << "\",\n"
         << "  \"host\": " << bench::hostMetadataJson() << ",\n"
         << "  \"sequential_seconds\": " << seq_seconds << ",\n"
         << "  \"metrics_overhead_fraction\": " << metrics_overhead
         << ",\n"
         << "  \"stats_seconds_metrics_on\": " << on_seconds << ",\n"
         << "  \"stats_seconds_metrics_off\": " << off_seconds << ",\n"
         << "  \"metrics_identical\": "
         << (metrics_identical ? "true" : "false") << ",\n"
         << "  \"tracing_overhead_fraction\": " << tracing_overhead
         << ",\n"
         << "  \"stats_seconds_tracing_on\": " << tracing_on_seconds
         << ",\n"
         << "  \"stats_seconds_tracing_off\": " << tracing_off_seconds
         << ",\n"
         << "  \"tracing_identical\": "
         << (tracing_identical ? "true" : "false") << ",\n"
         << "  \"modes\": {\n";
    for (std::size_t m = 0; m < modes.size(); ++m) {
        const ModeReport &mode = modes[m];
        const double wall_speedup = mode.statsSeconds > 0.0
                                        ? seq_seconds / mode.statsSeconds
                                        : 0.0;
        json << "    \"" << core::commitProtocolName(mode.protocol)
             << "\": {\n"
             << "      \"identical_with_recording\": "
             << (mode.identical ? "true" : "false") << ",\n"
             << "      \"commits\": " << mode.recorded.commits << ",\n"
             << "      \"aborts\": " << mode.recorded.aborts << ",\n"
             << "      \"stats_seconds\": " << mode.statsSeconds << ",\n"
             << "      \"wall_speedup\": " << wall_speedup << ",\n"
             << "      \"measured_tasks\": " << mode.mt.graph.size()
             << ",\n"
             << "      \"measured_lanes\": " << mode.mt.laneCount
             << ",\n"
             << "      \"measured_makespan_us\": " << mode.mt.makespanUs()
             << ",\n"
             << "      \"critical_path\": {\"busy_us\": "
             << mode.cp.busyCycles << ", \"wait_us\": "
             << mode.cp.waitCycles << ", \"makespan_us\": "
             << mode.cp.makespan << ", \"overhead_share\": "
             << mode.cp.overheadShare() << "},\n"
             << "      \"busy_seconds_by_kind\": {";
        for (std::size_t k = 0; k < trace::kNumTaskKinds; ++k) {
            json << (k ? ", " : "") << "\""
                 << trace::taskKindName(static_cast<trace::TaskKind>(k))
                 << "\": " << mode.sched.busyByKind[k] * 1e-6;
        }
        json << "},\n"
             << "      \"sync_plus_imbalance\": "
             << mode.syncPlusImbalance() << ",\n"
             << "      \"sync_plus_imbalance_samples\": [";
        for (std::size_t s = 0; s < mode.syncImbalanceSamples.size();
             ++s) {
            json << (s ? ", " : "") << mode.syncImbalanceSamples[s];
        }
        json << "],\n";
        ladderJson(json, "      ", "measured", mode.measured);
        json << "\n    }" << (m + 1 < modes.size() ? "," : "") << "\n";
    }
    json << "  },\n";
    if (!vmodes.empty()) {
        json << "  \"state_versioning\": {\n"
             << "    \"protocol\": \""
             << core::commitProtocolName(protocols.front()) << "\",\n"
             << "    \"identical_outputs\": "
             << (versioning_identical ? "true" : "false") << ",\n";
        for (std::size_t v = 0; v < vmodes.size(); ++v) {
            const VersioningReport &rep = vmodes[v];
            json << "    \"" << core::stateVersioningName(rep.mode)
                 << "\": {\n"
                 << "      \"stats_seconds\": " << rep.statsSeconds
                 << ",\n"
                 << "      \"state_copy_seconds\": "
                 << rep.stateCopySeconds << ",\n"
                 << "      \"state_compare_seconds\": "
                 << rep.stateCompareSeconds << ",\n"
                 << "      \"counters\": {";
            bool first = true;
            for (const auto &[name, delta] : rep.counterDeltas) {
                json << (first ? "" : ", ") << "\"" << name
                     << "\": " << delta;
                first = false;
            }
            json << "}\n    }" << (v + 1 < vmodes.size() ? "," : "")
                 << "\n";
        }
        json << "  },\n";
    }
    ladderJson(json, "  ", "des_model", des);
    json << ",\n  \"metrics\": " << bench::metricsSnapshotJson("  ")
         << "\n}\n";

    if (!out_path.empty()) {
        std::ofstream os(out_path);
        if (!os)
            util::fatal("cannot write " + out_path);
        os << json.str();
    }
    if (opt.csv)
        std::cout << json.str();
    return 0;
}
