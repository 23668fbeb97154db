/**
 * @file
 * Shared plumbing for the per-table/per-figure bench harnesses.
 *
 * Every harness accepts:
 *   --scale=<0..1>   input-size multiplier (default varies per bench)
 *   --seed=<n>       master seed (default 42)
 *   --csv            emit CSV instead of the aligned table
 * plus bench-specific flags:
 *   --metrics=<on|off>     always-on runtime metrics (default on)
 *   --metrics-out=<path>   also write the final metrics snapshot to
 *                          <path> (.prom => Prometheus text, else JSON)
 * Each binary regenerates the rows/series of one table or figure of
 * the paper and, where the paper gives absolute numbers, prints them
 * alongside for shape comparison (EXPERIMENTS.md records the
 * correspondence).
 */

#ifndef REPRO_BENCH_BENCH_COMMON_H
#define REPRO_BENCH_BENCH_COMMON_H

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "metrics/export.h"
#include "metrics/metrics.h"
#include "util/cli.h"
#include "util/log.h"
#include "util/table.h"
#include "workloads/workload.h"

namespace repro::bench {

/** Common options parsed from the command line. */
struct BenchOptions
{
    double scale = 0.5;
    std::uint64_t seed = 42;
    bool csv = false;
    bool metrics = true;    //!< --metrics=on|off (also true/false/1/0).
    std::string metricsOut; //!< --metrics-out=<path>, empty = don't write.

    static BenchOptions
    parse(int argc, char **argv, double default_scale)
    {
        const util::Cli cli(argc, argv);
        BenchOptions opt;
        opt.scale = cli.getDouble("scale", default_scale);
        opt.seed = static_cast<std::uint64_t>(cli.getInt("seed", 42));
        opt.csv = cli.getBool("csv", false);
        // getBool rejects on/off, and the metrics switch reads most
        // naturally as --metrics=off — accept both spellings.
        const std::string metrics = cli.getString("metrics", "on");
        if (metrics == "on" || metrics == "true" || metrics == "1" ||
            metrics == "yes")
            opt.metrics = true;
        else if (metrics == "off" || metrics == "false" ||
                 metrics == "0" || metrics == "no")
            opt.metrics = false;
        else
            util::fatal("--metrics must be on or off, got: " + metrics);
        opt.metricsOut = cli.getString("metrics-out", "");
        return opt;
    }
};

/**
 * Applies a bench's metrics options for the duration of a scope
 * (normally all of main): switches collection on or off, and at
 * destruction writes the final snapshot to --metrics-out when a path
 * was given.  Collection state is restored on exit so harnesses that
 * embed several measurement scopes compose.
 */
class MetricsScope
{
  public:
    explicit MetricsScope(const BenchOptions &opt)
        : out_(opt.metricsOut), wasEnabled_(metrics::enabled())
    {
        metrics::setEnabled(opt.metrics);
    }

    ~MetricsScope()
    {
        if (!out_.empty()) {
            metrics::writeSnapshotFile(
                metrics::MetricsRegistry::global().snapshot(), out_);
        }
        metrics::setEnabled(wasEnabled_);
    }

    MetricsScope(const MetricsScope &) = delete;
    MetricsScope &operator=(const MetricsScope &) = delete;

  private:
    const std::string out_;
    const bool wasEnabled_;
};

/**
 * JSON object describing the host the bench ran on, for inclusion in
 * every BENCH_*.json under the "host" key: hardware concurrency and
 * the timing source (all benches time with std::chrono::steady_clock)
 * with its tick period.  Wall-clock numbers from different hosts are
 * not comparable without this.
 *
 * @param indent Spaces prefixed to the closing brace / inner lines.
 */
inline std::string
hostMetadataJson(const std::string &indent = "  ")
{
    using period = std::chrono::steady_clock::period;
    std::ostringstream os;
    os << "{\n"
       << indent << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << indent << "  \"timestamp_source\": \"steady_clock\",\n"
       << indent << "  \"steady_clock_is_steady\": "
       << (std::chrono::steady_clock::is_steady ? "true" : "false")
       << ",\n"
       << indent << "  \"steady_clock_tick_ns\": "
       << (1e9 * static_cast<double>(period::num) /
           static_cast<double>(period::den))
       << "\n"
       << indent << "}";
    return os.str();
}

/**
 * True when @p requested concurrent executors exceed the host's
 * hardware concurrency — in that regime wall-clock "speedups" are
 * time-shared, not parallel, and must not be read as scaling results.
 * Prints a warning to stderr when so; every BENCH_*.json emitter
 * records the returned boolean as "threads_exceed_cores" so baselines
 * captured on small hosts are flagged in the artifact itself.
 */
inline bool
threadsExceedCores(unsigned requested)
{
    const unsigned hw = std::thread::hardware_concurrency();
    const bool exceeds = hw != 0 && requested > hw;
    if (exceeds) {
        REPRO_LOG_WARN("requested parallelism ("
                       << requested << ") exceeds hardware_concurrency ("
                       << hw
                       << "); wall-clock speedups are time-shared, not "
                          "parallel");
    }
    return exceeds;
}

/** Prints @p table honoring --csv, preceded by a title line. */
inline void
emit(const util::Table &table, const std::string &title, bool csv)
{
    if (!csv)
        std::cout << "== " << title << " ==\n";
    if (csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    std::cout << "\n";
}

} // namespace repro::bench

#endif // REPRO_BENCH_BENCH_COMMON_H
