/**
 * @file
 * Telemetry exporter: renders one MetricsSnapshot (metrics/metrics.h)
 * as JSON or Prometheus-style text.
 *
 * Both renderings come from the *same* snapshot struct, so a scrape
 * and a --metrics-out file or flight dump "metrics" object taken at
 * the same moment agree number for number.  The JSON shape is stable
 * and checked by MetricsTest.JsonExportShape:
 *
 *   {
 *     "counters":   {"<name>": <uint>, ...},
 *     "gauges":     {"<name>": <int>, ...},
 *     "histograms": {"<name>": {"count": <uint>,
 *                               "sum_seconds": <double>,
 *                               "mean_seconds": <double>,
 *                               "p50_seconds": <double>,
 *                               "p90_seconds": <double>,
 *                               "p99_seconds": <double>}, ...}
 *   }
 *
 * The Prometheus rendering maps dotted names to underscore-separated
 * ones under a "repro_" prefix and emits histograms as the standard
 * cumulative _bucket{le=...}/_sum/_count triplet.
 */

#ifndef REPRO_METRICS_EXPORT_H
#define REPRO_METRICS_EXPORT_H

#include <string>

#include "metrics/metrics.h"

namespace repro::metrics {

/**
 * JSON object for @p snap (shape above).  @p indent is prefixed to
 * inner lines so the object nests cleanly inside a larger document.
 */
std::string toJson(const MetricsSnapshot &snap,
                   const std::string &indent = "");

/** Prometheus text-exposition rendering of @p snap. */
std::string toPrometheus(const MetricsSnapshot &snap);

/**
 * Writes @p snap to @p path; a path ending in ".prom" selects the
 * Prometheus rendering, anything else JSON.  fatal() when the file
 * cannot be written.
 */
void writeSnapshotFile(const MetricsSnapshot &snap,
                       const std::string &path);

} // namespace repro::metrics

#endif // REPRO_METRICS_EXPORT_H
