/**
 * @file
 * Tests of core::StepScope: one clock pair feeds the span, the phase
 * histogram, and the measured task of a step; with every layer off
 * nothing is written.
 */

#include <gtest/gtest.h>

#include <chrono>

#include "core/step_scope.h"
#include "metrics/metrics.h"
#include "obs/span_recorder.h"
#include "trace/measured_trace.h"

namespace {

using repro::core::kNoTask;
using repro::core::StepScope;
using repro::metrics::LatencyHistogram;
using repro::obs::Span;
using repro::obs::SpanKind;
using repro::obs::SpanRecorder;
using repro::trace::MeasuredTraceRecorder;
using repro::trace::TaskKind;

void
spin(std::chrono::microseconds d)
{
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
}

/** A span identity as a step passes it: no id, no timestamps. */
Span
identity()
{
    Span s;
    s.kind = SpanKind::ReplicaRegen;
    s.parent = 41;
    s.chunk = 3;
    s.firstInput = 96;
    s.inputCount = 32;
    s.detail = 1;
    return s;
}

TEST(StepScope, FeedsEverySinkFromOneClockPair)
{
    SpanRecorder::global().clear();
    LatencyHistogram hist;
    MeasuredTraceRecorder rec;
    Span span;
    {
        StepScope step(&hist, {&rec, TaskKind::OriginalStateGen, 7, 3},
                       identity());
        EXPECT_NE(step.spanId(), 0u);
        EXPECT_EQ(step.task(), 0u);
        spin(std::chrono::microseconds(50));
        span = step.finish();
        EXPECT_EQ(step.finish().endNs, span.endNs); // Closes once.
    }

    EXPECT_EQ(span.kind, SpanKind::ReplicaRegen);
    EXPECT_EQ(span.parent, 41u);
    EXPECT_EQ(span.chunk, 3);
    EXPECT_EQ(span.firstInput, 96);
    EXPECT_EQ(span.inputCount, 32u);
    EXPECT_EQ(span.detail, 1);
    const std::uint64_t ns = span.endNs - span.startNs;
    EXPECT_GE(ns, 50000u);

    const auto recorded = SpanRecorder::global().snapshot().spans;
    ASSERT_EQ(recorded.size(), 1u);
    EXPECT_EQ(recorded[0].id, span.id);
    EXPECT_EQ(recorded[0].endNs, span.endNs);

    const auto h = hist.snapshot();
    EXPECT_EQ(h.count, 1u);
    EXPECT_NEAR(h.sumSeconds, static_cast<double>(ns) * 1e-9, 1e-12);

    const auto mt = rec.finish();
    ASSERT_EQ(mt.graph.size(), 1u);
    const auto &task = mt.graph.task(0);
    EXPECT_EQ(task.kind, TaskKind::OriginalStateGen);
    EXPECT_EQ(task.thread, 7u);
    EXPECT_EQ(task.chunk, 3);
    EXPECT_NEAR(task.work * 1e3, static_cast<double>(ns), 1.0);
}

TEST(StepScope, DisabledLayersWriteNothing)
{
    SpanRecorder::global().clear();
    LatencyHistogram hist;
    repro::metrics::setEnabled(false);
    repro::obs::setEnabled(false);
    {
        StepScope step(&hist, {}, identity());
        EXPECT_EQ(step.spanId(), 0u);
        EXPECT_EQ(step.task(), kNoTask);
        EXPECT_EQ(step.finish().id, 0u);
    }
    repro::metrics::setEnabled(true);
    repro::obs::setEnabled(true);
    EXPECT_EQ(hist.snapshot().count, 0u);
    EXPECT_TRUE(SpanRecorder::global().snapshot().spans.empty());
}

} // namespace
