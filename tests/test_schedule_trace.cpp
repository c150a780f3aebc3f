/**
 * @file
 * Unit tests for schedule tracing and its executor integration.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "baseline/presets.hh"
#include "nn/models.hh"
#include "rt/executor.hh"
#include "rt/schedule_trace.hh"

using namespace hpim;
using namespace hpim::rt;

TEST(ScheduleTrace, RecordsIntervals)
{
    ScheduleTrace trace;
    auto t0 = trace.begin("conv1", 0, PlacedOn::FixedPool, 0, 0, 1.0);
    auto t1 = trace.begin("relu1", 1, PlacedOn::ProgrPim, 0, 0, 1.5);
    trace.end(t0, 2.0);
    trace.end(t1, 1.75);
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_DOUBLE_EQ(trace.entries()[0].durationSec(), 1.0);
    EXPECT_DOUBLE_EQ(trace.entries()[1].durationSec(), 0.25);
    EXPECT_DOUBLE_EQ(trace.busySeconds(PlacedOn::FixedPool), 1.0);
    EXPECT_DOUBLE_EQ(trace.busySeconds(PlacedOn::ProgrPim), 0.25);
    EXPECT_DOUBLE_EQ(trace.busySeconds(PlacedOn::Cpu), 0.0);
}

TEST(ScheduleTraceDeath, EndBeforeStartPanics)
{
    ScheduleTrace trace;
    auto t = trace.begin("x", 0, PlacedOn::Cpu, 0, 0, 5.0);
    EXPECT_DEATH(trace.end(t, 4.0), "before it starts");
}

TEST(ScheduleTrace, CsvHasHeaderAndRows)
{
    ScheduleTrace trace;
    auto t = trace.begin("conv1/Conv2D", 3, PlacedOn::FixedPool, 0,
                         1, 0.5);
    trace.end(t, 0.75);
    std::ostringstream os;
    trace.dumpCsv(os);
    std::string text = os.str();
    EXPECT_NE(text.find("label,placement"), std::string::npos);
    EXPECT_NE(text.find("conv1/Conv2D,fixed,0,1"), std::string::npos);
}

TEST(ScheduleTrace, ExecutorFillsTraceForEveryOp)
{
    auto config = baseline::makeConfig(baseline::SystemKind::HeteroPim);
    auto graph = nn::buildDcgan();
    Executor executor(config);
    ScheduleTrace trace;
    executor.attachTrace(&trace);
    auto report = executor.run(graph, 2);
    // One interval per (op, step).
    EXPECT_EQ(trace.size(), graph.size() * 2u);
    // Every interval is closed and within the makespan.
    for (const auto &entry : trace.entries()) {
        EXPECT_GE(entry.durationSec(), 0.0);
        EXPECT_LE(entry.endSec, report.makespanSec + 1e-9);
    }
    // Device busy time from the trace matches the report for the
    // serial devices.
    EXPECT_NEAR(trace.busySeconds(PlacedOn::Cpu), report.cpuBusySec,
                report.cpuBusySec * 0.5 + 1e-6);
}

TEST(ScheduleTrace, OpOverlapsStepsOnlyWithPipeline)
{
    auto graph = nn::buildAlexNet();
    auto count_overlap = [&graph](bool op_enabled) {
        auto config = baseline::makeHetero(true, true, op_enabled);
        Executor executor(config);
        ScheduleTrace trace;
        executor.attachTrace(&trace);
        executor.run(graph, 2);
        // Find whether any step-1 interval starts before the last
        // step-0 interval ends.
        double step0_end = 0.0;
        for (const auto &e : trace.entries()) {
            if (e.step == 0)
                step0_end = std::max(step0_end, e.endSec);
        }
        int overlapping = 0;
        for (const auto &e : trace.entries()) {
            if (e.step == 1 && e.startSec < step0_end - 1e-12)
                ++overlapping;
        }
        return overlapping;
    };
    EXPECT_EQ(count_overlap(false), 0);
    EXPECT_GT(count_overlap(true), 0);
}
