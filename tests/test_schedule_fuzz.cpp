/**
 * @file
 * Property/fuzz test of the executor and schedule validator: ~200
 * random (graph, config) points -- random DAG shapes, op mixes and
 * batch sizes crossed with random SystemConfigs (pipeline window,
 * PIM counts, pimManaged guests) -- must all produce schedules with
 * zero validator violations and reports whose invariants hold
 * (non-negative times/energy, device busy time <= makespan).
 *
 * Each point draws from its own sim::Rng stream
 * (Rng::streamSeed(base, i)), so a failure reproduces from the
 * printed point index alone. The points execute on the sweep engine,
 * which also exercises the thread pool under the sanitizer jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "rt/executor.hh"
#include "rt/schedule_validator.hh"
#include "rt/system_config.hh"
#include "schedule_fuzz_points.hh"

using namespace hpim;
using schedfuzz::randomBuilderGraph;
using schedfuzz::randomGraph;

namespace {

constexpr std::size_t numFuzzPoints = 200;
constexpr std::uint64_t fuzzBaseSeed = 0xf022ed5eedULL;
constexpr std::uint64_t faultFuzzBaseSeed = 0xfa17f022edULL;
constexpr std::uint64_t builderFuzzBaseSeed = 0xb117de2f022ULL;

struct FuzzOutcome
{
    std::size_t point = 0;
    std::vector<std::string> violations;
};

/** Run one random (graphs, config) point and collect violations. */
FuzzOutcome
fuzzPoint(std::size_t index, sim::Rng &rng, bool with_faults = false)
{
    FuzzOutcome outcome;
    outcome.point = index;

    schedfuzz::FuzzPoint point =
        schedfuzz::drawFuzzPoint(index, rng, with_faults);
    const rt::SystemConfig &config = point.config;
    std::vector<rt::WorkloadSpec> workloads = point.workloads();

    rt::Executor executor(config);
    rt::ScheduleTrace trace;
    executor.attachTrace(&trace);
    rt::ExecutionReport report = executor.run(workloads);

    std::vector<const nn::Graph *> graphs;
    std::vector<std::uint32_t> steps;
    for (const auto &workload : workloads) {
        graphs.push_back(workload.graph);
        steps.push_back(workload.steps);
    }
    auto validation = validateSchedule(trace, graphs, steps, config);
    for (const auto &violation : validation.violations)
        outcome.violations.push_back(violation.what);

    // ---- ExecutionReport invariants.
    auto check = [&outcome](bool ok, const std::string &what) {
        if (!ok)
            outcome.violations.push_back("report invariant: " + what);
    };
    if (with_faults) {
        // Graceful degradation must never drop work: every op of
        // every step completes somewhere (possibly on the CPU).
        std::uint64_t expected = 0;
        for (const auto &workload : workloads)
            expected += std::uint64_t(workload.graph->size())
                        * workload.steps;
        std::uint64_t placed = 0;
        for (const auto &[placement, count] : report.opsByPlacement)
            placed += count;
        check(placed == expected,
              "all " + std::to_string(expected)
                  + " ops complete under faults (got "
                  + std::to_string(placed) + ")");
    }
    double makespan = report.makespanSec;
    double slack = 1e-9 + 1e-6 * makespan;
    check(makespan > 0.0, "makespan must be positive");
    check(report.stepSec >= 0.0, "stepSec >= 0");
    check(report.opSec >= 0.0, "opSec >= 0");
    check(report.dataMovementSec >= 0.0, "dataMovementSec >= 0");
    check(report.syncSec >= 0.0, "syncSec >= 0");
    double parts =
        report.opSec + report.dataMovementSec + report.syncSec;
    check(std::abs(parts - report.stepSec) <= slack,
          "op+dm+sync must equal stepSec");
    check(report.cpuBusySec <= makespan + slack,
          "cpuBusySec <= makespan");
    check(report.progrBusySec
              <= makespan * config.progrPimCount + slack,
          "progrBusySec <= makespan x progrPimCount");
    check(report.fixedUtilization >= 0.0
              && report.fixedUtilization <= 1.0 + 1e-6,
          "fixedUtilization in [0, 1]");
    check(report.cpuEnergyJ >= 0.0, "cpuEnergyJ >= 0");
    check(report.progrEnergyJ >= 0.0, "progrEnergyJ >= 0");
    check(report.fixedEnergyJ >= 0.0, "fixedEnergyJ >= 0");
    check(report.dramEnergyJ >= 0.0, "dramEnergyJ >= 0");
    check(report.totalEnergyJ >= 0.0, "totalEnergyJ >= 0");
    check(report.edp >= 0.0, "edp >= 0");
    return outcome;
}

/** One random Builder-DAG point: build, execute, validate. */
FuzzOutcome
builderFuzzPoint(std::size_t index, sim::Rng &rng)
{
    FuzzOutcome outcome;
    outcome.point = index;

    schedfuzz::BuilderPoint point = schedfuzz::drawBuilderPoint(index, rng);

    rt::Executor executor(point.config);
    rt::ScheduleTrace trace;
    executor.attachTrace(&trace);
    executor.run(point.graph, point.steps);

    auto validation = validateSchedule(trace, {&point.graph},
                                       {point.steps}, point.config);
    for (const auto &violation : validation.violations)
        outcome.violations.push_back(violation.what);
    return outcome;
}

} // namespace

TEST(ScheduleFuzz, RandomGraphsAndConfigsProduceLegalSchedules)
{
    harness::SweepOptions options;
    options.baseSeed = fuzzBaseSeed;
    harness::SweepRunner runner(options);
    auto outcomes =
        runner.map(numFuzzPoints, [](std::size_t index, sim::Rng &rng) {
            return fuzzPoint(index, rng, false);
        });

    std::size_t failing_points = 0;
    for (const FuzzOutcome &outcome : outcomes) {
        if (outcome.violations.empty())
            continue;
        ++failing_points;
        for (const auto &what : outcome.violations) {
            ADD_FAILURE() << "point " << outcome.point
                          << " (stream seed "
                          << sim::Rng::streamSeed(fuzzBaseSeed,
                                                  outcome.point)
                          << "): " << what;
        }
    }
    EXPECT_EQ(failing_points, 0u);
}

TEST(ScheduleFuzz, RandomFaultSchedulesStillProduceLegalSchedules)
{
    // Second 200-point pass with the resilience layer armed: random
    // transient/stall rates, bank kills and thermal throttling on top
    // of the random (graph, config) points. Schedules must stay
    // violation-free and no op may be lost to a fault.
    harness::SweepOptions options;
    options.baseSeed = faultFuzzBaseSeed;
    harness::SweepRunner runner(options);
    auto outcomes =
        runner.map(numFuzzPoints, [](std::size_t index, sim::Rng &rng) {
            return fuzzPoint(index, rng, true);
        });

    std::size_t failing_points = 0;
    for (const FuzzOutcome &outcome : outcomes) {
        if (outcome.violations.empty())
            continue;
        ++failing_points;
        for (const auto &what : outcome.violations) {
            ADD_FAILURE() << "fault point " << outcome.point
                          << " (stream seed "
                          << sim::Rng::streamSeed(faultFuzzBaseSeed,
                                                  outcome.point)
                          << "): " << what;
        }
    }
    EXPECT_EQ(failing_points, 0u);
}

TEST(ScheduleFuzz, PointsAreReproducible)
{
    // The same stream index must regenerate the identical point.
    sim::Rng a(sim::Rng::streamSeed(fuzzBaseSeed, 17));
    sim::Rng b(sim::Rng::streamSeed(fuzzBaseSeed, 17));
    nn::Graph ga = randomGraph(a, "g");
    nn::Graph gb = randomGraph(b, "g");
    ASSERT_EQ(ga.size(), gb.size());
    for (std::size_t i = 0; i < ga.size(); ++i) {
        auto id = static_cast<nn::OpId>(i);
        EXPECT_EQ(ga.op(id).type, gb.op(id).type);
        EXPECT_TRUE(std::ranges::equal(ga.inputs(id), gb.inputs(id)));
        EXPECT_DOUBLE_EQ(ga.op(id).cost.flops(),
                         gb.op(id).cost.flops());
    }
}

TEST(ScheduleFuzz, RandomBuilderDagsProduceLegalSchedules)
{
    // 100 random user-style DAGs authored through the public
    // nn::Builder -- autodiff, gradient fan-in Adds, both optimizers
    // -- crossed with random SystemConfigs. Every schedule must pass
    // validateSchedule with zero violations, the same bar the
    // hand-rolled random graphs meet.
    constexpr std::size_t numBuilderPoints = 100;
    harness::SweepOptions options;
    options.baseSeed = builderFuzzBaseSeed;
    harness::SweepRunner runner(options);
    auto outcomes = runner.map(
        numBuilderPoints, [](std::size_t index, sim::Rng &rng) {
            return builderFuzzPoint(index, rng);
        });

    std::size_t failing_points = 0;
    for (const FuzzOutcome &outcome : outcomes) {
        if (outcome.violations.empty())
            continue;
        ++failing_points;
        for (const auto &what : outcome.violations) {
            ADD_FAILURE() << "builder point " << outcome.point
                          << " (stream seed "
                          << sim::Rng::streamSeed(builderFuzzBaseSeed,
                                                  outcome.point)
                          << "): " << what;
        }
    }
    EXPECT_EQ(failing_points, 0u);
}

TEST(ScheduleFuzz, BuilderPointsAreReproducible)
{
    sim::Rng a(sim::Rng::streamSeed(builderFuzzBaseSeed, 23));
    sim::Rng b(sim::Rng::streamSeed(builderFuzzBaseSeed, 23));
    nn::Graph ga = randomBuilderGraph(a, "g");
    nn::Graph gb = randomBuilderGraph(b, "g");
    EXPECT_EQ(ga.signature(), gb.signature());
}
