/**
 * @file
 * Unit tests for the heterogeneous execution engine: placement rules,
 * RC/OP behaviour, utilization accounting, and deterministic results.
 */

#include <gtest/gtest.h>

#include "baseline/presets.hh"
#include "nn/builder.hh"
#include "nn/graph_builder.hh"
#include "nn/models.hh"
#include "obs/metrics.hh"
#include "rt/executor.hh"
#include "rt/hetero_runtime.hh"
#include "rt/schedule_validator.hh"
#include "schedule_fuzz_points.hh"

using namespace hpim;
using namespace hpim::rt;
using baseline::makeConfig;
using baseline::makeHetero;
using baseline::SystemKind;

namespace {

nn::Graph
tinyCnn()
{
    nn::CnnBuilder b("tiny", nn::TensorShape{4, 16, 16, 3});
    b.conv(3, 8, 1).maxPool(2, 2).fc(10, false);
    return b.finish();
}

ExecutionReport
runOn(const SystemConfig &config, const nn::Graph &graph,
      std::uint32_t steps = 2)
{
    HeteroRuntime runtime(config);
    return runtime.train(graph, steps).execution;
}

/** 32 dense towers merged pairwise through nn::Builder: ~500 ops. */
nn::Graph
wideTowers()
{
    nn::Builder b("wide");
    std::vector<nn::TensorRef> towers;
    for (int tower = 0; tower < 32; ++tower) {
        nn::TensorRef x = b.input(nn::TensorShape{64, 256});
        towers.push_back(b.dense(b.layerNorm(b.dense(x, 256)), 128));
    }
    while (towers.size() > 1) {
        std::vector<nn::TensorRef> merged;
        for (std::size_t i = 0; i + 1 < towers.size(); i += 2)
            merged.push_back(b.add(towers[i], towers[i + 1]));
        towers = std::move(merged);
    }
    return b.trainingStep(b.dense(towers.front(), 16, false));
}

/** Dispatch work counters of one run. */
struct WorkCounts
{
    std::uint64_t evals = 0;
    std::uint64_t completed = 0;
    std::uint64_t retries = 0;
};

WorkCounts
countedRun(const SystemConfig &config, const nn::Graph &graph)
{
    obs::MetricsRegistry registry;
    registry.attach();
    runOn(config, graph);
    registry.detach();
    return {registry.counter("rt.placement_evals").value(),
            registry.counter("rt.ops_completed").value(),
            registry.counter("rt.retries").value()};
}

} // namespace

TEST(Executor, CpuOnlyRunsEverythingOnCpu)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    auto graph = tinyCnn();
    auto report = runOn(config, graph);
    EXPECT_EQ(report.opsByPlacement.count(PlacedOn::FixedPool), 0u);
    EXPECT_EQ(report.opsByPlacement.count(PlacedOn::ProgrPim), 0u);
    EXPECT_EQ(report.opsByPlacement[PlacedOn::Cpu],
              2u * graph.size());
    // Serial CPU: makespan equals busy time.
    EXPECT_NEAR(report.cpuBusySec, report.makespanSec, 1e-9);
}

TEST(Executor, HeteroUsesAllDeviceKinds)
{
    auto config = makeConfig(SystemKind::HeteroPim);
    auto report = runOn(config, tinyCnn());
    EXPECT_GT(report.opsByPlacement[PlacedOn::FixedPool], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::ProgrPim], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::ProgrRecursive], 0u);
}

TEST(Executor, RecursiveKernelsReplaceHostDrivenOffload)
{
    auto with_rc = makeHetero(true, true, false);
    auto without_rc = makeHetero(true, false, false);
    auto graph = tinyCnn();
    auto rc = runOn(with_rc, graph);
    auto no_rc = runOn(without_rc, graph);
    EXPECT_GT(rc.opsByPlacement[PlacedOn::ProgrRecursive], 0u);
    EXPECT_EQ(rc.opsByPlacement[PlacedOn::FixedHostDriven], 0u);
    EXPECT_EQ(no_rc.opsByPlacement[PlacedOn::ProgrRecursive], 0u);
    EXPECT_EQ(no_rc.recursiveLaunches, 0u);
    EXPECT_GT(rc.recursiveLaunches, 0u);
}

TEST(Executor, RcReducesHostLaunches)
{
    // RC merges kernels: the host launches far fewer times.
    auto graph = nn::buildAlexNet();
    auto rc = runOn(makeHetero(true, true, true), graph);
    auto no_rc = runOn(makeHetero(true, false, true), graph);
    EXPECT_LT(rc.hostLaunches, no_rc.hostLaunches);
}

TEST(Executor, OpImprovesUtilizationAndTime)
{
    auto graph = nn::buildAlexNet();
    auto with_op = runOn(makeHetero(true, true, true), graph, 4);
    auto without_op = runOn(makeHetero(true, true, false), graph, 4);
    EXPECT_GE(with_op.fixedUtilization,
              without_op.fixedUtilization - 1e-9);
    EXPECT_LE(with_op.stepSec, without_op.stepSec * 1.001);
}

TEST(Executor, UtilizationIsAFraction)
{
    auto report = runOn(makeConfig(SystemKind::HeteroPim), tinyCnn());
    EXPECT_GE(report.fixedUtilization, 0.0);
    EXPECT_LE(report.fixedUtilization, 1.0);
}

TEST(Executor, BreakdownSumsToStepTime)
{
    auto report = runOn(makeConfig(SystemKind::HeteroPim),
                        nn::buildDcgan());
    EXPECT_NEAR(report.opSec + report.dataMovementSec + report.syncSec,
                report.stepSec, report.stepSec * 1e-6);
}

TEST(Executor, EnergyComponentsSumToTotal)
{
    auto report = runOn(makeConfig(SystemKind::HeteroPim),
                        nn::buildDcgan());
    EXPECT_NEAR(report.totalEnergyJ,
                report.cpuEnergyJ + report.progrEnergyJ
                    + report.fixedEnergyJ + report.dramEnergyJ,
                report.totalEnergyJ * 1e-9);
    EXPECT_GT(report.averagePowerW, 0.0);
    EXPECT_GT(report.edp, 0.0);
}

TEST(Executor, DeterministicAcrossRuns)
{
    auto config = makeConfig(SystemKind::HeteroPim);
    auto graph = nn::buildDcgan();
    auto a = runOn(config, graph);
    auto b = runOn(config, graph);
    EXPECT_DOUBLE_EQ(a.stepSec, b.stepSec);
    EXPECT_DOUBLE_EQ(a.totalEnergyJ, b.totalEnergyJ);
    EXPECT_EQ(a.hostLaunches, b.hostLaunches);
}

TEST(Executor, MakespanScalesWithSteps)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    auto graph = tinyCnn();
    auto two = runOn(config, graph, 2);
    auto four = runOn(config, graph, 4);
    EXPECT_NEAR(four.makespanSec, 2.0 * two.makespanSec,
                0.01 * four.makespanSec);
}

TEST(Executor, ProgrOnlyKeepsFixedPoolIdle)
{
    auto report = runOn(makeConfig(SystemKind::ProgrPimOnly),
                        tinyCnn());
    EXPECT_DOUBLE_EQ(report.fixedUnitSeconds, 0.0);
    EXPECT_GT(report.progrBusySec, 0.0);
}

TEST(Executor, FixedOnlySendsSpecialOpsToCpu)
{
    auto report = runOn(makeConfig(SystemKind::FixedPimOnly),
                        tinyCnn());
    EXPECT_GT(report.opsByPlacement[PlacedOn::Cpu], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::FixedPool], 0u);
    EXPECT_EQ(report.opsByPlacement[PlacedOn::ProgrPim], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::FixedHostDriven], 0u);
}

TEST(Executor, LinkTrafficOnlyFromHostSideWork)
{
    // In a hetero system most traffic is in-stack.
    auto report = runOn(makeConfig(SystemKind::HeteroPim),
                        nn::buildAlexNet());
    EXPECT_GT(report.internalBytes, report.linkBytes);
}

TEST(Executor, GuestWorkloadRunsOnCpuAndProgrOnly)
{
    // Run a guest workload alone on a hetero system: it must never be
    // placed on the fixed pool or use recursive kernels even though
    // both exist (paper SectionVI-F: the non-CNN model executes on
    // the CPU or the programmable PIM).
    auto config = makeConfig(SystemKind::HeteroPim);
    Executor executor(config);
    auto guest = nn::buildLstm();
    WorkloadSpec spec;
    spec.graph = &guest;
    spec.steps = 1;
    spec.pimManaged = false;
    auto report = executor.run({spec});
    EXPECT_EQ(report.opsByPlacement[PlacedOn::FixedPool], 0u);
    EXPECT_EQ(report.opsByPlacement[PlacedOn::ProgrRecursive], 0u);
    EXPECT_EQ(report.opsByPlacement[PlacedOn::FixedHostDriven], 0u);
    EXPECT_GT(report.opsByPlacement[PlacedOn::Cpu]
                  + report.opsByPlacement[PlacedOn::ProgrPim],
              0u);
}

TEST(ExecutorDeath, EmptyWorkloadListIsFatal)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    Executor executor(config);
    EXPECT_EXIT(executor.run({}), testing::ExitedWithCode(1),
                "no workloads");
}

TEST(ExecutorDeath, ZeroStepsIsFatal)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    Executor executor(config);
    auto graph = tinyCnn();
    WorkloadSpec spec;
    spec.graph = &graph;
    spec.steps = 0;
    EXPECT_EXIT(executor.run({spec}), testing::ExitedWithCode(1),
                "zero steps");
}

TEST(ExecutorDeath, RunningTwiceIsFatal)
{
    auto config = makeConfig(SystemKind::CpuOnly);
    Executor executor(config);
    auto graph = tinyCnn();
    executor.run(graph, 1);
    EXPECT_EXIT(executor.run(graph, 1), testing::ExitedWithCode(1),
                "called twice");
}

/** One-op graph whose CPU time is far over cpuFallbackThresholdSec. */
nn::Graph
oneLargeOp(nn::OpType type)
{
    nn::CostStructure cost;
    cost.muls = 1e12;
    nn::Graph graph("one-op");
    graph.add(type, "big", cost, nn::fixedParallelism(type, 1, 1.0));
    return graph;
}

TEST(Executor, LargeFixedCandidateWithoutFixedPoolRunsOnCpu)
{
    // Dynamic scheduling with no fixed pool used to leave a large
    // FixedFunction candidate with no placement under any device
    // state; it now takes the idle CPU, as a Recursive op does.
    std::size_t index = 313;
    sim::Rng rng(sim::Rng::streamSeed(0x5ca11ed, index));
    schedfuzz::FuzzPoint point =
        schedfuzz::drawFuzzPoint(index, rng, false);
    ASSERT_TRUE(point.config.dynamicScheduling);
    ASSERT_FALSE(point.config.hasFixedPim);

    Executor executor(point.config);
    ScheduleTrace trace;
    executor.attachTrace(&trace);
    std::vector<WorkloadSpec> workloads = point.workloads();
    executor.run(workloads);
    std::vector<const nn::Graph *> graphs;
    std::vector<std::uint32_t> steps;
    for (const WorkloadSpec &workload : workloads) {
        graphs.push_back(workload.graph);
        steps.push_back(workload.steps);
    }
    EXPECT_TRUE(validateSchedule(trace, graphs, steps, point.config)
                    .violations.empty());
}

TEST(Executor, LargeProgrCandidateWithoutProgrPimRunsOnCpu)
{
    auto config = makeConfig(SystemKind::HeteroPim);
    config.hasProgrPim = false;
    config.recursiveKernels = false;
    config.dynamicScheduling = true;
    auto graph = oneLargeOp(nn::OpType::Relu);
    Executor executor(config);
    ExecutionReport report = executor.run(graph, 1);
    EXPECT_EQ(report.opsByPlacement[PlacedOn::Cpu], 1u);
}

TEST(ExecutorDeath, OpWithNoReachablePlacementIsFatal)
{
    // RC needs the programmable PIM: without it a large Recursive
    // candidate could never be placed, so run() refuses up front.
    auto config = makeConfig(SystemKind::HeteroPim);
    config.hasProgrPim = false;
    config.recursiveKernels = true;
    config.dynamicScheduling = true;
    auto graph = oneLargeOp(nn::OpType::MatMulGradWeights);
    Executor executor(config);
    EXPECT_EXIT(executor.run(graph, 1), testing::ExitedWithCode(1),
                "op 'big' of 'one-op' \\(class Recursive\\) has no "
                "placement");
}

TEST(Executor, EveryPlacementEvaluationPlacesAnOp)
{
    // Dispatch evaluates decidePlacement() only for ops it can place:
    // one evaluation per completed op, plus one per retried attempt.
    auto hetero = makeConfig(SystemKind::HeteroPim);
    auto vgg = nn::buildVgg19();
    WorkCounts counts = countedRun(hetero, vgg);
    EXPECT_EQ(counts.completed, 2u * vgg.size());
    EXPECT_EQ(counts.evals, counts.completed);

    auto wide = wideTowers();
    EXPECT_GE(wide.size(), 400u);
    counts = countedRun(hetero, wide);
    EXPECT_EQ(counts.completed, 2u * wide.size());
    EXPECT_EQ(counts.evals, counts.completed);

    // Faults: transient retries, and the whole pool dying mid-run.
    auto faulty = hetero;
    faulty.faults.enabled = true;
    faulty.faults.killBanks = faulty.fixed.banks;
    faulty.faults.transientRatePerOp = 1e-3;
    faulty.faults.stallRatePerOp = 1e-3;
    auto alexnet = nn::buildAlexNet();
    counts = countedRun(faulty, alexnet);
    EXPECT_EQ(counts.completed, 2u * alexnet.size());
    EXPECT_GT(counts.retries, 0u);
    EXPECT_EQ(counts.evals, counts.completed + counts.retries);
}
