/**
 * @file
 * google-benchmark micro-benchmarks of the simulator substrates:
 * event-queue throughput, placement and thermal solving, graph
 * construction, a full scheduled training step, and the thread pool /
 * sweep runner.
 */

#include <benchmark/benchmark.h>

#include <future>
#include <vector>

#include "baseline/presets.hh"
#include "harness/sweep.hh"
#include "harness/thread_pool.hh"
#include "model/thermal.hh"
#include "nn/models.hh"
#include "pim/placement.hh"
#include "rt/hetero_runtime.hh"
#include "sim/event_queue.hh"

namespace {

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        hpim::sim::EventQueue queue;
        for (int i = 0; i < 1000; ++i) {
            queue.scheduleCallback(static_cast<hpim::sim::Tick>(i) * 100,
                                   [] {});
        }
        queue.runAll();
        benchmark::DoNotOptimize(queue.processedCount());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueue);

void
BM_Placement(benchmark::State &state)
{
    hpim::pim::BankGrid grid;
    for (auto _ : state) {
        auto placement = hpim::pim::placeUnits(grid, 444, 0.35);
        benchmark::DoNotOptimize(placement.totalUnits());
    }
}
BENCHMARK(BM_Placement);

void
BM_ThermalSolve(benchmark::State &state)
{
    hpim::pim::BankGrid grid;
    auto placement = hpim::pim::placeUnits(grid, 444, 0.35);
    for (auto _ : state) {
        auto result =
            hpim::model::solveThermal(grid, placement, 0.015);
        benchmark::DoNotOptimize(result.maxC);
    }
}
BENCHMARK(BM_ThermalSolve);

void
BM_BuildVgg19(benchmark::State &state)
{
    for (auto _ : state) {
        auto graph = hpim::nn::buildVgg19();
        benchmark::DoNotOptimize(graph.size());
    }
}
BENCHMARK(BM_BuildVgg19);

void
BM_ScheduledStep_AlexNet(benchmark::State &state)
{
    auto config =
        hpim::baseline::makeConfig(hpim::baseline::SystemKind::HeteroPim);
    config.steps = 2;
    hpim::rt::HeteroRuntime runtime(config);
    auto graph = hpim::nn::buildAlexNet();
    for (auto _ : state) {
        auto result = runtime.train(graph);
        benchmark::DoNotOptimize(result.execution.stepSec);
    }
}
BENCHMARK(BM_ScheduledStep_AlexNet);

void
BM_ThreadPool_Submit(benchmark::State &state)
{
    const auto jobs = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        hpim::harness::ThreadPool pool(jobs);
        std::vector<std::future<int>> futures;
        futures.reserve(1000);
        for (int i = 0; i < 1000; ++i)
            futures.push_back(pool.submit([i] { return i; }));
        long sum = 0;
        for (auto &future : futures)
            sum += future.get();
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ThreadPool_Submit)->Arg(0)->Arg(1)->Arg(4);

void
BM_SweepRunner_AlexNetGrid(benchmark::State &state)
{
    using hpim::baseline::SystemKind;
    hpim::harness::SweepOptions options;
    options.jobs = static_cast<std::uint32_t>(state.range(0));
    std::vector<hpim::harness::ExperimentPoint> points;
    for (SystemKind kind :
         {SystemKind::CpuOnly, SystemKind::ProgrPimOnly,
          SystemKind::FixedPimOnly, SystemKind::HeteroPim}) {
        points.push_back({.kind = kind,
                          .model = hpim::nn::ModelId::AlexNet,
                          .steps = 2});
    }
    for (auto _ : state) {
        hpim::harness::SweepRunner runner(options);
        auto reports = runner.run(points);
        benchmark::DoNotOptimize(reports.size());
    }
    state.SetItemsProcessed(state.iterations()
                            * static_cast<long>(points.size()));
}
BENCHMARK(BM_SweepRunner_AlexNetGrid)->Arg(1)->Arg(2)->Arg(4);

} // namespace

BENCHMARK_MAIN();
