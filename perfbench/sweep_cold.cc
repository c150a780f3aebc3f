/**
 * @file
 * sweep_cold: the fig8/fig11/fig12/fig13 axes plus a fault_sweep
 * slice, run through harness::SweepRunner with sim::MemoCache off.
 * Every point pays graph build, profiling, selection and execution,
 * so this is the executor-bound path that per-point optimizations of
 * the runtime must move.
 */

#include "harness/report_io.hh"
#include "harness/sweep.hh"
#include "nn/models.hh"
#include "rt/executor.hh"
#include "rt/hetero_runtime.hh"
#include "rt/offload_selector.hh"
#include "rt/profiler.hh"
#include "sim/memo_cache.hh"
#include "sweep_common.hh"
#include "workloads.hh"

namespace perfbench {

using hpim::baseline::SystemKind;
using hpim::nn::ModelId;

std::vector<GridPoint>
sweepColdGrid(std::uint64_t seed)
{
    std::vector<GridPoint> grid;
    auto add = [&grid](PointPath path, SystemKind kind, ModelId model) {
        GridPoint p;
        p.path = path;
        p.kind = kind;
        p.model = model;
        grid.push_back(p);
        return &grid.back();
    };
    const std::vector<ModelId> models = hpim::nn::allModels();
    // fig8: every model on every system.
    for (ModelId model : models) {
        for (SystemKind kind :
             {SystemKind::CpuOnly, SystemKind::Gpu,
              SystemKind::ProgrPimOnly, SystemKind::FixedPimOnly,
              SystemKind::HeteroPim, SystemKind::Neurocube}) {
            add(PointPath::RunSystem, kind, model);
        }
    }
    // fig11 (PIM frequency) and fig12 (programmable PIM count).
    for (ModelId model : models) {
        for (double freq : {2.0, 4.0}) {
            add(PointPath::RunSystem, SystemKind::HeteroPim, model)
                ->freqScale = freq;
        }
        for (std::uint32_t pims : {4u, 16u}) {
            add(PointPath::RunSystem, SystemKind::HeteroPim, model)
                ->progrPims = pims;
        }
    }
    // fig13: Hetero without RC and/or OP (both on is the fig8 point).
    for (ModelId model : models) {
        for (auto [rc, op] : {std::pair{false, false},
                              std::pair{true, false},
                              std::pair{false, true}}) {
            GridPoint *p =
                add(PointPath::HeteroFlags, SystemKind::HeteroPim, model);
            p->rc = rc;
            p->op = op;
        }
    }
    // fault_sweep slice: bank kills and transient/stall rates, each
    // with its own seeded fault seed.
    Gen fault_gen(seed, Stream::FaultSeeds);
    struct FaultPoint
    {
        std::uint32_t kills;
        double transient;
        double stall;
    };
    const FaultPoint fault_points[] = {
        {4, 1e-3, 0.0},    {16, 1e-3, 0.0},   {32, 1e-3, 0.0},
        {0, 1e-3, 1e-4},   {0, 1e-2, 1e-3},   {0, 0.05, 1e-2},
    };
    for (ModelId model : {ModelId::AlexNet, ModelId::Dcgan}) {
        for (const FaultPoint &fp : fault_points) {
            GridPoint *p =
                add(PointPath::Faulted, SystemKind::HeteroPim, model);
            p->steps = 2;
            p->faults.enabled = true;
            p->faults.killBanks = fp.kills;
            p->faults.transientRatePerOp = fp.transient;
            p->faults.stallRatePerOp = fp.stall;
            p->faults.seed = fault_gen.rng().next();
        }
    }
    Gen order_gen(seed, Stream::GridOrder);
    std::vector<std::size_t> order = order_gen.permutation(grid.size());
    std::vector<GridPoint> shuffled;
    shuffled.reserve(grid.size());
    for (std::size_t i : order)
        shuffled.push_back(grid[i]);
    return shuffled;
}

namespace {

/** Grid copies per SweepRunner::map call, so the end-of-batch
 *  barrier (the last heavy points running on fewer workers) stays a
 *  small share of the measured time. */
constexpr std::size_t kBatchCopies = 4;

hpim::rt::SystemConfig
pointConfig(const GridPoint &point)
{
    hpim::rt::SystemConfig config =
        point.path == PointPath::HeteroFlags
            ? hpim::baseline::makeHetero(true, point.rc, point.op)
            : hpim::baseline::makeConfig(point.kind, point.freqScale,
                                         point.progrPims);
    config.steps = point.steps;
    if (point.path == PointPath::Faulted)
        config.faults = point.faults;
    return config;
}

} // namespace

std::string
runGridPoint(const GridPoint &point, hpim::rt::ExecutionReport *out)
{
    hpim::rt::ExecutionReport report;
    switch (point.path) {
      case PointPath::RunSystem:
        report = hpim::baseline::runSystem(point.kind, point.model,
                                           point.steps, point.freqScale,
                                           point.progrPims);
        break;
      case PointPath::HeteroFlags: {
        hpim::rt::HeteroRuntime runtime(pointConfig(point));
        report = runtime.train(hpim::nn::buildModel(point.model))
                     .execution;
        break;
      }
      case PointPath::Faulted: {
        hpim::rt::Executor executor(pointConfig(point));
        report = executor.run(hpim::nn::buildModel(point.model),
                              point.steps);
        break;
      }
    }
    if (out != nullptr)
        *out = report;
    return hpim::harness::jsonString(report);
}

std::string
runGridPointTraced(const GridPoint &point,
                   hpim::rt::ExecutionReport *out)
{
    hpim::rt::ExecutionReport report;
    if (point.kind == SystemKind::Gpu) {
        // The analytic GPU model has no stages to split.
        SpanScope span("baseline.gpu");
        report = hpim::baseline::runSystem(point.kind, point.model,
                                           point.steps);
    } else {
        const hpim::nn::Graph graph = [&] {
            SpanScope span("nn.build");
            return hpim::nn::buildModel(point.model);
        }();
        const hpim::rt::SystemConfig config = pointConfig(point);
        // HeteroRuntime::train's composition: profile and select only
        // under dynamic scheduling; fault_sweep's executor runs
        // without a selection.
        const bool selected = config.dynamicScheduling
                              && point.path != PointPath::Faulted;
        hpim::rt::OffloadSelection selection;
        if (selected) {
            hpim::rt::ProfileReport profile;
            {
                SpanScope span("rt.profile");
                hpim::rt::Profiler profiler{
                    hpim::cpu::CpuModel(config.cpu)};
                profile = profiler.profile(graph);
            }
            SpanScope span("rt.select");
            selection = hpim::rt::selectOffloadCandidates(
                profile, config.offloadCoveragePct);
        }
        SpanScope span(point.path == PointPath::Faulted
                           ? "rt.execute_faulted"
                           : "rt.execute");
        hpim::rt::Executor executor(config,
                                    selected ? &selection : nullptr);
        report = executor.run(graph, point.steps);
    }
    std::string bytes;
    {
        SpanScope span("harness.report_json");
        bytes = hpim::harness::jsonString(report);
    }
    if (out != nullptr)
        *out = report;
    return bytes;
}

RunResult
runSweepCold(const RunOptions &options)
{
    RunResult result;
    std::vector<GridPoint> grid;
    DigestOracle oracle(0);

    hpim::harness::SweepOptions sweep_options;
    sweep_options.jobs = threadBudget();
    sweep_options.baseSeed = options.seed;
    sweep_options.simCache = false;
    // Cold means nothing cached from before either.
    hpim::sim::MemoCache::instance().clear();

    // Set-up: generate the grid and run one reference pass, which
    // also pays first-touch costs. Repeated; every repetition must
    // reproduce the first one's bytes.
    auto setup = [&]() {
        grid = sweepColdGrid(options.seed);
        if (oracle.size() != grid.size())
            oracle = DigestOracle(grid.size());
        hpim::harness::SweepRunner runner(sweep_options);
        auto bytes = runner.map(grid.size(),
                                [&](std::size_t i, hpim::sim::Rng &) {
                                    return runGridPoint(grid[i]);
                                });
        for (std::size_t i = 0; i < grid.size(); ++i) {
            if (!runner.stats().failures.empty() || bytes[i].empty()
                || !oracle.check(i, bytes[i]))
                throw BenchError("sweep_cold set-up pass is not "
                                 "reproducible at point "
                                 + std::to_string(i));
        }
    };
    const double setup_s = medianSetupSeconds(setup);

    SweepMeasure measure(sweep_options, grid.size(), options,
                         kBatchCopies * grid.size());
    auto check = [&](std::size_t i, const std::string &bytes) {
        return oracle.check(i, bytes);
    };
    auto untraced = [&](std::size_t i) {
        PointOutcome out;
        hpim::rt::ExecutionReport report;
        out.bytes = runGridPoint(grid[i], &report);
        out.opsCompleted = opsCompleted(report);
        out.faulted = grid[i].path == PointPath::Faulted;
        return out;
    };

    if (!options.trace) {
        SweepTotals totals =
            measure.run(options.seconds, check, result, untraced);
        addSweepEndToEnd(result, totals, setup_s);
        return result;
    }

    // Traced mode: an untraced half for the overhead baseline, then
    // the traced half the per-layer metrics come from.
    SweepTotals plain =
        measure.run(options.seconds / 2, check, result, untraced);
    const hpim::sim::MemoCache::Stats memo_before =
        hpim::sim::MemoCache::instance().stats();
    Tracer tracer;
    Tracer::install(&tracer);
    hpim::rt::ExecutionReport sum;
    std::mutex sum_mutex;
    SweepTotals traced = measure.run(
        options.seconds / 2, check, result, [&](std::size_t i) {
            PointOutcome out;
            hpim::rt::ExecutionReport report;
            out.bytes = runGridPointTraced(grid[i], &report);
            out.opsCompleted = opsCompleted(report);
            out.faulted = grid[i].path == PointPath::Faulted;
            std::lock_guard<std::mutex> lock(sum_mutex);
            sum.retries += report.retries;
            sum.opsDegraded += report.opsDegraded;
            sum.hostLaunches += report.hostLaunches;
            sum.recursiveLaunches += report.recursiveLaunches;
            return out;
        });
    Tracer::install(nullptr);

    const std::vector<Span> spans = tracer.spans();
    const std::vector<SpanStats> stats = aggregate(spans, false);
    std::vector<Metric> layer;
    const SpanStats &execute = find(stats, "rt.execute");
    layer.push_back({"rt.execute_ms.p50",
                     requirePercentile(execute.durationsMs, 50,
                                       "rt.execute_ms"),
                     ""});
    layer.push_back({"rt.execute_ms.p99",
                     requirePercentile(execute.durationsMs, 99,
                                       "rt.execute_ms"),
                     ""});
    // ns per op over unfaulted executions only.
    std::uint64_t exec_ops = traced.opsCompletedUnfaulted;
    layer.push_back({"rt.execute_ns_per_op",
                     exec_ops ? execute.totalMs * 1e6 / double(exec_ops)
                              : 0.0,
                     ""});
    layer.push_back(
        {"rt.execute_ms.faulted",
         requirePercentile(find(stats, "rt.execute_faulted").durationsMs,
                           50, "rt.execute_ms.faulted"),
         ""});
    layer.push_back({"rt.profile_ms",
                     requirePercentile(find(stats, "rt.profile")
                                           .durationsMs,
                                       50, "rt.profile_ms"),
                     ""});
    layer.push_back({"rt.select_ms",
                     requirePercentile(find(stats, "rt.select")
                                           .durationsMs,
                                       50, "rt.select_ms"),
                     ""});
    layer.push_back({"rt.ops_completed", double(traced.opsCompleted), ""});
    layer.push_back({"rt.retries", double(sum.retries), ""});
    layer.push_back({"rt.ops_degraded", double(sum.opsDegraded), ""});
    layer.push_back({"rt.host_launches", double(sum.hostLaunches), ""});
    layer.push_back({"rt.recursive_launches",
                     double(sum.recursiveLaunches), ""});
    layer.push_back({"nn.build_ms",
                     requirePercentile(find(stats, "nn.build").durationsMs,
                                       50, "nn.build_ms"),
                     ""});
    const SpanStats &json = find(stats, "harness.report_json");
    layer.push_back({"harness.report_json_ms",
                     requirePercentile(json.durationsMs, 50,
                                       "harness.report_json_ms"),
                     ""});
    layer.push_back({"harness.report_bytes",
                     traced.points ? double(traced.reportBytes)
                                         / double(traced.points)
                                   : 0.0,
                     ""});
    layer.push_back({"harness.sweep_efficiency", traced.efficiency, ""});
    addMemoMetrics(layer, hpim::sim::MemoCache::instance().stats(),
                   memo_before);
    addSelfTimes(layer, stats, traced.wallSec * 1e3,
                 sweep_options.jobs,
                 100.0 * (plain.throughput() / traced.throughput() - 1.0),
                 result);
    result.metrics = perLayerMetrics(layer);
    writeSpans(tracer, "sweep_cold", options.seed);
    return result;
}

} // namespace perfbench
