/**
 * @file
 * Developer tooling tour: record the runtime's schedule for an
 * AlexNet step, dump it as CSV (rt::ScheduleTrace) and as Chrome-trace
 * JSON (an obs::TraceSession; load it in chrome://tracing or Perfetto,
 * or summarize it with hpim_trace), print the generated OpenCL-C for
 * one complex op, and export the run report as CSV/JSON.
 *
 *   $ ./examples/inspect_schedule [out_dir]
 */

#include <fstream>
#include <iostream>

#include "baseline/presets.hh"
#include "cl/codegen.hh"
#include "harness/failpoint.hh"
#include "harness/report_io.hh"
#include "sim/logging.hh"
#include "nn/models.hh"
#include "obs/trace.hh"
#include "rt/executor.hh"
#include "rt/hetero_runtime.hh"
#include "rt/schedule_trace.hh"

int
main(int argc, char **argv)
{
    using namespace hpim;

    std::string out_dir = argc > 1 ? argv[1] : ".";

    // ---- Record a scheduled run.
    auto config = baseline::makeConfig(baseline::SystemKind::HeteroPim);
    auto graph = nn::buildAlexNet();

    rt::HeteroRuntime runtime(config);
    auto prepared = runtime.train(graph, 1); // profile + selection
    rt::Executor executor(config, &prepared.selection);
    rt::ScheduleTrace trace;
    executor.attachTrace(&trace);
    obs::TraceSession session;
    session.attach();
    auto report = executor.run(graph, 2);
    session.detach();

    std::cout << "recorded " << trace.size()
              << " scheduled intervals over "
              << report.makespanSec * 1e3 << " ms\n";
    std::cout << "device busy seconds from the trace:\n";
    for (auto placement :
         {rt::PlacedOn::Cpu, rt::PlacedOn::FixedPool,
          rt::PlacedOn::ProgrPim, rt::PlacedOn::ProgrRecursive}) {
        std::cout << "  " << rt::placedOnName(placement) << ": "
                  << trace.busySeconds(placement) << " s\n";
    }

    std::ofstream csv(out_dir + "/schedule.csv");
    trace.dumpCsv(csv);
    try {
        session.exportChromeTrace(out_dir + "/schedule.json");
    } catch (const obs::TraceExportError &e) {
        fatal("cannot export the schedule trace: ", e.what());
    }
    std::cout << "wrote " << out_dir << "/schedule.csv and "
              << out_dir << "/schedule.json (chrome://tracing)\n";

    // ---- Report export.
    try {
        std::ofstream rep_csv(out_dir + "/report.csv");
        harness::writeCsv(rep_csv, {report});
        std::ofstream rep_json(out_dir + "/report.json");
        harness::writeJson(rep_json, report);
    } catch (const harness::IoError &e) {
        fatal("cannot export reports: ", e.what());
    }
    std::cout << "wrote " << out_dir << "/report.{csv,json}\n";

    // ---- What the programmer writes vs what the compiler emits.
    auto sources =
        cl::generateKernelSources(nn::OpType::Conv2DBackpropFilter);
    std::cout << "\n---- programmer-written kernel ("
              << sources.full.name << ") ----\n"
              << sources.full.source
              << "\n---- compiler-extracted fixed-function sub-kernel "
                 "----\n"
              << sources.fixedSubKernels[0].source
              << "\n---- rewritten programmable-PIM kernel (recursive "
                 "launch, Fig. 6) ----\n"
              << sources.progrKernel.source;
    return 0;
}
