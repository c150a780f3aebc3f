/**
 * @file
 * Benchmark entry point.
 *
 * usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Prints human-readable notes, then as its last stdout line one JSON
 * object {"correct", "attempted", "failed", "metrics"}. Exits 0 only
 * when every operation succeeded and every output matched its oracle.
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "core.hh"
#include "workloads.hh"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload "
                 "sweep_cold|graph_neighbors|serve_open_loop "
                 "--seed N --seconds S --trace 0|1\n";
    std::exit(2);
}

perfbench::RunOptions
parseArgs(int argc, char **argv)
{
    perfbench::RunOptions options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (!(options.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            options.trace = value == "1";
        } else {
            usage("unknown argument " + arg);
        }
        if (end != nullptr && *end != '\0')
            usage("bad number '" + value + "' for " + arg);
    }
    if (!have_workload)
        usage("--workload is required");
    return options;
}

} // namespace

int
main(int argc, char **argv)
{
    const perfbench::RunOptions options = parseArgs(argc, argv);
    perfbench::RunResult result;
    std::string json;
    try {
        if (options.workload == "sweep_cold")
            result = perfbench::runSweepCold(options);
        else if (options.workload == "graph_neighbors")
            result = perfbench::runGraphNeighbors(options);
        else if (options.workload == "serve_open_loop")
            result = perfbench::runServeOpenLoop(options);
        else
            usage("unknown workload " + options.workload);
        json = perfbench::resultJson(result);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << options.workload
                  << " produced no result: " << e.what() << "\n";
        return 1;
    }

    for (const std::string &note : result.notes)
        std::cout << "# " << note << "\n";
    for (const perfbench::Metric &m : result.metrics) {
        std::cout << "# " << options.workload << " " << m.name << " = "
                  << m.value << " " << m.unit << "\n";
    }
    for (const std::string &error : result.errors)
        std::cerr << "perfbench: failure: " << error << "\n";
    std::cout << json << std::endl;
    return result.correct() ? 0 : 1;
}
