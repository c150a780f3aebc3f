/**
 * @file
 * The three benchmark workloads. Each takes the run options, builds
 * its inputs from the seed, measures for the requested time and
 * returns its metrics: end-to-end metrics when untraced, per-layer
 * metrics when traced. README.md in this directory has the metric map.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/presets.hh"
#include "core.hh"
#include "serve/protocol.hh"
#include "sim/fault_model.hh"

namespace perfbench {

// ----------------------------------------------------------- sweep_cold

/** How a grid point is composed from the library's entry points. */
enum class PointPath
{
    RunSystem,    ///< baseline::runSystem (fig8/fig11/fig12 axes)
    HeteroFlags,  ///< makeHetero(rc, op) + HeteroRuntime::train (fig13)
    Faulted,      ///< makeConfig + faults + Executor::run (fault_sweep)
};

/** One point of the cold DSE grid. */
struct GridPoint
{
    PointPath path = PointPath::RunSystem;
    hpim::baseline::SystemKind kind =
        hpim::baseline::SystemKind::HeteroPim;
    hpim::nn::ModelId model = hpim::nn::ModelId::AlexNet;
    std::uint32_t steps = 4;
    double freqScale = 1.0;
    std::uint32_t progrPims = 1;
    bool rc = true;
    bool op = true;
    hpim::sim::FaultConfig faults;
};

/** The sweep_cold grid in its seeded order. */
std::vector<GridPoint> sweepColdGrid(std::uint64_t seed);

/** Report bytes of @p point through the untraced entry points. */
std::string runGridPoint(const GridPoint &point,
                         hpim::rt::ExecutionReport *report = nullptr);

/**
 * Report bytes of @p point composed stage by stage (build, profile,
 * select, execute, serialize) with a span around each stage. Must
 * equal runGridPoint() byte for byte.
 */
std::string runGridPointTraced(const GridPoint &point,
                               hpim::rt::ExecutionReport *report = nullptr);

RunResult runSweepCold(const RunOptions &options);

// ------------------------------------------------------ graph_neighbors

/** One document of the graph pool. */
struct GraphDoc
{
    std::string name;
    std::string text;
};

/** The seeded graph document pool (reads examples/graphs). */
std::vector<GraphDoc> graphPool(std::uint64_t seed);

RunResult runGraphNeighbors(const RunOptions &options);

// ------------------------------------------------------ serve_open_loop

/** One scheduled request of the open-loop generator. */
struct Arrival
{
    double dueMs = 0.0; ///< offset from the phase start
    hpim::serve::SimulateSpec spec;
};

/** A phase of the arrival schedule: open loop at a fixed rate, or a
 *  closed loop that sends every arrival as soon as fewer than a fixed
 *  number are outstanding. */
struct Phase
{
    std::string name;
    double rate = 0.0; ///< requests per second (open loop)
    std::vector<Arrival> arrivals;
    /** Closed loop: requests kept outstanding; 0 for open loop. */
    std::size_t outstanding = 0;
};

/** The seeded schedule: low, high, the closed-loop saturate phase,
 *  then (if @p ladder) the rate ladder. */
std::vector<Phase> serveSchedule(std::uint64_t seed, double seconds,
                                 bool ladder);

/** Latency (ms) and send lateness of one request of a phase. */
struct Lateness
{
    double dueMs = 0.0;  ///< scheduled send, from the phase start
    double sentMs = 0.0; ///< actual send, from the phase start
    double doneMs = 0.0; ///< response received, from the phase start

    double latencyMs() const { return doneMs - dueMs; }
    double lateMs() const { return sentMs - dueMs; }
};

RunResult runServeOpenLoop(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
