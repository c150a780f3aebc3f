/**
 * @file
 * The measurement loop the two sweep workloads share: repeated
 * SweepRunner::map batches over a fixed point list until the time is
 * up, with per-point latency, the digest oracle and the counts the
 * metrics need.
 */

#ifndef PERFBENCH_SWEEP_COMMON_HH
#define PERFBENCH_SWEEP_COMMON_HH

#include <algorithm>
#include <string>
#include <vector>

#include "core.hh"
#include "harness/sweep.hh"
#include "rt/execution_report.hh"

namespace perfbench {

/** What one point evaluation returns to the loop. */
struct PointOutcome
{
    std::string bytes;              ///< harness::jsonString(report)
    std::uint64_t opsCompleted = 0; ///< simulated op completions
    bool faulted = false;           ///< fault-injected point
    double cpuMs = 0.0;             ///< host CPU time of the point
};

/** Simulated op completions of @p report (all placements). */
inline std::uint64_t
opsCompleted(const hpim::rt::ExecutionReport &report)
{
    std::uint64_t ops = 0;
    for (const auto &[placement, count] : report.opsByPlacement)
        ops += count;
    return ops;
}

/** Point times kept for the percentiles: 655 lie beyond the p99. */
constexpr std::size_t kPointSamples = 1 << 16;

/** Totals of one measured stretch. */
struct SweepTotals
{
    explicit SweepTotals(std::uint64_t seed)
        : pointCpuMs(kPointSamples, seed)
    {
    }

    std::size_t points = 0;
    double wallSec = 0.0;
    double efficiency = 0.0; ///< serialSec / (wallSec * jobs)
    std::uint64_t opsCompleted = 0;
    std::uint64_t opsCompletedUnfaulted = 0;
    std::uint64_t reportBytes = 0;
    /** Host CPU time of a point on its worker thread, sampled. */
    Reservoir pointCpuMs;
    /** Points and simulated ops per second of each batch. */
    std::vector<double> batchPointsPerSec;
    std::vector<double> batchOpsPerSec;

    /** Median over batches: a burst of interference from outside the
     *  process moves a few batches, not the median. */
    double throughput() const
    {
        return requirePercentile(batchPointsPerSec, 50, "batch rate");
    }

    double simOpsPerSec() const
    {
        return requirePercentile(batchOpsPerSec, 50, "batch op rate");
    }
};

/** End-to-end metrics of a sweep workload's untraced run. */
inline void
addSweepEndToEnd(RunResult &result, const SweepTotals &totals,
                 double setup_s)
{
    addEndToEnd(result, totals.throughput(), totals.simOpsPerSec(),
                requirePercentile(totals.pointCpuMs.values(), 50,
                                  "point time"),
                requirePercentile(totals.pointCpuMs.values(), 99,
                                  "point time"),
                setup_s);
    result.notes.push_back(
        "point CPU time "
        + describe(summarize(totals.pointCpuMs.values()), "ms") + " of "
        + std::to_string(totals.pointCpuMs.seen()) + " points over "
        + std::to_string(totals.batchPointsPerSec.size()) + " batches");
}

/** Runs measured batches of a fixed point list. */
class SweepMeasure
{
  public:
    /**
     * @param batch_points points per SweepRunner::map call; large
     *        enough that the end-of-batch barrier is a small share
     */
    SweepMeasure(hpim::harness::SweepOptions sweep_options,
                 std::size_t points, const RunOptions &options,
                 std::size_t batch_points)
        : _sweep_options(std::move(sweep_options)), _points(points),
          _options(options),
          _batch(std::max<std::size_t>(batch_points, points))
    {
    }

    /**
     * Measure for @p seconds (and at least 21 batches). @p fn(i)
     * evaluates point i;
     * @p check(i, bytes) is the oracle for its report bytes. Failures
     * land in @p result.
     */
    template <typename Fn, typename Check>
    SweepTotals
    run(double seconds, Check &&check, RunResult &result, Fn &&fn)
    {
        SweepTotals totals(_options.seed);
        double serial_sec = 0.0;
        std::uint32_t jobs = 1;
        const Clock::time_point start = Clock::now();
        // At least enough batches for a median with ten beyond it,
        // however slow the host.
        const std::size_t min_batches = 2 * minSamplesBeyond + 1;
        while (totals.batchPointsPerSec.size() < min_batches
               || msSince(start) < seconds * 1e3) {
            // A runner per batch: its failure list and stats are
            // cumulative, and each batch is judged on its own.
            hpim::harness::SweepRunner runner(_sweep_options);
            std::vector<PointOutcome> outcomes = runner.map(
                _batch, [&](std::size_t k, hpim::sim::Rng &) {
                    SpanScope root("bench.point", k % _points);
                    const double t0 = threadCpuMs();
                    PointOutcome out = fn(k % _points);
                    out.cpuMs = threadCpuMs() - t0;
                    return out;
                });
            const hpim::harness::SweepStats &stats = runner.stats();
            totals.wallSec += stats.wallSec;
            serial_sec += stats.serialSec;
            jobs = stats.jobs;
            const std::size_t points_before = totals.points;
            const std::uint64_t ops_before = totals.opsCompleted;
            std::vector<std::uint8_t> threw(_batch, 0);
            for (const auto &failure : stats.failures) {
                threw.at(failure.index) = 1;
                result.fail("point "
                            + std::to_string(failure.index % _points)
                            + " threw: " + failure.what);
            }
            for (std::size_t k = 0; k < _batch; ++k) {
                PointOutcome &out = outcomes[k];
                const std::size_t i = k % _points;
                ++result.attempted;
                if (_options.corruptIndex >= 0
                    && std::size_t(_options.corruptIndex) == i
                    && _batches == 1 && k < _points)
                    corrupt(out.bytes);
                if (threw[k])
                    continue;
                if (!check(i, out.bytes)) {
                    result.fail("point " + std::to_string(i)
                                + ": report bytes differ from the "
                                  "reference");
                    continue;
                }
                ++totals.points;
                totals.opsCompleted += out.opsCompleted;
                if (!out.faulted)
                    totals.opsCompletedUnfaulted += out.opsCompleted;
                totals.reportBytes += out.bytes.size();
                totals.pointCpuMs.add(out.cpuMs);
            }
            totals.batchPointsPerSec.push_back(
                double(totals.points - points_before) / stats.wallSec);
            totals.batchOpsPerSec.push_back(
                double(totals.opsCompleted - ops_before) / stats.wallSec);
            ++_batches;
        }
        totals.efficiency =
            totals.wallSec > 0.0
                ? serial_sec / (totals.wallSec * double(jobs))
                : 0.0;
        return totals;
    }

  private:
    hpim::harness::SweepOptions _sweep_options;
    std::size_t _points;
    const RunOptions &_options;
    std::size_t _batch;
    /** Batches measured so far (the corruption hook fires in the
     *  second, after the first has recorded every digest). */
    std::size_t _batches = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SWEEP_COMMON_HH
