/**
 * @file
 * Self-tests of the benchmark itself: seeded input generation,
 * percentile maths, the output oracle, open-loop lateness accounting
 * and the cold sweep's memo isolation. Run from the repository root
 * (`python3 perfbench/run.py --selftest`): the graph pool reads
 * examples/graphs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core.hh"
#include "harness/report_io.hh"
#include "serve/protocol.hh"
#include "workloads.hh"

namespace perfbench {
namespace {

const Metric &
metric(const RunResult &result, const std::string &name)
{
    for (const Metric &m : result.metrics) {
        if (m.name == name)
            return m;
    }
    ADD_FAILURE() << "no metric " << name;
    static const Metric none;
    return none;
}

std::string
gridBytes(const std::vector<GridPoint> &grid)
{
    std::string out;
    for (const GridPoint &p : grid) {
        out += std::to_string(int(p.path)) + "," + std::to_string(int(p.kind))
               + "," + std::to_string(int(p.model)) + ","
               + std::to_string(p.steps) + "," + std::to_string(p.freqScale)
               + "," + std::to_string(p.progrPims) + ","
               + std::to_string(p.rc) + std::to_string(p.op) + ","
               + std::to_string(p.faults.seed) + ";";
    }
    return out;
}

std::string
scheduleBytes(const std::vector<Phase> &phases)
{
    std::string out;
    for (const Phase &phase : phases) {
        out += phase.name + "@" + std::to_string(phase.rate) + "/"
               + std::to_string(phase.outstanding) + ":";
        for (const Arrival &a : phase.arrivals) {
            hpim::serve::Request request;
            request.kind = hpim::serve::RequestKind::Simulate;
            request.sim = a.spec;
            out += std::to_string(a.dueMs) + "="
                   + hpim::serve::encodeRequest(request) + "\n";
        }
    }
    return out;
}

// ------------------------------------------------------------ generator

TEST(Generator, SameSeedGivesByteIdenticalInputs)
{
    EXPECT_EQ(gridBytes(sweepColdGrid(7)), gridBytes(sweepColdGrid(7)));
    EXPECT_EQ(scheduleBytes(serveSchedule(7, 2.0, true)),
              scheduleBytes(serveSchedule(7, 2.0, true)));
    std::vector<GraphDoc> a = graphPool(7), b = graphPool(7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].text, b[i].text);
    }
}

TEST(Generator, SeedChangesOrderFaultSeedsDocsAndMix)
{
    EXPECT_NE(gridBytes(sweepColdGrid(7)), gridBytes(sweepColdGrid(8)));
    EXPECT_NE(scheduleBytes(serveSchedule(7, 2.0, true)),
              scheduleBytes(serveSchedule(8, 2.0, true)));
    std::vector<GraphDoc> a = graphPool(7), b = graphPool(8);
    ASSERT_EQ(a.size(), b.size());
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs = differs || a[i].text != b[i].text;
    EXPECT_TRUE(differs);
}

TEST(Generator, GridCoversEveryAxisWhateverTheSeed)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        std::vector<GridPoint> grid = sweepColdGrid(seed);
        EXPECT_EQ(grid.size(), 42u + 28u + 21u + 12u);
        EXPECT_EQ(std::count_if(grid.begin(), grid.end(),
                                [](const GridPoint &p) {
                                    return p.path == PointPath::Faulted;
                                }),
                  12);
    }
}

TEST(Generator, PermutationIsAPermutation)
{
    Gen gen(3, Stream::GridOrder);
    std::vector<std::size_t> order = gen.permutation(100);
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

// ---------------------------------------------------------- percentiles

TEST(Percentiles, NearestRankAndSamplesBeyond)
{
    std::vector<double> v(100);
    std::iota(v.begin(), v.end(), 1.0); // 1..100
    EXPECT_EQ(percentileSorted(v, 50), 50.0);
    EXPECT_EQ(percentileSorted(v, 99), 99.0);
    EXPECT_EQ(percentileSorted(v, 100), 100.0);
    EXPECT_EQ(samplesBeyond(100, 50), 50u);
    EXPECT_EQ(samplesBeyond(100, 90), 10u);
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(samplesBeyond(999, 99), 9u);
    EXPECT_EQ(samplesBeyond(0, 50), 0u);
}

TEST(Percentiles, RefusesAP99FromTooFewSamples)
{
    std::vector<double> v(999, 1.0);
    EXPECT_FALSE(checkedPercentile(v, 99).has_value());
    EXPECT_THROW(requirePercentile(v, 99, "test"), BenchError);
    v.push_back(2.0); // 1000 samples: exactly ten beyond p99
    EXPECT_EQ(requirePercentile(v, 99, "test"), 1.0);
}

TEST(Percentiles, SummaryReportsTheHighestSupportedTail)
{
    std::vector<double> v(200);
    std::iota(v.begin(), v.end(), 1.0);
    Summary s = summarize(v);
    EXPECT_EQ(s.count, 200u);
    EXPECT_EQ(s.p50, 100.0);
    EXPECT_EQ(s.tailPct, 95.0); // p99 would leave 2 beyond
    EXPECT_EQ(s.tail, 190.0);
    v.resize(5000);
    std::iota(v.begin(), v.end(), 1.0);
    EXPECT_EQ(summarize(v).tailPct, 99.0); // p99.9 leaves 5 beyond
}

TEST(Percentiles, WindowedTailIgnoresOneStalledWindow)
{
    // Three calm windows with p99 = 1 and one stalled window whose
    // whole top 5% reads 50: the median over windows stays near 1.
    std::vector<double> v;
    for (int w = 0; w < 4; ++w) {
        for (int i = 0; i < 1000; ++i)
            v.push_back(w == 2 && i >= 950 ? 50.0 : (i >= 980 ? 1.0 : 0.5));
    }
    EXPECT_EQ(windowedPercentile(v, 99, 1000, "test"), 1.0);
    EXPECT_EQ(requirePercentile(v, 99, "test"), 50.0);
    // Windows too small for a p99, or a single window: refused.
    EXPECT_THROW(windowedPercentile(v, 99, 500, "test"), BenchError);
    EXPECT_THROW(windowedPercentile(std::vector<double>(1500, 1.0), 99,
                                    1000, "test"),
                 BenchError);
}

TEST(Percentiles, ReservoirKeepsAFixedSeededSample)
{
    Reservoir a(1000, 3), b(1000, 3);
    for (int i = 0; i < 500; ++i)
        a.add(double(i));
    EXPECT_EQ(a.values().size(), 500u); // all kept while it fits
    // 100000 values in a shuffled order: the sample stays at its
    // capacity, repeats for the same seed, and its median is near
    // the stream's.
    Gen order(5, Stream::GridOrder);
    const std::vector<std::size_t> stream = order.permutation(100000);
    a = Reservoir(1000, 3);
    for (std::size_t v : stream) {
        a.add(double(v));
        b.add(double(v));
    }
    EXPECT_EQ(a.seen(), 100000u);
    EXPECT_EQ(a.values().size(), 1000u);
    EXPECT_EQ(a.values(), b.values());
    EXPECT_NEAR(requirePercentile(a.values(), 50, "test"), 50000.0,
                5000.0);
}

// --------------------------------------------------------------- oracle

TEST(Oracle, DigestOracleCatchesACorruptedReport)
{
    GridPoint point; // Hetero AlexNet
    const std::string bytes = runGridPoint(point);
    DigestOracle oracle(1);
    EXPECT_TRUE(oracle.check(0, bytes));
    EXPECT_TRUE(oracle.check(0, runGridPoint(point)));
    std::string bad = bytes;
    corrupt(bad);
    EXPECT_FALSE(oracle.check(0, bad));
}

TEST(Oracle, TracedCompositionMatchesTheUntracedPathByteForByte)
{
    for (const GridPoint &point : sweepColdGrid(5))
        EXPECT_EQ(runGridPointTraced(point), runGridPoint(point));
}

TEST(Oracle, CorruptedReportFailsTheRun)
{
    RunOptions options;
    options.workload = "sweep_cold";
    options.seed = 4;
    options.seconds = 3.0;
    options.corruptIndex = 3;
    RunResult result = runSweepCold(options);
    EXPECT_GE(result.failed, 1u);
    EXPECT_FALSE(result.correct());
    options.corruptIndex = -1;
    EXPECT_TRUE(runSweepCold(options).correct());
}

// ---------------------------------------------------- open-loop lateness

TEST(OpenLoop, LatencyCountsFromTheDueTime)
{
    // Due at 10 ms, sent 5 ms late behind a stall, answered at 20 ms:
    // the stall is charged to the request.
    Lateness t{10.0, 15.0, 20.0};
    EXPECT_DOUBLE_EQ(t.lateMs(), 5.0);
    EXPECT_DOUBLE_EQ(t.latencyMs(), 10.0);
}

TEST(OpenLoop, ScheduleHasFixedAbsoluteRates)
{
    std::vector<Phase> phases = serveSchedule(9, 10.0, true);
    ASSERT_GE(phases.size(), 3u);
    EXPECT_EQ(phases[0].name, "low");
    EXPECT_EQ(phases[1].name, "high");
    // Only the saturate phase is a closed loop.
    EXPECT_EQ(phases[2].name, "saturate");
    for (const Phase &phase : phases)
        EXPECT_EQ(phase.outstanding > 0, phase.name == "saturate")
            << phase.name;
    for (const Phase &phase : phases) {
        ASSERT_FALSE(phase.arrivals.empty());
        EXPECT_EQ(phase.arrivals.front().dueMs, 0.0);
        for (std::size_t i = 1; i < phase.arrivals.size(); ++i) {
            EXPECT_NEAR(phase.arrivals[i].dueMs
                            - phase.arrivals[i - 1].dueMs,
                        1e3 / phase.rate, 1e-9);
        }
    }
    // The rates do not depend on the seed.
    std::vector<Phase> other = serveSchedule(10, 10.0, true);
    ASSERT_EQ(other.size(), phases.size());
    for (std::size_t i = 0; i < phases.size(); ++i)
        EXPECT_EQ(other[i].rate, phases[i].rate);
}

// ---------------------------------------------------- memo isolation

TEST(SweepCold, ShowsZeroMemoActivityAndExecuteDominates)
{
    RunOptions options;
    options.workload = "sweep_cold";
    options.seed = 6;
    options.seconds = 6.0;
    options.trace = true;
    RunResult result = runSweepCold(options);
    ASSERT_TRUE(result.correct());
    for (const char *name :
         {"sim.memo.hits", "sim.memo.partial_hits", "sim.memo.misses",
          "sim.memo.insertions", "sim.memo.evictions",
          "sim.memo.entries"}) {
        EXPECT_EQ(metric(result, name).value, 0.0) << name;
    }
    const double rt = metric(result, "rt.self_ms").value;
    for (const char *other : {"nn.self_ms", "harness.self_ms",
                              "sim.self_ms", "bench.self_ms"})
        EXPECT_GT(rt, metric(result, other).value) << other;
}

} // namespace
} // namespace perfbench
