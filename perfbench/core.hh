/**
 * @file
 * Shared pieces of the repository benchmark: run options and result,
 * percentile maths, the seeded input generator, the output oracle and
 * the in-memory span tracer. README.md in this directory describes
 * the workloads and metrics.
 */

#ifndef PERFBENCH_CORE_HH
#define PERFBENCH_CORE_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/memo_cache.hh"
#include "sim/rng.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from @p a to @p b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Milliseconds since @p start. */
inline double
msSince(Clock::time_point start)
{
    return msBetween(start, Clock::now());
}

/**
 * CPU time of the calling thread, ms. Time the thread waits for a
 * processor -- preempted, or its virtual CPU held back by the host --
 * is not counted, so on a shared host it measures the work done, not
 * the scheduler.
 */
double threadCpuMs();

/** Threads a workload may use in total (nproc, capped at 4). */
unsigned threadBudget();

/** Peak resident set size of this process, MiB. */
double peakRssMb();

// ------------------------------------------------------------ options

/** One benchmark invocation (command-line arguments). */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test hook: flip one byte of the report of this point (or
     *  request) index in the second measured pass, so the oracle must
     *  catch it. Negative = off. */
    long corruptIndex = -1;
};

/** One named metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run produced. */
struct RunResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** First few failure messages (stderr diagnostics). */
    std::vector<std::string> errors;
    /** End-to-end metrics (untraced) or per-layer metrics (traced). */
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the JSON result. */
    std::vector<std::string> notes;

    bool correct() const { return failed == 0 && attempted > 0; }

    void
    fail(const std::string &what)
    {
        ++failed;
        if (errors.size() < 8)
            errors.push_back(what);
    }

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/** The one-line JSON result the benchmark contract asks for. */
std::string resultJson(const RunResult &result);

/** Raised when a run cannot produce a valid result at all. */
struct BenchError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------- percentiles

/**
 * Nearest-rank percentile of @p sorted (ascending, non-empty):
 * the value at rank ceil(pct/100 * n).
 */
double percentileSorted(const std::vector<double> &sorted, double pct);

/** Samples strictly above the nearest-rank @p pct of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double pct);

/** Fewest samples beyond a reported percentile (the guide's rule). */
constexpr std::size_t minSamplesBeyond = 10;

/**
 * The @p pct percentile of @p values, or nullopt when fewer than
 * minSamplesBeyond samples lie beyond it.
 */
std::optional<double> checkedPercentile(std::vector<double> values,
                                        double pct);

/**
 * checkedPercentile() that refuses instead: throws BenchError naming
 * @p what and the sample count when the percentile is not supported.
 */
double requirePercentile(const std::vector<double> &values, double pct,
                         const std::string &what);

/** Median plus the highest supported percentile of a sample set. */
struct Summary
{
    std::size_t count = 0;
    double p50 = 0.0;
    double tailPct = 50.0; ///< highest percentile with >= 10 beyond
    double tail = 0.0;
};

/**
 * Median over consecutive windows of @p window samples (in arrival
 * order) of each window's @p pct percentile; a leftover partial window
 * is dropped. A stall that hits one window moves that window's tail,
 * not the median. Throws BenchError when a window is too small for
 * @p pct or there are fewer than two windows.
 */
double windowedPercentile(const std::vector<double> &ordered, double pct,
                          std::size_t window, const std::string &what);

/** Summarize @p values (tail from 99.9/99/95/90/75/50). */
Summary summarize(std::vector<double> values);

/** "p50 1.23 ms, p99 4.56 ms (n=1234)". */
std::string describe(const Summary &summary, const std::string &unit);

// ------------------------------------------------------------- oracle

/** 64-bit digest of report bytes. */
std::uint64_t digest(const std::string &bytes);

/**
 * Per-key digest oracle: the first observation of a key records its
 * digest, every later one must match it.
 */
class DigestOracle
{
  public:
    explicit DigestOracle(std::size_t keys) : _digests(keys) {}

    /** @return false on a mismatch with the recorded digest. */
    bool check(std::size_t key, const std::string &bytes);

    std::size_t size() const { return _digests.size(); }

  private:
    std::vector<std::optional<std::uint64_t>> _digests;
};

/** Self-test hook: flip the first byte of @p bytes. */
void corrupt(std::string &bytes);

// ---------------------------------------------------------- generator

/**
 * Seeded input generator: every input a workload uses comes from
 * here, so the same seed gives byte-identical inputs. Streams are
 * named so adding a draw to one input never shifts another.
 */
class Gen
{
  public:
    Gen(std::uint64_t seed, std::uint64_t stream)
        : _rng(hpim::sim::Rng::streamSeed(seed, stream))
    {
    }

    hpim::sim::Rng &rng() { return _rng; }

    /** Fisher-Yates permutation of [0, n). */
    std::vector<std::size_t> permutation(std::size_t n);

  private:
    hpim::sim::Rng _rng;
};

/** Stream ids of Gen, one per generated input. */
enum Stream : std::uint64_t
{
    GridOrder = 1,
    FaultSeeds = 2,
    GraphDocs = 3,
    NeighborOrder = 4,
    ServeMix = 5,
    ServeDocs = 6,
    SampleKeep = 7,
};

/**
 * A uniform sample of at most a fixed number of values from a stream
 * (Algorithm R), for percentiles over a run of any length. Its memory
 * is fixed, so the benchmark's own bookkeeping does not grow
 * peak_rss_mb with the number of points a run gets through.
 */
class Reservoir
{
  public:
    Reservoir(std::size_t capacity, std::uint64_t seed)
        : _capacity(capacity), _gen(seed, Stream::SampleKeep)
    {
        _values.reserve(capacity);
    }

    void add(double value);

    /** The kept values (all of them while seen() <= capacity). */
    const std::vector<double> &values() const { return _values; }

    /** Values offered so far. */
    std::uint64_t seen() const { return _seen; }

  private:
    std::size_t _capacity;
    Gen _gen;
    std::vector<double> _values;
    std::uint64_t _seen = 0;
};

// ------------------------------------------------------------- tracer

/** One recorded span. Times are ns since the tracer's epoch. */
struct Span
{
    const char *name = "";
    std::uint32_t id = 0;
    std::uint32_t parent = 0; ///< 0 = root
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::uint64_t request = 0; ///< shared by spans of one request
    bool setup = false;        ///< recorded during set-up

    double ms() const { return double(end - start) / 1e6; }
};

/**
 * In-memory span recorder. At most one is installed at a time; while
 * none is, SpanScope costs one pointer load and records nothing, so
 * untraced runs measure the code without tracing.
 */
class Tracer
{
  public:
    Tracer();

    static Tracer *current();
    /** Install @p tracer (nullptr uninstalls). */
    static void install(Tracer *tracer);

    std::uint32_t nextId();
    std::int64_t now() const;
    void record(const Span &span);

    /** Spans recorded from now on are (not) set-up spans. */
    void setSetup(bool setup) { _setup = setup; }
    bool inSetup() const { return _setup; }

    /** All spans recorded so far, in recording order. */
    std::vector<Span> spans() const;

    /** Write every span as one JSON document to @p path. */
    void writeJson(const std::string &path) const;

  private:
    Clock::time_point _epoch;
    bool _setup = false;
    mutable std::mutex _mutex;
    std::vector<Span> _spans;
    std::uint32_t _next_id = 0;
};

/**
 * RAII span: records [construction, destruction) under the current
 * tracer, parented on the enclosing SpanScope of this thread unless
 * @p parent is given.
 */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, std::uint64_t request = 0,
                       std::optional<std::uint32_t> parent = {});
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Id of this span (0 when tracing is off). */
    std::uint32_t id() const { return _span.id; }

  private:
    Tracer *_tracer;
    Span _span;
    std::uint32_t _saved_parent = 0;
};

/** Per-name aggregate over a span set. */
struct SpanStats
{
    std::string name;
    std::size_t count = 0;
    double totalMs = 0.0;
    double selfMs = 0.0;
    std::vector<double> durationsMs;
};

/**
 * Aggregate @p spans by name. A span's self time is its duration
 * minus the union of its children's intervals clipped to it.
 * @param setup aggregate only set-up (true) or measured spans
 */
std::vector<SpanStats> aggregate(const std::vector<Span> &spans,
                                 bool setup);

/** @return the entry named @p name (an empty one if absent). */
const SpanStats &find(const std::vector<SpanStats> &stats,
                      const std::string &name);

/** Sum of self time over span names starting with "@p layer.". */
double layerSelfMs(const std::vector<SpanStats> &stats,
                   const std::string &layer);

/** Per-layer metrics every traced run reports (zero where a layer is
 *  not exercised); @p values overrides the defaults by name. */
std::vector<Metric> perLayerMetrics(const std::vector<Metric> &values);

// ------------------------------------------------------ metric helpers

/** Run @p setup @p reps times; @return the median duration, seconds. */
double medianSetupSeconds(const std::function<void()> &setup,
                          int reps = 5);

/** Append the end-to-end metrics every workload reports. */
void addEndToEnd(RunResult &result, double throughput_per_s,
                 double sim_ops_per_s, double p50_ms, double p99_ms,
                 double setup_s);

/** Append the sim.memo.* counters as the delta @p after - @p before. */
void addMemoMetrics(std::vector<Metric> &out,
                    const hpim::sim::MemoCache::Stats &after,
                    const hpim::sim::MemoCache::Stats &before);

/**
 * Append per-layer self times (rt, nn, sim, harness, serve, bench),
 * the traced wall time, the share of @p threads x wall the spans
 * account for, the tracing overhead and the error ratio.
 */
void addSelfTimes(std::vector<Metric> &out,
                  const std::vector<SpanStats> &stats, double wall_ms,
                  unsigned threads, double overhead_pct,
                  const RunResult &result);

/** Write the spans of a traced run next to the build tree. */
void writeSpans(const Tracer &tracer, const std::string &workload,
                std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_CORE_HH
