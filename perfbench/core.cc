#include "core.hh"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <thread>

#include "sim/hash.hh"

namespace perfbench {

unsigned
threadBudget()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, 4u);
}

double
threadCpuMs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}

double
peakRssMb()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // Linux reports KiB
}

namespace {

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        throw BenchError("non-finite metric value");
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

std::string
resultJson(const RunResult &result)
{
    std::string out = "{\"correct\": ";
    out += result.correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(result.attempted);
    out += ", \"failed\": " + std::to_string(result.failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : result.metrics) {
        out += first ? "" : ", ";
        first = false;
        out += "\"" + m.name + "\": {\"value\": " + jsonNumber(m.value)
               + ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

// ---------------------------------------------------------- percentiles

double
percentileSorted(const std::vector<double> &sorted, double pct)
{
    if (sorted.empty())
        throw BenchError("percentile of an empty sample set");
    const std::size_t n = sorted.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * double(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return sorted[rank - 1];
}

std::size_t
samplesBeyond(std::size_t n, double pct)
{
    if (n == 0)
        return 0;
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * double(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return n - rank;
}

std::optional<double>
checkedPercentile(std::vector<double> values, double pct)
{
    if (samplesBeyond(values.size(), pct) < minSamplesBeyond)
        return std::nullopt;
    std::sort(values.begin(), values.end());
    return percentileSorted(values, pct);
}

double
requirePercentile(const std::vector<double> &values, double pct,
                  const std::string &what)
{
    std::optional<double> value = checkedPercentile(values, pct);
    if (!value) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "p%g", pct);
        throw BenchError("refusing to report " + std::string(buf)
                         + " of " + what + " from "
                         + std::to_string(values.size())
                         + " samples: fewer than "
                         + std::to_string(minSamplesBeyond)
                         + " lie beyond it");
    }
    return *value;
}

double
windowedPercentile(const std::vector<double> &ordered, double pct,
                   std::size_t window, const std::string &what)
{
    if (samplesBeyond(window, pct) < minSamplesBeyond
        || ordered.size() < 2 * window)
        throw BenchError("refusing windowed percentile of " + what
                         + ": " + std::to_string(ordered.size())
                         + " samples in windows of "
                         + std::to_string(window));
    std::vector<double> tails;
    for (std::size_t at = 0; at + window <= ordered.size(); at += window) {
        tails.push_back(requirePercentile(
            {ordered.begin() + long(at), ordered.begin() + long(at + window)},
            pct, what));
    }
    std::sort(tails.begin(), tails.end());
    const std::size_t n = tails.size();
    return n % 2 ? tails[n / 2] : (tails[n / 2 - 1] + tails[n / 2]) / 2;
}

Summary
summarize(std::vector<double> values)
{
    Summary s;
    s.count = values.size();
    if (values.empty())
        return s;
    std::sort(values.begin(), values.end());
    s.p50 = percentileSorted(values, 50.0);
    s.tail = s.p50;
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0}) {
        if (samplesBeyond(values.size(), pct) >= minSamplesBeyond) {
            s.tailPct = pct;
            s.tail = percentileSorted(values, pct);
            break;
        }
    }
    return s;
}

std::string
describe(const Summary &summary, const std::string &unit)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "p50 %.4g %s, p%g %.4g %s (n=%zu)",
                  summary.p50, unit.c_str(), summary.tailPct,
                  summary.tail, unit.c_str(), summary.count);
    return buf;
}

// ------------------------------------------------------------- oracle

std::uint64_t
digest(const std::string &bytes)
{
    return hpim::sim::hashString(bytes);
}

bool
DigestOracle::check(std::size_t key, const std::string &bytes)
{
    std::optional<std::uint64_t> &slot = _digests.at(key);
    const std::uint64_t d = digest(bytes);
    if (!slot) {
        slot = d;
        return true;
    }
    return *slot == d;
}

void
Reservoir::add(double value)
{
    ++_seen;
    if (_values.size() < _capacity) {
        _values.push_back(value);
        return;
    }
    const std::uint64_t slot = _gen.rng().below(_seen);
    if (slot < _capacity)
        _values[slot] = value;
}

void
corrupt(std::string &bytes)
{
    if (!bytes.empty())
        bytes[0] = static_cast<char>(bytes[0] ^ 0x20);
}

// ---------------------------------------------------------- generator

std::vector<std::size_t>
Gen::permutation(std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[_rng.below(i)]);
    return order;
}

// ------------------------------------------------------------- tracer

namespace {

std::atomic<Tracer *> g_tracer{nullptr};
thread_local std::uint32_t t_current = 0;

} // namespace

Tracer::Tracer() : _epoch(Clock::now()) {}

Tracer *
Tracer::current()
{
    return g_tracer.load(std::memory_order_acquire);
}

void
Tracer::install(Tracer *tracer)
{
    g_tracer.store(tracer, std::memory_order_release);
}

std::uint32_t
Tracer::nextId()
{
    std::lock_guard<std::mutex> lock(_mutex);
    return ++_next_id;
}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - _epoch)
        .count();
}

void
Tracer::record(const Span &span)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _spans.push_back(span);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    out << "{\"spans\":[";
    bool first = true;
    for (const Span &s : spans()) {
        out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
            << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
            << ",\"request\":" << s.request
            << ",\"setup\":" << (s.setup ? "true" : "false") << "}";
        first = false;
    }
    out << "\n]}\n";
}

SpanScope::SpanScope(const char *name, std::uint64_t request,
                     std::optional<std::uint32_t> parent)
    : _tracer(Tracer::current())
{
    if (_tracer == nullptr)
        return;
    _span.name = name;
    _span.id = _tracer->nextId();
    _span.parent = parent ? *parent : t_current;
    _span.request = request;
    _span.setup = _tracer->inSetup();
    _saved_parent = t_current;
    t_current = _span.id;
    _span.start = _tracer->now();
}

SpanScope::~SpanScope()
{
    if (_tracer == nullptr)
        return;
    _span.end = _tracer->now();
    t_current = _saved_parent;
    _tracer->record(_span);
}

std::vector<SpanStats>
aggregate(const std::vector<Span> &spans, bool setup)
{
    std::map<std::uint32_t, std::vector<const Span *>> children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    }
    std::map<std::string, SpanStats> by_name;
    for (const Span &s : spans) {
        if (s.setup != setup)
            continue;
        // Union of the children's intervals, clipped to this span:
        // children on other threads may overlap each other.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        auto it = children.find(s.id);
        if (it != children.end()) {
            for (const Span *c : it->second) {
                std::int64_t a = std::max(c->start, s.start);
                std::int64_t b = std::min(c->end, s.end);
                if (b > a)
                    iv.emplace_back(a, b);
            }
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0, reach = s.start;
        for (const auto &[a, b] : iv) {
            std::int64_t from = std::max(a, reach);
            if (b > from) {
                covered += b - from;
                reach = b;
            }
        }
        SpanStats &agg = by_name[s.name];
        agg.name = s.name;
        ++agg.count;
        agg.totalMs += s.ms();
        agg.selfMs += double(s.end - s.start - covered) / 1e6;
        agg.durationsMs.push_back(s.ms());
    }
    std::vector<SpanStats> out;
    for (auto &[name, agg] : by_name)
        out.push_back(std::move(agg));
    return out;
}

const SpanStats &
find(const std::vector<SpanStats> &stats, const std::string &name)
{
    static const SpanStats empty;
    for (const SpanStats &s : stats) {
        if (s.name == name)
            return s;
    }
    return empty;
}

double
layerSelfMs(const std::vector<SpanStats> &stats, const std::string &layer)
{
    double total = 0.0;
    const std::string prefix = layer + ".";
    for (const SpanStats &s : stats) {
        if (s.name.compare(0, prefix.size(), prefix) == 0)
            total += s.selfMs;
    }
    return total;
}

std::vector<Metric>
perLayerMetrics(const std::vector<Metric> &values)
{
    // The per_layer list of BENCHMARK.json, in the same order.
    static const std::vector<std::pair<const char *, const char *>>
        kNames = {
            {"rt.execute_ms.p50", "ms"},
            {"rt.execute_ms.p99", "ms"},
            {"rt.execute_ns_per_op", "ns"},
            {"rt.execute_ms.faulted", "ms"},
            {"rt.profile_ms", "ms"},
            {"rt.select_ms", "ms"},
            {"rt.train_ms", "ms"},
            {"rt.ops_completed", "count"},
            {"rt.retries", "count"},
            {"rt.ops_degraded", "count"},
            {"rt.host_launches", "count"},
            {"rt.recursive_launches", "count"},
            {"rt.self_ms", "ms"},
            {"nn.build_ms", "ms"},
            {"nn.parse_ms", "ms"},
            {"nn.parse_mb_per_s", "MB/s"},
            {"nn.parse_calls.measured", "count"},
            {"nn.serialize_ms", "ms"},
            {"nn.self_ms", "ms"},
            {"sim.memo.hits", "count"},
            {"sim.memo.partial_hits", "count"},
            {"sim.memo.misses", "count"},
            {"sim.memo.insertions", "count"},
            {"sim.memo.evictions", "count"},
            {"sim.memo.entries", "count"},
            {"sim.memo.hit_ratio", "ratio"},
            {"sim.self_ms", "ms"},
            {"harness.report_json_ms", "ms"},
            {"harness.report_bytes", "bytes"},
            {"harness.sweep_efficiency", "ratio"},
            {"harness.self_ms", "ms"},
            {"serve.encode_us", "us"},
            {"serve.decode_us", "us"},
            {"serve.queue_ms.p50", "ms"},
            {"serve.queue_ms.p99", "ms"},
            {"serve.run_ms.p50", "ms"},
            {"serve.run_ms.p99", "ms"},
            {"serve.overhead_ms", "ms"},
            {"serve.rejected.overload", "count"},
            {"serve.deadline.queued", "count"},
            {"serve.deadline.running", "count"},
            {"serve.queue.depth", "count"},
            {"serve.req_p50_ms.low", "ms"},
            {"serve.req_p99_ms.low", "ms"},
            {"serve.req_p50_ms.high", "ms"},
            {"serve.req_p99_ms.high", "ms"},
            {"serve.max_rate_rps", "1/s"},
            {"serve.self_ms", "ms"},
            {"loadgen.late_ms_p99", "ms"},
            {"bench.self_ms", "ms"},
            {"bench.traced_wall_ms", "ms"},
            {"bench.accounted_pct", "%"},
            {"bench.trace_overhead_pct", "%"},
            {"bench.error_ratio", "ratio"},
        };
    std::vector<Metric> out;
    for (const auto &[name, unit] : kNames) {
        Metric m{name, 0.0, unit};
        for (const Metric &v : values) {
            if (v.name == name)
                m.value = v.value;
        }
        out.push_back(m);
    }
    for (const Metric &v : values) {
        bool listed = std::any_of(
            kNames.begin(), kNames.end(),
            [&](const auto &entry) { return v.name == entry.first; });
        if (!listed)
            throw BenchError("per-layer metric '" + v.name
                             + "' is not in the published list");
    }
    return out;
}

// ------------------------------------------------------ metric helpers

double
medianSetupSeconds(const std::function<void()> &setup, int reps)
{
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r) {
        const Clock::time_point start = Clock::now();
        setup();
        seconds.push_back(msSince(start) / 1e3);
    }
    std::sort(seconds.begin(), seconds.end());
    return percentileSorted(seconds, 50.0);
}

void
addEndToEnd(RunResult &result, double throughput_per_s,
            double sim_ops_per_s, double p50_ms, double p99_ms,
            double setup_s)
{
    result.add("throughput_per_s", throughput_per_s, "1/s");
    result.add("sim_ops_per_s", sim_ops_per_s, "1/s");
    result.add("p50_ms", p50_ms, "ms");
    result.add("p99_ms", p99_ms, "ms");
    result.add("setup_s", setup_s, "s");
    result.add("peak_rss_mb", peakRssMb(), "MB");
}

void
addMemoMetrics(std::vector<Metric> &out,
               const hpim::sim::MemoCache::Stats &after,
               const hpim::sim::MemoCache::Stats &before)
{
    const double hits = double(after.hits - before.hits);
    const double partial = double(after.partialHits - before.partialHits);
    const double misses = double(after.misses - before.misses);
    out.push_back({"sim.memo.hits", hits, ""});
    out.push_back({"sim.memo.partial_hits", partial, ""});
    out.push_back({"sim.memo.misses", misses, ""});
    out.push_back({"sim.memo.insertions",
                   double(after.insertions - before.insertions), ""});
    out.push_back({"sim.memo.evictions",
                   double(after.evictions - before.evictions), ""});
    out.push_back({"sim.memo.entries", double(after.entries), ""});
    const double lookups = hits + partial + misses;
    out.push_back({"sim.memo.hit_ratio",
                   lookups > 0.0 ? (hits + partial) / lookups : 0.0, ""});
}

void
addSelfTimes(std::vector<Metric> &out, const std::vector<SpanStats> &stats,
             double wall_ms, unsigned threads, double overhead_pct,
             const RunResult &result)
{
    double accounted = 0.0;
    for (const SpanStats &s : stats)
        accounted += s.selfMs;
    for (const char *layer : {"rt", "nn", "sim", "harness", "serve",
                              "bench"}) {
        out.push_back({std::string(layer) + ".self_ms",
                       layerSelfMs(stats, layer), ""});
    }
    out.push_back({"bench.traced_wall_ms", wall_ms, ""});
    out.push_back({"bench.accounted_pct",
                   wall_ms > 0.0
                       ? 100.0 * accounted / (wall_ms * double(threads))
                       : 0.0,
                   ""});
    out.push_back({"bench.trace_overhead_pct", overhead_pct, ""});
    out.push_back({"bench.error_ratio",
                   result.attempted ? double(result.failed)
                                          / double(result.attempted)
                                    : 0.0,
                   ""});
}

void
writeSpans(const Tracer &tracer, const std::string &workload,
           std::uint64_t seed)
{
    ::mkdir(".bench_build", 0755);
    const std::string path = ".bench_build/spans-" + workload + "-"
                             + std::to_string(seed) + ".json";
    tracer.writeJson(path);
    std::cerr << "perfbench: spans written to " << path << "\n";
}

} // namespace perfbench
