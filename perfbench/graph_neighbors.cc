/**
 * @file
 * graph_neighbors: a seeded pool of nn::GraphIo documents swept over
 * neighbouring system configs with a warm sim::MemoCache. Each point
 * re-materializes its graph from the document bytes the way serve
 * does, so the warm steady state is doc hashing, memo lookups,
 * training and report serialization; parsing happens only in set-up.
 */

#include <atomic>
#include <fstream>
#include <sstream>

#include "harness/report_io.hh"
#include "harness/sweep.hh"
#include "nn/graph_builder.hh"
#include "nn/graph_io.hh"
#include "nn/models.hh"
#include "rt/hetero_runtime.hh"
#include "sim/hash.hh"
#include "sim/memo_cache.hh"
#include "sweep_common.hh"
#include "workloads.hh"

namespace perfbench {

using hpim::baseline::SystemKind;

namespace {

constexpr std::uint32_t kSteps = 2;
constexpr std::size_t kBatchCopies = 4;

/** Bytes handed to nn::loadGraph (nn.parse_mb_per_s). */
std::atomic<std::uint64_t> g_parsed_bytes{0};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw BenchError("cannot read " + path
                         + " (run from the repository root)");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** A stack of transformer encoder blocks closed as a training step. */
hpim::nn::Graph
buildStack(const std::string &name, std::int64_t tokens,
           std::int64_t width, int layers)
{
    using namespace hpim::nn;
    Builder b(name);
    TensorRef x = b.input(TensorShape{tokens, width});
    for (int layer = 0; layer < layers; ++layer) {
        TensorRef q = b.dense(x, width, false);
        TensorRef k = b.dense(x, width, false);
        TensorRef v = b.dense(x, width, false);
        TensorRef weights = b.softmax(b.matmul(q, b.transpose(k)));
        TensorRef proj = b.dense(b.matmul(weights, v), width, false);
        TensorRef attn = b.layerNorm(b.add(proj, x));
        TensorRef ffn = b.dense(b.dense(attn, 4 * width), width, false);
        x = b.layerNorm(b.add(ffn, attn));
    }
    return b.trainingStep(b.dense(x, 1000, false));
}

/** 32 identical dense towers merged pairwise: ~500 lowered ops. */
hpim::nn::Graph
buildWide(const std::string &name)
{
    using namespace hpim::nn;
    Builder b(name);
    std::vector<TensorRef> towers;
    for (int tower = 0; tower < 32; ++tower) {
        TensorRef x = b.input(TensorShape{64, 256});
        towers.push_back(
            b.dense(b.layerNorm(b.dense(x, 256)), 128));
    }
    while (towers.size() > 1) {
        std::vector<TensorRef> merged;
        for (std::size_t i = 0; i + 1 < towers.size(); i += 2)
            merged.push_back(b.add(towers[i], towers[i + 1]));
        if (towers.size() % 2 != 0)
            merged.push_back(towers.back());
        towers = std::move(merged);
    }
    return b.trainingStep(b.dense(towers.front(), 16, false));
}

std::string
serialize(const hpim::nn::Graph &graph)
{
    SpanScope span("nn.serialize");
    return hpim::nn::graphToJson(graph);
}

hpim::nn::Graph
parse(const std::string &text)
{
    SpanScope span("nn.parse");
    g_parsed_bytes.fetch_add(text.size(), std::memory_order_relaxed);
    return hpim::nn::loadGraph(text);
}

/**
 * The graph of a document, memoized on the document's exact bytes
 * under serve's tag, so a warm lookup costs the doc hash plus one
 * cache probe and a cold one the full parse.
 */
std::shared_ptr<const hpim::nn::Graph>
materialize(const std::string &text)
{
    SpanScope span("sim.materialize");
    auto &cache = hpim::sim::MemoCache::instance();
    const std::uint64_t key = hpim::sim::hashString(text);
    if (auto hit = cache.find<hpim::nn::Graph>(key, "nn.graph.user"))
        return hit;
    auto built = std::make_shared<const hpim::nn::Graph>(parse(text));
    cache.put<hpim::nn::Graph>(key, "nn.graph.user", built);
    return built;
}

/** One neighbouring config of one document. */
struct NeighborPoint
{
    std::size_t doc = 0;
    SystemKind kind = SystemKind::HeteroPim;
    double freqScale = 1.0;
    std::uint32_t progrPims = 1;
    double coveragePct = 90.0;
};

std::vector<NeighborPoint>
neighborPoints(std::size_t docs, std::uint64_t seed)
{
    std::vector<NeighborPoint> points;
    for (std::size_t doc = 0; doc < docs; ++doc) {
        for (double freq : {1.0, 0.9}) {
            points.push_back({doc, SystemKind::FixedPimOnly, freq, 1,
                              90.0});
            for (std::uint32_t pims : {1u, 2u}) {
                for (double coverage : {90.0, 80.0}) {
                    points.push_back({doc, SystemKind::HeteroPim, freq,
                                      pims, coverage});
                }
            }
        }
    }
    Gen gen(seed, Stream::NeighborOrder);
    std::vector<NeighborPoint> shuffled;
    for (std::size_t i : gen.permutation(points.size()))
        shuffled.push_back(points[i]);
    return shuffled;
}

std::string
runPoint(const NeighborPoint &point, const hpim::nn::Graph &graph,
         hpim::rt::ExecutionReport *out = nullptr)
{
    hpim::rt::SystemConfig config = hpim::baseline::makeConfig(
        point.kind, point.freqScale, point.progrPims);
    config.offloadCoveragePct = point.coveragePct;
    config.steps = kSteps;
    hpim::rt::ExecutionReport report;
    {
        SpanScope span("rt.train");
        report = hpim::rt::HeteroRuntime(config).train(graph).execution;
    }
    if (out != nullptr)
        *out = report;
    SpanScope span("harness.report_json");
    return hpim::harness::jsonString(report);
}

} // namespace

std::vector<GraphDoc>
graphPool(std::uint64_t seed)
{
    std::vector<GraphDoc> pool;
    for (const char *file : {"edge_cnn_infer.json",
                             "transformer_train.json"}) {
        pool.push_back({file, readFile(std::string("examples/graphs/")
                                       + file)});
    }
    Gen gen(seed, Stream::GraphDocs);
    auto tag = [&gen] {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%08llx",
                      static_cast<unsigned long long>(
                          gen.rng().next() & 0xffffffffULL));
        return std::string(buf);
    };
    // Three stacks of equal total cost class; the seed picks which
    // stack gets which shape, and names every document.
    struct Shape
    {
        std::int64_t tokens, width;
        int layers;
    };
    const Shape shapes[] = {{512, 256, 2}, {1024, 128, 3}, {256, 384, 2}};
    for (std::size_t i : gen.permutation(3)) {
        const Shape &s = shapes[i];
        const std::string name = "stack-" + tag();
        hpim::nn::Graph graph = [&] {
            SpanScope span("nn.build");
            return buildStack(name, s.tokens, s.width, s.layers);
        }();
        pool.push_back({name, serialize(graph)});
    }
    {
        const std::string name = "wide-" + tag();
        hpim::nn::Graph graph = [&] {
            SpanScope span("nn.build");
            return buildWide(name);
        }();
        pool.push_back({name, serialize(graph)});
    }
    for (hpim::nn::ModelId model :
         {hpim::nn::ModelId::AlexNet, hpim::nn::ModelId::Dcgan,
          hpim::nn::ModelId::ResNet50, hpim::nn::ModelId::Lstm,
          hpim::nn::ModelId::Word2vec}) {
        hpim::nn::Graph graph = [&] {
            SpanScope span("nn.build");
            return hpim::nn::buildModel(model);
        }();
        pool.push_back({hpim::nn::modelName(model), serialize(graph)});
    }
    return pool;
}

RunResult
runGraphNeighbors(const RunOptions &options)
{
    RunResult result;
    std::vector<GraphDoc> pool;
    std::vector<NeighborPoint> points;
    std::vector<std::string> reference;

    hpim::harness::SweepOptions sweep_options;
    sweep_options.jobs = threadBudget();
    sweep_options.baseSeed = options.seed;
    sweep_options.simCache = true;

    auto evaluate = [&](std::size_t i,
                        hpim::rt::ExecutionReport *report = nullptr) {
        std::shared_ptr<const hpim::nn::Graph> graph =
            materialize(pool[points[i].doc].text);
        return runPoint(points[i], *graph, report);
    };

    // Set-up: build and serialize the pool, compute the cold
    // reference (cache off: every point parses its document), then
    // warm the cache with one pass. Repetitions must agree.
    Tracer tracer;
    if (options.trace) {
        tracer.setSetup(true);
        Tracer::install(&tracer);
    }
    auto setup = [&]() {
        std::vector<GraphDoc> docs = graphPool(options.seed);
        std::vector<NeighborPoint> pts =
            neighborPoints(docs.size(), options.seed);
        hpim::sim::MemoCache::setEnabled(false);
        std::vector<std::string> cold;
        for (const NeighborPoint &p : pts)
            cold.push_back(runPoint(p, parse(docs[p.doc].text)));
        if (!reference.empty() && cold != reference)
            throw BenchError("graph_neighbors cold reference is not "
                             "reproducible");
        pool = std::move(docs);
        points = std::move(pts);
        reference = std::move(cold);
        hpim::sim::MemoCache::instance().clear();
        hpim::harness::SweepRunner warm(sweep_options);
        warm.map(points.size(), [&](std::size_t i, hpim::sim::Rng &) {
            return evaluate(i);
        });
        if (!warm.stats().failures.empty())
            throw BenchError("graph_neighbors warm-up point failed: "
                             + warm.stats().failures.front().what);
    };
    const double setup_s = medianSetupSeconds(setup);
    Tracer::install(nullptr);
    tracer.setSetup(false);

    SweepMeasure measure(sweep_options, points.size(), options,
                         kBatchCopies * points.size());
    // Outside-in cache verification: warm bytes must equal the cold
    // reference byte for byte.
    auto check = [&](std::size_t i, const std::string &bytes) {
        return bytes == reference[i];
    };
    auto untraced = [&](std::size_t i) {
        PointOutcome out;
        hpim::rt::ExecutionReport report;
        out.bytes = evaluate(i, &report);
        out.opsCompleted = opsCompleted(report);
        return out;
    };

    if (!options.trace) {
        SweepTotals totals =
            measure.run(options.seconds, check, result, untraced);
        addSweepEndToEnd(result, totals, setup_s);
        return result;
    }

    SweepTotals plain =
        measure.run(options.seconds / 2, check, result, untraced);
    const hpim::sim::MemoCache::Stats memo_before =
        hpim::sim::MemoCache::instance().stats();
    Tracer::install(&tracer);
    SweepTotals traced =
        measure.run(options.seconds / 2, check, result, untraced);
    Tracer::install(nullptr);
    const hpim::sim::MemoCache::Stats memo_after =
        hpim::sim::MemoCache::instance().stats();

    const std::vector<Span> spans = tracer.spans();
    const std::vector<SpanStats> stats = aggregate(spans, false);
    const std::vector<SpanStats> setup_stats = aggregate(spans, true);
    std::vector<Metric> layer;
    layer.push_back({"rt.train_ms",
                     requirePercentile(find(stats, "rt.train").durationsMs,
                                       50, "rt.train_ms"),
                     ""});
    layer.push_back({"rt.ops_completed", double(traced.opsCompleted), ""});
    const SpanStats &parse_stats = find(setup_stats, "nn.parse");
    layer.push_back({"nn.parse_ms",
                     requirePercentile(parse_stats.durationsMs, 50,
                                       "nn.parse_ms"),
                     ""});
    layer.push_back({"nn.parse_mb_per_s",
                     double(g_parsed_bytes.load()) / 1e6
                         / (parse_stats.totalMs / 1e3),
                     ""});
    layer.push_back({"nn.parse_calls.measured",
                     double(find(stats, "nn.parse").count), ""});
    layer.push_back({"nn.serialize_ms",
                     requirePercentile(find(setup_stats, "nn.serialize")
                                           .durationsMs,
                                       50, "nn.serialize_ms"),
                     ""});
    layer.push_back({"nn.build_ms",
                     requirePercentile(find(setup_stats, "nn.build")
                                           .durationsMs,
                                       50, "nn.build_ms"),
                     ""});
    addMemoMetrics(layer, memo_after, memo_before);
    layer.push_back({"harness.report_json_ms",
                     requirePercentile(find(stats, "harness.report_json")
                                           .durationsMs,
                                       50, "harness.report_json_ms"),
                     ""});
    layer.push_back({"harness.report_bytes",
                     double(traced.reportBytes) / double(traced.points),
                     ""});
    layer.push_back({"harness.sweep_efficiency", traced.efficiency, ""});
    addSelfTimes(layer, stats, traced.wallSec * 1e3, sweep_options.jobs,
                 100.0 * (plain.throughput() / traced.throughput() - 1.0),
                 result);
    result.metrics = perLayerMetrics(layer);
    writeSpans(tracer, "graph_neighbors", options.seed);
    return result;
}

} // namespace perfbench
