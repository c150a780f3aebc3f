/**
 * @file
 * Tests for the cross-point memo cache (sim/memo_cache.hh): exact
 * keying, the enabled/suspended switches, and the end-to-end
 * guarantee the bench goldens rely on -- cached, uncached and
 * parallel sweeps produce byte-identical reports.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/presets.hh"
#include "harness/graph_workloads.hh"
#include "harness/report_io.hh"
#include "harness/sweep.hh"
#include "nn/graph_builder.hh"
#include "nn/models.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "rt/hetero_runtime.hh"
#include "rt/profiler.hh"
#include "sim/memo_cache.hh"

using hpim::sim::MemoCache;

namespace {

/** Reset the process-wide cache around each test. */
class SimCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        MemoCache::setEnabled(true);
        MemoCache::instance().setMaxEntries(0);
        MemoCache::instance().clear();
    }

    void
    TearDown() override
    {
        MemoCache::setEnabled(true);
        MemoCache::instance().setMaxEntries(0);
        MemoCache::instance().clear();
    }
};

std::vector<std::string>
serialize(const std::vector<hpim::rt::ExecutionReport> &reports)
{
    std::vector<std::string> out;
    out.reserve(reports.size());
    for (const auto &report : reports)
        out.push_back(hpim::harness::jsonString(report));
    return out;
}

/** A small fig8-style grid: every CNN on two systems. */
std::vector<hpim::harness::ExperimentPoint>
smallGrid()
{
    std::vector<hpim::harness::ExperimentPoint> points;
    for (hpim::nn::ModelId model : hpim::nn::cnnModels()) {
        for (auto kind : {hpim::baseline::SystemKind::CpuOnly,
                          hpim::baseline::SystemKind::HeteroPim}) {
            hpim::harness::ExperimentPoint p;
            p.kind = kind;
            p.model = model;
            p.steps = 2;
            points.push_back(p);
        }
    }
    return points;
}

} // namespace

TEST_F(SimCacheTest, FindReturnsExactlyWhatPutStored)
{
    auto &cache = MemoCache::instance();
    auto value = std::make_shared<const int>(42);
    cache.put<int>(7, "test.int", value);
    auto hit = cache.find<int>(7, "test.int");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit.get(), value.get()); // the very object, not a copy
    EXPECT_EQ(*hit, 42);
}

TEST_F(SimCacheTest, DifferentKeyOrTagMisses)
{
    auto &cache = MemoCache::instance();
    cache.put<int>(7, "test.int", std::make_shared<const int>(1));
    EXPECT_EQ(cache.find<int>(8, "test.int"), nullptr);
    EXPECT_EQ(cache.find<int>(7, "test.other"), nullptr);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.insertions, 1u);
}

TEST_F(SimCacheTest, FirstWriterWins)
{
    // Racing sweep workers compute identical values for one key; the
    // first insert sticks so every later find returns one object.
    auto &cache = MemoCache::instance();
    auto first = std::make_shared<const int>(1);
    cache.put<int>(3, "test.int", first);
    cache.put<int>(3, "test.int", std::make_shared<const int>(1));
    auto hit = cache.find<int>(3, "test.int");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit.get(), first.get());
    EXPECT_EQ(cache.stats().insertions, 1u);
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST_F(SimCacheTest, DisabledCacheNeverStoresOrHits)
{
    MemoCache::setEnabled(false);
    EXPECT_FALSE(MemoCache::active());
    auto &cache = MemoCache::instance();
    cache.put<int>(5, "test.int", std::make_shared<const int>(9));
    EXPECT_EQ(cache.find<int>(5, "test.int"), nullptr);
    MemoCache::setEnabled(true);
    EXPECT_EQ(cache.find<int>(5, "test.int"), nullptr); // never stored
}

TEST_F(SimCacheTest, SuspendIsCountedAndNestable)
{
    EXPECT_TRUE(MemoCache::active());
    MemoCache::suspend();
    MemoCache::suspend();
    EXPECT_FALSE(MemoCache::active());
    MemoCache::resume();
    EXPECT_FALSE(MemoCache::active()); // one suspender still holds it
    MemoCache::resume();
    EXPECT_TRUE(MemoCache::active());
}

TEST_F(SimCacheTest, AttachedTraceSessionSuspendsReuse)
{
    auto &cache = MemoCache::instance();
    cache.put<int>(11, "test.int", std::make_shared<const int>(2));
    ASSERT_NE(cache.find<int>(11, "test.int"), nullptr);
    {
        hpim::obs::TraceSession session;
        session.attach();
        // A hit here would skip the simulation whose events the
        // session expects to record.
        EXPECT_FALSE(MemoCache::active());
        EXPECT_EQ(cache.find<int>(11, "test.int"), nullptr);
        session.detach();
    }
    EXPECT_TRUE(MemoCache::active());
    EXPECT_NE(cache.find<int>(11, "test.int"), nullptr);
}

TEST_F(SimCacheTest, AttachedMetricsRegistrySuspendsReuse)
{
    auto &cache = MemoCache::instance();
    cache.put<int>(13, "test.int", std::make_shared<const int>(3));
    {
        hpim::obs::MetricsRegistry registry;
        registry.attach();
        EXPECT_FALSE(MemoCache::active());
        EXPECT_EQ(cache.find<int>(13, "test.int"), nullptr);
        registry.detach();
    }
    EXPECT_TRUE(MemoCache::active());
}

TEST_F(SimCacheTest, CachedAndUncachedSweepsAreByteIdentical)
{
    const auto points = smallGrid();

    // Reference: cache disabled end to end (the --no-sim-cache path).
    hpim::harness::SweepOptions off;
    off.jobs = 1;
    off.simCache = false;
    const auto reference =
        serialize(hpim::harness::SweepRunner(off).run(points));

    // Cold cache, then warm cache: the second run hits on every
    // memoized sub-result and must not change a byte.
    hpim::harness::SweepOptions on;
    on.jobs = 1;
    on.simCache = true;
    MemoCache::instance().clear();
    const auto cold =
        serialize(hpim::harness::SweepRunner(on).run(points));
    const auto hit_stats_before = MemoCache::instance().stats();
    const auto warm =
        serialize(hpim::harness::SweepRunner(on).run(points));
    const auto hit_stats_after = MemoCache::instance().stats();

    EXPECT_EQ(reference, cold);
    EXPECT_EQ(reference, warm);
    // The warm run actually exercised the hit path.
    EXPECT_GT(hit_stats_after.hits, hit_stats_before.hits);
}

TEST_F(SimCacheTest, CachedSweepIsByteIdenticalAcrossJobCounts)
{
    const auto points = smallGrid();

    hpim::harness::SweepOptions serial;
    serial.jobs = 1;
    MemoCache::instance().clear();
    const auto j1 =
        serialize(hpim::harness::SweepRunner(serial).run(points));

    for (std::uint32_t jobs : {2u, 4u}) {
        hpim::harness::SweepOptions parallel;
        parallel.jobs = jobs;
        MemoCache::instance().clear();
        const auto jn = serialize(
            hpim::harness::SweepRunner(parallel).run(points));
        EXPECT_EQ(j1, jn) << "sweep diverged at --jobs " << jobs;
        // And with workers racing on a shared warm cache:
        const auto jn_warm = serialize(
            hpim::harness::SweepRunner(parallel).run(points));
        EXPECT_EQ(j1, jn_warm)
            << "warm-cache sweep diverged at --jobs " << jobs;
    }
}

TEST_F(SimCacheTest, GraphSignatureDistinguishesStructure)
{
    using hpim::nn::ModelId;
    hpim::nn::Graph a = hpim::nn::buildModel(ModelId::AlexNet);
    hpim::nn::Graph b = hpim::nn::buildModel(ModelId::AlexNet);
    hpim::nn::Graph c = hpim::nn::buildModel(ModelId::Vgg19);
    EXPECT_EQ(a.signature(), b.signature());
    EXPECT_NE(a.signature(), c.signature());
}

TEST_F(SimCacheTest, PartialTierKeysOnBothHalvesAndCountsApart)
{
    auto &cache = MemoCache::instance();
    cache.putPartial<int>(21, 31, "test.partial",
                          std::make_shared<const int>(5));
    auto hit = cache.findPartial<int>(21, 31, "test.partial");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 5);
    // Either half of the key changing is a miss.
    EXPECT_EQ(cache.findPartial<int>(22, 31, "test.partial"), nullptr);
    EXPECT_EQ(cache.findPartial<int>(21, 32, "test.partial"), nullptr);
    // A partial hit counts as partialHits, never as hits.
    const auto stats = cache.stats();
    EXPECT_EQ(stats.partialHits, 1u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 2u);
}

TEST_F(SimCacheTest, MaxEntriesEvictsOldestInsertionFirst)
{
    auto &cache = MemoCache::instance();
    cache.setMaxEntries(2);
    cache.put<int>(1, "test.int", std::make_shared<const int>(1));
    cache.put<int>(2, "test.int", std::make_shared<const int>(2));
    cache.put<int>(3, "test.int", std::make_shared<const int>(3));
    // Key 1 was inserted first, so it is the one evicted.
    EXPECT_EQ(cache.find<int>(1, "test.int"), nullptr);
    EXPECT_NE(cache.find<int>(2, "test.int"), nullptr);
    EXPECT_NE(cache.find<int>(3, "test.int"), nullptr);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.insertions, 3u);
}

TEST_F(SimCacheTest, ZeroMaxEntriesMeansUnbounded)
{
    auto &cache = MemoCache::instance();
    cache.setMaxEntries(1);
    cache.setMaxEntries(0);
    for (std::uint64_t key = 0; key < 16; ++key)
        cache.put<int>(key, "test.int",
                       std::make_shared<const int>(1));
    EXPECT_EQ(cache.stats().entries, 16u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST_F(SimCacheTest, OpSignatureIsPositionIndependent)
{
    using namespace hpim::nn;
    CostStructure cost;
    cost.muls = 1e6;
    cost.adds = 1e6;
    cost.bytesRead = 4096;
    cost.bytesWritten = 2048;
    FixedParallelism par{241, 64.0};
    CostStructure pre_cost;
    pre_cost.specials = 512;

    // The same op (same costs, same parallelism) at op 0 of one graph
    // and op 1 of another, under different labels and inputs.
    Graph a("a");
    OpId a0 = a.add(OpType::MatMul, "x/MatMul", cost, par);
    Graph b("b");
    OpId b0 = b.add(OpType::Relu, "pre/Relu", pre_cost, {});
    OpId b1 = b.add(OpType::MatMul, "y/MatMul", cost, par, {b0});

    EXPECT_EQ(a.opSignature(a0), b.opSignature(b1));
    // Position-independent != cost-independent: nudge one cost field
    // (same type, shape of work, parallelism) and the digest moves.
    CostStructure nudged = cost;
    nudged.bytesWritten += 1.0;
    OpId a1 = a.add(OpType::MatMul, "x/MatMul", nudged, par);
    EXPECT_NE(a.opSignature(a0), a.opSignature(a1));
}

TEST_F(SimCacheTest, CappedCacheSweepIsByteIdentical)
{
    // A tiny cap forces constant eviction (the "partial cache" mode):
    // some points hit, most miss, and nothing may change a byte.
    const auto points = smallGrid();

    hpim::harness::SweepOptions off;
    off.jobs = 1;
    off.simCache = false;
    const auto reference =
        serialize(hpim::harness::SweepRunner(off).run(points));

    for (std::uint32_t jobs : {1u, 2u, 4u}) {
        hpim::harness::SweepOptions capped;
        capped.jobs = jobs;
        capped.simCacheMaxEntries = 4;
        MemoCache::instance().clear();
        const auto got = serialize(
            hpim::harness::SweepRunner(capped).run(points));
        EXPECT_EQ(reference, got)
            << "capped-cache sweep diverged at --jobs " << jobs;
    }
    EXPECT_GT(MemoCache::instance().stats().evictions, 0u);
}

TEST_F(SimCacheTest, UserGraphAppendixIdenticalAcrossCacheModes)
{
    using hpim::baseline::SystemKind;

    // An in-memory user graph (the graph_sweep path without file IO).
    hpim::nn::Builder builder("cache-test");
    hpim::nn::TensorRef x =
        builder.input(hpim::nn::TensorShape({8, 32}));
    x = builder.dense(x, 32);
    x = builder.layerNorm(x);
    hpim::nn::TensorRef logits = builder.dense(x, 8, false);
    auto graph = std::make_shared<const hpim::nn::Graph>(
        builder.trainingStep(logits));
    const std::vector<hpim::harness::GraphWorkload> workloads = {
        {"inline:cache-test", graph}};
    const std::vector<SystemKind> systems = {SystemKind::CpuOnly,
                                             SystemKind::HeteroPim};

    auto appendix = [&](hpim::harness::SweepOptions options) {
        MemoCache::instance().clear();
        hpim::harness::SweepRunner runner(std::move(options));
        std::ostringstream os;
        hpim::harness::runGraphAppendix(os, runner, workloads, systems,
                                        /*steps=*/2);
        return os.str();
    };

    hpim::harness::SweepOptions off;
    off.jobs = 1;
    off.simCache = false;
    const std::string reference = appendix(off);
    ASSERT_FALSE(reference.empty());

    for (std::uint32_t jobs : {1u, 2u, 4u}) {
        hpim::harness::SweepOptions full;
        full.jobs = jobs;
        EXPECT_EQ(reference, appendix(full))
            << "full-cache appendix diverged at --jobs " << jobs;

        hpim::harness::SweepOptions capped;
        capped.jobs = jobs;
        capped.simCacheMaxEntries = 4;
        EXPECT_EQ(reference, appendix(capped))
            << "capped-cache appendix diverged at --jobs " << jobs;

        hpim::harness::SweepOptions none;
        none.jobs = jobs;
        none.simCache = false;
        EXPECT_EQ(reference, appendix(none))
            << "uncached appendix diverged at --jobs " << jobs;
    }
}

TEST_F(SimCacheTest, CpuKeyCoversEveryCpuParamsField)
{
    // Every rt memo key starts from cpuKey(). A CpuParams field it
    // left out would make a config differing only in that field hit
    // the default config's entries. Change each field alone and
    // compare the profile prepared under the shared cache with an
    // uncached profile of the same config.
    using hpim::cpu::CpuParams;
    using Edit = void (*)(CpuParams &);
    const std::pair<const char *, Edit> edits[] = {
        {"frequencyHz", [](CpuParams &c) { c.frequencyHz *= 1.5; }},
        {"cores", [](CpuParams &c) { c.cores /= 2; }},
        {"flopsPerSec", [](CpuParams &c) { c.flopsPerSec *= 1.5; }},
        {"specialsPerSec",
         [](CpuParams &c) { c.specialsPerSec *= 1.5; }},
        {"memBandwidth", [](CpuParams &c) { c.memBandwidth *= 1.5; }},
        {"opOverheadSec", [](CpuParams &c) { c.opOverheadSec *= 1.5; }},
        {"dynamicPowerW", [](CpuParams &c) { c.dynamicPowerW *= 1.5; }},
        {"idlePowerW", [](CpuParams &c) { c.idlePowerW *= 1.5; }},
    };

    const hpim::nn::Graph graph =
        hpim::nn::buildModel(hpim::nn::ModelId::AlexNet);
    const hpim::rt::SystemConfig base =
        hpim::baseline::makeConfig(hpim::baseline::SystemKind::HeteroPim);
    ASSERT_TRUE(base.dynamicScheduling);
    ASSERT_TRUE(MemoCache::active());
    auto prepared = [&graph](const hpim::rt::SystemConfig &config) {
        return hpim::rt::HeteroRuntime(config).train(graph, 1).profile;
    };

    for (const auto &[field, edit] : edits) {
        SCOPED_TRACE(field);
        hpim::rt::SystemConfig changed = base;
        edit(changed.cpu);
        prepared(base);
        const hpim::rt::ProfileReport cached = prepared(changed);
        const hpim::rt::ProfileReport truth =
            hpim::rt::Profiler{hpim::cpu::CpuModel(changed.cpu)}.profile(
                graph);
        ASSERT_EQ(cached.ops.size(), truth.ops.size());
        for (std::size_t i = 0; i < truth.ops.size(); ++i) {
            ASSERT_EQ(cached.ops[i].timeSec, truth.ops[i].timeSec)
                << "op " << i;
            ASSERT_EQ(cached.ops[i].mainMemoryAccesses,
                      truth.ops[i].mainMemoryAccesses)
                << "op " << i;
        }
        EXPECT_EQ(cached.totalTimeSec, truth.totalTimeSec);
        EXPECT_EQ(cached.totalAccesses, truth.totalAccesses);
    }
}
