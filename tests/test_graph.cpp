/**
 * @file
 * Unit tests for the training-step DAG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "nn/graph.hh"
#include "nn/graph_io.hh"
#include "nn/models.hh"

using namespace hpim::nn;

namespace {

CostStructure
unitCost()
{
    CostStructure c;
    c.muls = 100;
    c.adds = 100;
    c.bytesRead = 64;
    return c;
}

FixedParallelism
unitPar()
{
    return fixedParallelism(OpType::MatMul, 4, 10.0);
}

/**
 * Digests of the built-in graphs as recorded before signatures were
 * computed on read. Journal grid hashes and every memo key fold them,
 * so any drift here silently invalidates existing journals.
 */
struct BuiltinDigest
{
    ModelId model;
    std::uint64_t signature;
    OpId op;                   ///< one op, at size() / 2
    std::uint64_t opSignature;
};

constexpr BuiltinDigest builtinDigests[] = {
    {ModelId::Vgg19, 0x7f18426d040a65d1ULL, 92, 0x2e3b845c1a9ddedaULL},
    {ModelId::AlexNet, 0x8270658414f3dfb2ULL, 41, 0x87f8e3542288dc4bULL},
    {ModelId::Dcgan, 0x088538264b7e1ed8ULL, 79, 0x3f8105b844cc01b6ULL},
    {ModelId::ResNet50, 0xba3e7712c44c5a72ULL, 284,
     0xa42e23b642f9236aULL},
    {ModelId::InceptionV3, 0x4044bcbc4b0d94a8ULL, 257,
     0xf780fdc25b286c47ULL},
    {ModelId::Lstm, 0x84fcfee338cb9139ULL, 75, 0x41e341fbbe167fb7ULL},
    {ModelId::Word2vec, 0x25430cf8e18f6775ULL, 3, 0xb401646f122ecd88ULL},
};

/** @return the consumers of @p id, in chain order. */
std::vector<OpId>
consumersOf(const Graph &g, OpId id)
{
    std::vector<OpId> out;
    for (OpId c : g.consumers(id))
        out.push_back(c);
    return out;
}

/** @return the inputs of @p id as a vector. */
std::vector<OpId>
inputsOf(const Graph &g, OpId id)
{
    auto in = g.inputs(id);
    return {in.begin(), in.end()};
}

/** Path of a committed example graph, relative to this file. */
std::string
exampleGraph(const std::string &name)
{
    std::string here = __FILE__;
    return here.substr(0, here.rfind('/')) + "/../examples/graphs/"
           + name;
}

} // namespace

TEST(Graph, AddAssignsDenseIds)
{
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(g.size(), 2u);
    EXPECT_EQ(inputsOf(g, b), std::vector<OpId>{a});
    EXPECT_EQ(g.label(a), "a");
    EXPECT_EQ(g.label(b), "b");
}

TEST(Graph, ConsumersAreReverseEdges)
{
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    OpId c = g.add(OpType::Softmax, "c", unitCost(), unitPar(), {a, b});
    EXPECT_EQ(consumersOf(g, a), (std::vector<OpId>{b, c}));
    EXPECT_EQ(consumersOf(g, b), std::vector<OpId>{c});
    EXPECT_TRUE(consumersOf(g, c).empty());
}

TEST(Graph, RepeatedInputIsConsumedTwice)
{
    // Builder::add(x, x) lists one producer twice; the executor counts
    // both edges, so the chain must hold both.
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::Add, "b", unitCost(), unitPar(), {a, a});
    EXPECT_EQ(inputsOf(g, b), (std::vector<OpId>{a, a}));
    EXPECT_EQ(consumersOf(g, a), (std::vector<OpId>{b, b}));
}

TEST(Graph, ArenasReadBackAfterGrowth)
{
    Graph g("grow");
    OpId a = g.add(OpType::MatMul, "first", unitCost(), unitPar());
    OpId b = g.add(OpType::Relu, "second", unitCost(), unitPar(), {a});
    OpId c = g.add(OpType::Add, "third", unitCost(), unitPar(), {a, b});
    // 10,000 more ops regrow the op, label, input and edge arenas
    // many times over; every op hangs off a or b, and off c.
    for (int i = 0; i < 10000; ++i) {
        std::string label = "op_" + std::to_string(i);
        OpId id = g.add(OpType::Mul, label, unitCost(), unitPar(),
                        {OpId(i % 2), c});
        ASSERT_EQ(g.label(id), label);
    }
    EXPECT_EQ(g.size(), 10003u);
    EXPECT_EQ(g.label(a), "first");
    EXPECT_EQ(g.label(b), "second");
    EXPECT_EQ(g.label(c), "third");
    EXPECT_EQ(g.label(10002), "op_9999");
    EXPECT_EQ(inputsOf(g, c), (std::vector<OpId>{a, b}));
    EXPECT_EQ(inputsOf(g, 10002), (std::vector<OpId>{b, c}));

    std::vector<OpId> expect_a{b, c}, expect_b{c};
    for (OpId id = 3; id < g.size(); ++id)
        ((id - 3) % 2 == 0 ? expect_a : expect_b).push_back(id);
    EXPECT_EQ(consumersOf(g, a), expect_a);
    EXPECT_EQ(consumersOf(g, b), expect_b);
    std::vector<OpId> consumers_c = consumersOf(g, c);
    ASSERT_EQ(consumers_c.size(), 10000u);
    EXPECT_TRUE(std::is_sorted(consumers_c.begin(), consumers_c.end()));
    EXPECT_TRUE(consumersOf(g, 10002).empty());
}

TEST(Graph, CopiesAndMovesKeepArenas)
{
    const Graph g = buildModel(ModelId::InceptionV3);
    Graph copied = g;
    Graph source = g;
    Graph moved = std::move(source);
    for (const Graph *other : {&copied, &moved}) {
        ASSERT_EQ(other->size(), g.size());
        EXPECT_EQ(other->signature(), g.signature());
        for (OpId id = 0; id < g.size(); ++id) {
            ASSERT_EQ(other->label(id), g.label(id));
            ASSERT_EQ(inputsOf(*other, id), inputsOf(g, id));
            ASSERT_EQ(consumersOf(*other, id), consumersOf(g, id));
        }
    }
}

TEST(GraphDeath, ForwardReferenceIsFatal)
{
    Graph g("test");
    EXPECT_EXIT(
        g.add(OpType::MatMul, "bad", unitCost(), unitPar(), {5}),
        testing::ExitedWithCode(1), "does not precede");
}

TEST(Graph, TotalCostSums)
{
    Graph g("test");
    g.add(OpType::MatMul, "a", unitCost(), unitPar());
    g.add(OpType::MatMul, "b", unitCost(), unitPar());
    CostStructure total = g.totalCost();
    EXPECT_DOUBLE_EQ(total.muls, 200.0);
    EXPECT_DOUBLE_EQ(total.bytesRead, 128.0);
}

TEST(Graph, CountType)
{
    Graph g("test");
    g.add(OpType::MatMul, "a", unitCost(), unitPar());
    g.add(OpType::Relu, "b", unitCost(), unitPar());
    g.add(OpType::MatMul, "c", unitCost(), unitPar());
    EXPECT_EQ(g.countType(OpType::MatMul), 2u);
    EXPECT_EQ(g.countType(OpType::Relu), 1u);
    EXPECT_EQ(g.countType(OpType::Softmax), 0u);
}

TEST(Graph, CriticalPathOfChainEqualsLength)
{
    Graph g("chain");
    OpId prev = g.add(OpType::MatMul, "0", unitCost(), unitPar());
    for (int i = 1; i < 10; ++i)
        prev = g.add(OpType::MatMul, std::to_string(i), unitCost(),
                     unitPar(), {prev});
    EXPECT_EQ(g.criticalPathLength(), 10u);
}

TEST(Graph, CriticalPathOfParallelOpsIsOne)
{
    Graph g("wide");
    for (int i = 0; i < 5; ++i)
        g.add(OpType::MatMul, std::to_string(i), unitCost(), unitPar());
    EXPECT_EQ(g.criticalPathLength(), 1u);
}

TEST(Graph, FixedAndSpecialWorkSplit)
{
    Graph g("split");
    CostStructure c;
    c.muls = 50;
    c.specials = 7;
    OpId mm = g.add(OpType::MatMul, "mm", c,
                    fixedParallelism(OpType::MatMul, 2, 1.0));
    OpId relu = g.add(OpType::Relu, "r", c,
                      fixedParallelism(OpType::Relu, 1, 1.0));
    EXPECT_DOUBLE_EQ(g.op(mm).fixedWork(), 50.0);
    EXPECT_DOUBLE_EQ(g.op(relu).fixedWork(), 0.0);
    EXPECT_DOUBLE_EQ(g.op(relu).specialWork(), 7.0);
}

TEST(GraphDeath, BadOpIdPanics)
{
    Graph g("empty");
    EXPECT_DEATH(g.op(0), "out of range");
}

TEST(GraphDigest, BuiltinDigestsArePinned)
{
    ASSERT_EQ(std::size(builtinDigests), allModels().size());
    for (const BuiltinDigest &d : builtinDigests) {
        Graph g = buildModel(d.model);
        SCOPED_TRACE(g.name());
        EXPECT_EQ(g.signature(), d.signature);
        EXPECT_EQ(d.op, g.size() / 2);
        EXPECT_EQ(g.opSignature(d.op), d.opSignature);
    }
}

TEST(GraphDigest, ExampleGraphSignaturesArePinned)
{
    EXPECT_EQ(loadGraphFile(exampleGraph("edge_cnn_infer.json"))
                  .signature(),
              0xd8cfc1d90b6f1394ULL);
    EXPECT_EQ(loadGraphFile(exampleGraph("transformer_train.json"))
                  .signature(),
              0x242010cc7ebc3ee3ULL);
}

TEST(GraphDigest, CopiesAndMovesKeepTheDigest)
{
    Graph g = buildLstm();
    Graph copied_unread = g;
    std::uint64_t sig = g.signature();
    Graph copied_read = g;
    Graph moved = std::move(copied_read);
    Graph assigned("other");
    assigned = g;
    EXPECT_EQ(copied_unread.signature(), sig);
    EXPECT_EQ(moved.signature(), sig);
    EXPECT_EQ(assigned.signature(), sig);
}

TEST(GraphDigest, AddAfterReadChangesTheDigest)
{
    Graph read("g");
    Graph unread("g");
    for (Graph *g : {&read, &unread})
        g->add(OpType::MatMul, "a", unitCost(), unitPar());
    std::uint64_t before = read.signature();
    EXPECT_EQ(unread.signature(), before);
    read.add(OpType::Relu, "b", unitCost(), unitPar(), {0});
    EXPECT_NE(read.signature(), before);

    // The refreshed digest equals that of the same ops added without
    // an intermediate read.
    Graph fresh("g");
    fresh.add(OpType::MatMul, "a", unitCost(), unitPar());
    fresh.add(OpType::Relu, "b", unitCost(), unitPar(), {0});
    EXPECT_EQ(read.signature(), fresh.signature());
}

TEST(GraphDigest, ConcurrentFirstReadsAgree)
{
    const Graph g = buildResNet50();
    constexpr int threads = 8;
    std::vector<std::uint64_t> seen(threads, 0);
    std::atomic<bool> go{false};
    std::vector<std::thread> readers;
    for (int t = 0; t < threads; ++t) {
        readers.emplace_back([&g, &seen, &go, t] {
            while (!go.load())
                std::this_thread::yield();
            seen[t] = g.signature();
        });
    }
    go.store(true);
    for (std::thread &reader : readers)
        reader.join();
    for (std::uint64_t sig : seen)
        EXPECT_EQ(sig, 0xba3e7712c44c5a72ULL);
}
