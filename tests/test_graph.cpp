/**
 * @file
 * Unit tests for the training-step DAG.
 */

#include <gtest/gtest.h>

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
    EXPECT_EQ(g.op(b).inputs, std::vector<OpId>{a});
}

TEST(Graph, ConsumersAreReverseEdges)
{
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::Relu, "b", unitCost(), unitPar(), {a});
    OpId c = g.add(OpType::Softmax, "c", unitCost(), unitPar(), {a, b});
    EXPECT_EQ(g.consumers()[a], (std::vector<OpId>{b, c}));
    EXPECT_EQ(g.consumers()[b], std::vector<OpId>{c});
    EXPECT_TRUE(g.consumers()[c].empty());
}

TEST(GraphDeath, ForwardReferenceIsFatal)
{
    Graph g("test");
    EXPECT_EXIT(
        g.add(OpType::MatMul, "bad", unitCost(), unitPar(), {5}),
        testing::ExitedWithCode(1), "does not precede");
}

TEST(Graph, TopoOrderIsInsertionOrder)
{
    Graph g("test");
    g.add(OpType::MatMul, "a", unitCost(), unitPar());
    g.add(OpType::Relu, "b", unitCost(), unitPar(), {0});
    auto order = g.topoOrder();
    EXPECT_EQ(order, (std::vector<OpId>{0, 1}));
}

TEST(Graph, ReadyOpsRespectsDependences)
{
    Graph g("test");
    OpId a = g.add(OpType::MatMul, "a", unitCost(), unitPar());
    OpId b = g.add(OpType::MatMul, "b", unitCost(), unitPar());
    OpId c = g.add(OpType::Add, "c", unitCost(), unitPar(), {a, b});

    std::vector<bool> done(3, false);
    auto ready = g.readyOps(done);
    EXPECT_EQ(ready, (std::vector<OpId>{a, b}));

    done[a] = true;
    ready = g.readyOps(done);
    EXPECT_EQ(ready, std::vector<OpId>{b});

    done[b] = true;
    ready = g.readyOps(done);
    EXPECT_EQ(ready, std::vector<OpId>{c});
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
