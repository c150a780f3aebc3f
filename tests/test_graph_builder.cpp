/**
 * @file
 * Unit tests for the op-by-op nn::Builder (docs/GRAPHS.md): per-op
 * shape inference and its edge cases, the CnnBuilder-equivalence
 * contract (byte-identical op streams, so equal signatures), the
 * pluggable optimizer, gradient accumulation at fan-out, and the
 * death tests for invalid shapes and foreign/dangling refs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "nn/builder.hh"
#include "nn/graph_builder.hh"

using namespace hpim::nn;

namespace {

/** @return the first op labelled @p label, or invalidOp. */
OpId
findLabel(const Graph &g, const std::string &label)
{
    for (const Operation &op : g.ops())
        if (g.label(op.id) == label)
            return op.id;
    return invalidOp;
}

bool
hasLabel(const Graph &g, const std::string &label)
{
    return findLabel(g, label) != invalidOp;
}

/** @return the inputs of @p id as a vector. */
std::vector<OpId>
inputsOf(const Graph &g, OpId id)
{
    auto in = g.inputs(id);
    return {in.begin(), in.end()};
}

} // namespace

// ------------------------------------------------------ shape inference

TEST(GraphBuilder, ConvOddStrideRoundsUp)
{
    Builder b("t");
    // 13x13 at stride 3 -> ceil(13/3) = 5.
    auto x = b.conv2d(b.input(TensorShape{2, 13, 13, 3}), 3, 8, 3);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 5, 5, 8}));
}

TEST(GraphBuilder, NonSquarePoolingInfersPerAxis)
{
    Builder b("t");
    // LSTM/W2V-style wide activations pool asymmetrically.
    auto x = b.maxPool(b.input(TensorShape{2, 24, 36, 4}),
                       /*kh=*/3, /*kw=*/2, /*sh=*/3, /*sw=*/2);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 8, 18, 4}));
    Builder b2("t");
    auto y = b2.avgPool(b2.input(TensorShape{2, 24, 36, 4}), 2, 6, 2, 6);
    EXPECT_EQ(b2.shape(y), (TensorShape{2, 12, 6, 4}));
}

TEST(GraphBuilder, FlattenAfterPoolCollapsesSpatialDims)
{
    Builder b("t");
    auto x = b.input(TensorShape{4, 16, 16, 8});
    x = b.maxPool(x, 2, 2);
    x = b.flatten(x);
    EXPECT_EQ(b.shape(x), (TensorShape{4, 8 * 8 * 8}));
}

TEST(GraphBuilder, DeconvUpsamples)
{
    Builder b("t");
    auto x = b.deconv2d(b.input(TensorShape{2, 7, 7, 64}), 5, 32, 2);
    EXPECT_EQ(b.shape(x), (TensorShape{2, 14, 14, 32}));
}

TEST(GraphBuilder, MatmulAndTransposeShapes)
{
    Builder b("t");
    auto a = b.input(TensorShape{8, 32});
    auto t = b.transpose(a);
    EXPECT_EQ(b.shape(t), (TensorShape{32, 8}));
    auto s = b.matmul(a, t);
    EXPECT_EQ(b.shape(s), (TensorShape{8, 8}));
    auto m = b.matmul(b.softmax(s), a);
    EXPECT_EQ(b.shape(m), (TensorShape{8, 32}));
}

// ------------------------------------------- CnnBuilder equivalence

TEST(GraphBuilder, MatchesCnnBuilderOpStream)
{
    CnnBuilder legacy("net", TensorShape{2, 16, 16, 3});
    legacy.conv(3, 8, 1).maxPool(2, 2).fc(10, false);
    Graph expected = legacy.finish();

    Builder b("net");
    auto x = b.input(TensorShape{2, 16, 16, 3});
    x = b.conv2d(x, 3, 8, 1);
    x = b.maxPool(x, 2, 2);
    x = b.flatten(x);
    x = b.dense(x, 10, false);
    Graph got = b.trainingStep(x, Optimizer::Adam);

    ASSERT_EQ(got.size(), expected.size());
    EXPECT_EQ(got.signature(), expected.signature());
}

TEST(GraphBuilder, ForwardOnlyMatchesCnnBuilder)
{
    CnnBuilder legacy("net", TensorShape{1, 28, 28, 1});
    legacy.conv(5, 6, 1).avgPool(2, 2).fc(10, false);
    Graph expected = legacy.finishForwardOnly();

    Builder b("net");
    auto x = b.input(TensorShape{1, 28, 28, 1});
    x = b.conv2d(x, 5, 6, 1);
    x = b.avgPool(x, 2, 2);
    x = b.flatten(x);
    x = b.dense(x, 10, false);
    Graph got = b.finishForward();

    EXPECT_EQ(got.signature(), expected.signature());
    EXPECT_EQ(got.countType(OpType::ApplyAdam), 0u);
    EXPECT_EQ(got.countType(OpType::SoftmaxGrad), 0u);
}

// ------------------------------------------------- training-step mode

TEST(GraphBuilder, SgdOptimizerSwapsApplyOps)
{
    Builder b("t");
    auto x = b.dense(b.input(TensorShape{4, 32}), 10, false);
    Graph g = b.trainingStep(x, Optimizer::Sgd);
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 0u);
    // dense kernel + bias.
    EXPECT_EQ(g.countType(OpType::ApplySgd), 2u);
}

TEST(GraphBuilder, ResidualFanOutAccumulatesGradients)
{
    Builder b("t");
    auto in = b.input(TensorShape{4, 32});
    auto h = b.dense(in, 32, false);  // consumed twice below
    auto m = b.dense(h, 32, false);
    auto r = b.add(m, h);
    auto logits = b.dense(r, 10, false);
    Graph g = b.trainingStep(logits, Optimizer::Adam);

    // h's two gradient contributions (through m and through the
    // residual Add) merge in one accumulation op.
    EXPECT_TRUE(hasLabel(g, "fc1/AddGrad_0"));
    // Both matmul operand gradients exist for the interior layers.
    EXPECT_GE(g.countType(OpType::MatMulGradInputs), 2u);
}

TEST(GraphBuilder, FanOutAccumulatesInPushOrder)
{
    Builder b("t");
    auto h = b.dense(b.input(TensorShape{4, 32}), 32, false); // fc1
    auto m = b.dense(h, 32, false);                            // fc2
    auto s = b.add(m, h);                                      // add_1
    auto t = b.tanh(h);                                        // tanh_2
    auto r = b.add(s, t);                                      // add_3
    auto w = b.input(TensorShape{32, 32});
    auto p = b.matmul(r, w);                                   // matmul_4
    Graph g = b.trainingStep(b.dense(p, 10, false), Optimizer::Sgd);

    // h's three contributions, in the order the backward walk pushed
    // them (tanh_2, add_1, fc2), fold into two accumulation ops.
    OpId acc0 = findLabel(g, "fc1/AddGrad_0");
    OpId acc1 = findLabel(g, "fc1/AddGrad_1");
    ASSERT_NE(acc0, invalidOp);
    ASSERT_NE(acc1, invalidOp);
    EXPECT_FALSE(hasLabel(g, "fc1/AddGrad_2"));
    EXPECT_EQ(inputsOf(g, acc0),
              (std::vector<OpId>{findLabel(g, "tanh_2/TanhGrad"),
                                 findLabel(g, "matmul_4/MatMul_grad_a")}));
    EXPECT_EQ(inputsOf(g, acc1),
              (std::vector<OpId>{acc0,
                                 findLabel(g, "fc2/MatMul_grad_x")}));
    // A matmul against a graph input: dA waits on the gradient only.
    EXPECT_EQ(inputsOf(g, findLabel(g, "matmul_4/MatMul_grad_a")),
              std::vector<OpId>{findLabel(g, "fc3/MatMul_grad_x")});
    EXPECT_FALSE(hasLabel(g, "matmul_4/MatMul_grad_b"));
    // Optimizer labels compose (record label, suffix, apply op).
    EXPECT_TRUE(hasLabel(g, "fc1/kernel/ApplySgd"));
    EXPECT_TRUE(hasLabel(g, "fc3/bias/ApplySgd"));
}

TEST(GraphBuilder, MidBuildGraphReadsBackAfterGrowth)
{
    Builder b("t");
    auto x = b.conv2d(b.input(TensorShape{2, 8, 8, 3}), 3, 4, 1);
    const Graph &g = b.graph();
    ASSERT_EQ(g.size(), 3u);
    EXPECT_EQ(g.label(0), "conv1/Conv2D");
    EXPECT_EQ(g.label(2), "conv1/Relu");
    // 10,000 raw ops regrow every arena of the graph being built.
    OpId prev = b.producer(x);
    for (int i = 0; i < 10000; ++i)
        prev = b.rawOp(OpType::Relu, "chain/Relu", {}, {}, {prev});
    EXPECT_EQ(g.size(), 10003u);
    EXPECT_EQ(g.label(1), "conv1/BiasAdd");
    EXPECT_EQ(inputsOf(g, 1), std::vector<OpId>{0});
    EXPECT_EQ(*g.consumers(2).begin(), 3u);
    Graph done = b.finishForward();
    EXPECT_EQ(done.label(2), "conv1/Relu");
    EXPECT_EQ(done.label(10002), "chain/Relu");
    EXPECT_EQ(inputsOf(done, 10002), std::vector<OpId>{10001});
    auto last = done.consumers(10002);
    EXPECT_TRUE(last.begin() == last.end());
}

TEST(GraphBuilder, MatmulBackpropsBothOperands)
{
    Builder b("t");
    auto a = b.input(TensorShape{8, 16});
    auto q = b.dense(a, 16, false);
    auto k = b.dense(a, 16, false);
    auto s = b.matmul(q, b.transpose(k));
    auto logits = b.dense(b.matmul(b.softmax(s), q), 10, false);
    Graph g = b.trainingStep(logits, Optimizer::Adam);

    EXPECT_TRUE(hasLabel(g, "matmul_2/MatMul_grad_a"));
    EXPECT_TRUE(hasLabel(g, "matmul_2/MatMul_grad_b"));
    EXPECT_EQ(g.countType(OpType::SoftmaxGrad), 2u); // attn + loss
}

TEST(GraphBuilder, LayerNormEmitsGradAndOptimizer)
{
    Builder b("t");
    auto x = b.layerNorm(b.dense(b.input(TensorShape{4, 32}), 32,
                                 false));
    Graph g = b.trainingStep(b.dense(x, 10, false), Optimizer::Adam);
    EXPECT_TRUE(hasLabel(g, "ln_1/LayerNorm"));
    EXPECT_TRUE(hasLabel(g, "ln_1/LayerNormGrad"));
    // dense x2 (kernel+bias each) + layer-norm scale/offset.
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 5u);
}

// ------------------------------------------------------- death tests

TEST(GraphBuilderDeath, DanglingRefIsFatal)
{
    Builder b("t");
    TensorRef dangling;
    EXPECT_DEATH(b.relu(dangling), "invalid");
}

TEST(GraphBuilderDeath, ForeignRefIsFatal)
{
    Builder b1("a"), b2("b");
    auto x = b1.input(TensorShape{2, 8});
    EXPECT_DEATH(b2.relu(x), "different Builder");
}

TEST(GraphBuilderDeath, DenseOnRank4IsFatal)
{
    Builder b("t");
    auto x = b.input(TensorShape{2, 8, 8, 3});
    EXPECT_DEATH(b.dense(x, 10), "rank-2");
}

TEST(GraphBuilderDeath, MatmulDimMismatchIsFatal)
{
    Builder b("t");
    auto a = b.input(TensorShape{4, 8});
    auto c = b.input(TensorShape{4, 8}); // inner dims 8 vs 4 clash
    EXPECT_DEATH(b.matmul(a, c), "matmul");
}

TEST(GraphBuilderDeath, AddShapeMismatchIsFatal)
{
    Builder b("t");
    auto a = b.input(TensorShape{4, 8});
    auto c = b.input(TensorShape{4, 9});
    EXPECT_DEATH(b.add(a, c), "same-shaped");
}

TEST(GraphBuilderDeath, ConvOnFlatTensorIsFatal)
{
    Builder b("t");
    auto x = b.input(TensorShape{4, 64});
    EXPECT_DEATH(b.conv2d(x, 3, 8, 1), "NHWC");
}

TEST(GraphBuilderDeath, TrainingStepOnRawInputIsFatal)
{
    Builder b("t");
    auto x = b.input(TensorShape{4, 10});
    b.relu(x); // tape is non-empty; the input check itself must fire
    EXPECT_DEATH(b.trainingStep(x), "graph input");
}

TEST(GraphBuilderDeath, UseAfterFinishIsFatal)
{
    Builder b("t");
    auto x = b.dense(b.input(TensorShape{4, 16}), 10, false);
    Graph g = b.trainingStep(x);
    EXPECT_DEATH(b.input(TensorShape{2, 2}), "finished");
}

TEST(GraphBuilderDeath, EmptyModelIsFatal)
{
    Builder b("t");
    auto x = b.input(TensorShape{4, 10});
    EXPECT_DEATH(b.trainingStep(x), "empty model");
}
