/**
 * @file
 * Unit tests for the CNN training-graph builder -- the forward layers
 * plus the auto-generated backward pass and optimizer ops.
 */

#include <gtest/gtest.h>

#include "nn/builder.hh"
#include "ready_walk.hh"

using namespace hpim::nn;
using hpim::readywalk::readyOps;

TEST(Builder, ConvUpdatesRunningShape)
{
    CnnBuilder b("t", TensorShape{2, 32, 32, 3});
    b.conv(3, 16, 2);
    EXPECT_EQ(b.shape(), (TensorShape{2, 16, 16, 16}));
    b.maxPool(2, 2);
    EXPECT_EQ(b.shape(), (TensorShape{2, 8, 8, 16}));
}

TEST(Builder, FcFlattensAutomatically)
{
    CnnBuilder b("t", TensorShape{2, 8, 8, 4});
    b.fc(10, false);
    EXPECT_EQ(b.shape(), (TensorShape{2, 10}));
}

TEST(Builder, ForwardOnlyEmitsNoGradOps)
{
    CnnBuilder b("t", TensorShape{2, 8, 8, 4});
    b.conv(3, 8, 1);
    Graph g = b.finishForwardOnly();
    EXPECT_EQ(g.countType(OpType::Conv2D), 1u);
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropFilter), 0u);
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 0u);
}

TEST(Builder, TrainingStepHasBackwardAndOptimizer)
{
    CnnBuilder b("t", TensorShape{2, 16, 16, 3});
    b.conv(3, 8, 1).maxPool(2, 2).fc(10, false);
    Graph g = b.finish();

    EXPECT_EQ(g.countType(OpType::Conv2D), 1u);
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropFilter), 1u);
    // First conv layer: no input gradient needed.
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropInput), 0u);
    EXPECT_EQ(g.countType(OpType::MaxPoolGrad), 1u);
    EXPECT_EQ(g.countType(OpType::MatMul), 1u);
    EXPECT_EQ(g.countType(OpType::MatMulGradWeights), 1u);
    EXPECT_EQ(g.countType(OpType::Softmax), 1u);
    EXPECT_EQ(g.countType(OpType::SoftmaxGrad), 1u);
    // conv kernel + conv bias + fc kernel + fc bias.
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 4u);
}

TEST(Builder, TwoConvLayersShareOneInputGrad)
{
    CnnBuilder b("t", TensorShape{2, 16, 16, 3});
    b.conv(3, 8, 1).conv(3, 8, 1).fc(10, false);
    Graph g = b.finish();
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropFilter), 2u);
    // Only the second conv propagates into the first.
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropInput), 1u);
}

TEST(Builder, ReluEmitsReluAndGrad)
{
    CnnBuilder b("t", TensorShape{2, 8, 8, 3});
    b.conv(3, 4, 1, /*relu=*/true).fc(10, false);
    Graph g = b.finish();
    EXPECT_EQ(g.countType(OpType::Relu), 1u);
    EXPECT_EQ(g.countType(OpType::ReluGrad), 1u);
}

TEST(Builder, DropoutRoundTrips)
{
    CnnBuilder b("t", TensorShape{2, 8, 8, 3});
    b.conv(3, 4, 1).fc(16).dropout().fc(10, false);
    Graph g = b.finish();
    EXPECT_EQ(g.countType(OpType::Dropout), 1u);
    EXPECT_EQ(g.countType(OpType::DropoutGrad), 1u);
}

TEST(Builder, BatchNormContributesParams)
{
    CnnBuilder b("t", TensorShape{2, 8, 8, 3});
    b.conv(3, 4, 1).batchNorm().fc(10, false);
    Graph g = b.finish();
    EXPECT_EQ(g.countType(OpType::BatchNorm), 1u);
    EXPECT_EQ(g.countType(OpType::BatchNormGrad), 1u);
    // conv(k+b) + bn(scale/offset) + fc(k+b) = 5 Adam ops.
    EXPECT_EQ(g.countType(OpType::ApplyAdam), 5u);
}

TEST(Builder, DeconvLowersToConvBackpropInput)
{
    // TensorFlow's conv2d_transpose -> Conv2DBackpropInput, the
    // reason DCGAN's forward pass profiles that op (Table I).
    CnnBuilder b("t", TensorShape{2, 8, 8, 16});
    b.deconv(5, 8, 2);
    EXPECT_EQ(b.shape(), (TensorShape{2, 16, 16, 8}));
    Graph g = b.finishForwardOnly();
    EXPECT_EQ(g.countType(OpType::Conv2DBackpropInput), 1u);
}

TEST(Builder, ExtraLossMulsAppear)
{
    CnnBuilder b("t", TensorShape{2, 8, 8, 3});
    b.conv(3, 4, 1).fc(10, false);
    Graph g = b.finish(/*extra_loss_muls=*/12);
    EXPECT_GE(g.countType(OpType::Mul), 12u);
}

TEST(Builder, GraphIsAcyclicByConstruction)
{
    CnnBuilder b("t", TensorShape{2, 16, 16, 3});
    b.conv(3, 8, 1).maxPool(2, 2).conv(3, 16, 1).fc(10, false);
    Graph g = b.finish();
    // Every input id precedes its consumer (checked in add()), and
    // the ready walk from nothing-done yields only true sources.
    std::vector<bool> done(g.size(), false);
    auto ready = readyOps(g, done);
    ASSERT_FALSE(ready.empty());
    for (OpId id : ready)
        EXPECT_TRUE(g.inputs(id).empty());
}

TEST(Builder, EveryOpReachableFromExecution)
{
    CnnBuilder b("t", TensorShape{2, 16, 16, 3});
    b.conv(3, 8, 1).fc(10, false);
    Graph g = b.finish();
    // Simulate executing ops as they become ready; everything must
    // complete (no dangling dependences).
    std::vector<bool> done(g.size(), false);
    std::size_t completed = 0;
    while (completed < g.size()) {
        auto ready = readyOps(g, done);
        ASSERT_FALSE(ready.empty()) << "deadlocked graph";
        for (OpId id : ready) {
            done[id] = true;
            ++completed;
        }
    }
    SUCCEED();
}

// ---- Shape-inference edge cases through the delegating CnnBuilder
// (the op-by-op Builder underneath is covered in
// test_graph_builder.cpp).

TEST(Builder, OddStrideRoundsUp)
{
    CnnBuilder b("t", TensorShape{2, 13, 13, 3});
    b.conv(3, 8, 3);
    EXPECT_EQ(b.shape(), (TensorShape{2, 5, 5, 8}));
    b.maxPool(3, 3);
    EXPECT_EQ(b.shape(), (TensorShape{2, 2, 2, 8}));
}

TEST(Builder, FlattenAfterPoolFeedsFc)
{
    CnnBuilder b("t", TensorShape{2, 16, 16, 8});
    b.maxPool(2, 2).fc(10, false);
    EXPECT_EQ(b.shape(), (TensorShape{2, 10}));
    Graph g = b.finish();
    // fc flattened the pooled NHWC activation before its MatMul.
    EXPECT_EQ(g.countType(OpType::Reshape), 1u);
    EXPECT_EQ(g.countType(OpType::MaxPoolGrad), 1u);
}

TEST(Builder, DeconvUpsamplesByItsFactor)
{
    CnnBuilder b("t", TensorShape{1, 7, 7, 128});
    b.deconv(5, 64, 4);
    EXPECT_EQ(b.shape(), (TensorShape{1, 28, 28, 64}));
}

TEST(Builder, DelegatesToTheSameBuilderOpStream)
{
    // The refactor contract: CnnBuilder is a shell over nn::Builder,
    // so identical layer sequences produce identical signatures.
    CnnBuilder a("net", TensorShape{2, 16, 16, 3});
    a.conv(3, 8, 1).maxPool(2, 2).fc(10, false);
    CnnBuilder c("net", TensorShape{2, 16, 16, 3});
    c.conv(3, 8, 1).maxPool(2, 2).fc(10, false);
    EXPECT_EQ(a.finish().signature(), c.finish().signature());
}
