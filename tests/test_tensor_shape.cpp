/**
 * @file
 * Unit tests for tensor shapes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "nn/tensor_shape.hh"

using hpim::nn::TensorShape;

TEST(TensorShape, ElementAndByteCounts)
{
    TensorShape s{32, 224, 224, 3};
    EXPECT_EQ(s.rank(), 4u);
    EXPECT_EQ(s.elems(), 32LL * 224 * 224 * 3);
    EXPECT_EQ(s.bytes(), s.elems() * 4);
    EXPECT_EQ(s.dim(1), 224);
}

TEST(TensorShape, ScalarShape)
{
    TensorShape s;
    EXPECT_EQ(s.rank(), 0u);
    EXPECT_EQ(s.elems(), 1);
    EXPECT_EQ(s.bytes(), 4);
}

TEST(TensorShape, VectorConstructor)
{
    TensorShape s(std::vector<std::int64_t>{7, 9});
    EXPECT_EQ(s.elems(), 63);
}

TEST(TensorShape, Equality)
{
    EXPECT_EQ((TensorShape{2, 3}), (TensorShape{2, 3}));
    EXPECT_FALSE((TensorShape{2, 3}) == (TensorShape{3, 2}));
}

TEST(TensorShape, EqualityAcrossRanks)
{
    // A prefix or a trailing unit dim is a different shape.
    EXPECT_FALSE((TensorShape{2, 3}) == (TensorShape{2, 3, 1}));
    EXPECT_FALSE((TensorShape{2, 3, 1}) == (TensorShape{2, 3}));
    EXPECT_FALSE(TensorShape{} == (TensorShape{1}));
    EXPECT_EQ(TensorShape{}, TensorShape{});
    EXPECT_EQ(TensorShape(std::vector<std::int64_t>{4, 5}),
              (TensorShape{4, 5}));
}

TEST(TensorShape, MaxRankHoldsInline)
{
    static_assert(TensorShape::maxRank == 8);
    TensorShape s{1, 2, 3, 4, 5, 6, 7, 8};
    EXPECT_EQ(s.rank(), 8u);
    EXPECT_EQ(s.dim(7), 8);
    EXPECT_EQ(s.elems(), 40320);
    EXPECT_EQ(s.str(), "[1, 2, 3, 4, 5, 6, 7, 8]");
    TensorShape copy = s;
    EXPECT_EQ(copy, s);
}

TEST(TensorShape, StringForm)
{
    TensorShape s{32, 224, 224, 3};
    EXPECT_EQ(s.str(), "[32, 224, 224, 3]");
    EXPECT_EQ(TensorShape{}.str(), "[]");
    EXPECT_EQ((TensorShape{7}).str(), "[7]");
}

TEST(TensorShapeDeath, NonPositiveDimIsFatal)
{
    EXPECT_EXIT((TensorShape{4, 0}), testing::ExitedWithCode(1),
                "positive");
    EXPECT_EXIT((TensorShape{-1}), testing::ExitedWithCode(1),
                "positive");
}

TEST(TensorShapeDeath, RankAboveMaxIsFatal)
{
    EXPECT_EXIT((TensorShape{1, 2, 3, 4, 5, 6, 7, 8, 9}),
                testing::ExitedWithCode(1), "exceeds the maximum of 8");
    EXPECT_EXIT(TensorShape(std::vector<std::int64_t>(9, 2)),
                testing::ExitedWithCode(1), "tensor rank 9");
}

TEST(TensorShapeDeath, DimIndexOutOfRangePanics)
{
    TensorShape s{2, 2};
    EXPECT_DEATH(s.dim(2), "out of rank");
}
