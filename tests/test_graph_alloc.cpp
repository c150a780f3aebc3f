/**
 * @file
 * Heap allocations per built graph. This binary replaces the global
 * operator new with a counting one that counts on the calling thread
 * only, then bounds the allocations needed to build and destroy each
 * built-in model and one Builder transformer stack. Flat graph storage
 * (nn/graph.hh) and the Builder's reused buffers keep that count to
 * arena regrowth, O(log ops), instead of a few allocations per op.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "nn/graph_builder.hh"
#include "nn/models.hh"

namespace {

thread_local bool counting = false;
thread_local std::size_t allocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    if (counting)
        ++allocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace hpim::nn;

namespace {

/** Allocations a build-and-destroy takes; far below one per op. */
constexpr std::size_t maxAllocations = 256;

/** @return heap allocations made on this thread by building the graph
 *  @p build returns and destroying it; @p ops receives its size. */
template <typename Build>
std::size_t
allocationsFor(Build build, std::size_t &ops)
{
    allocations = 0;
    counting = true;
    {
        Graph g = build();
        ops = g.size();
    }
    counting = false;
    return allocations;
}

/** Four transformer encoder blocks closed as a training step. */
Graph
transformerStack()
{
    const std::int64_t width = 256;
    Builder b("stack");
    TensorRef x = b.input(TensorShape{128, width});
    for (int layer = 0; layer < 4; ++layer) {
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

} // namespace

TEST(GraphAlloc, CounterSeesThisThreadsAllocations)
{
    std::size_t ops = 0;
    std::size_t n = allocationsFor(
        [] {
            Graph g("probe");
            g.add(OpType::MatMul, std::string(64, 'x'), {}, {});
            return g;
        },
        ops);
    EXPECT_EQ(ops, 1u);
    EXPECT_GE(n, 1u); // the counter sees this thread's allocations
}

TEST(GraphAlloc, BuiltinsBuildWithoutPerOpAllocations)
{
    for (ModelId model : allModels()) {
        std::size_t ops = 0;
        std::size_t n =
            allocationsFor([model] { return buildModel(model); }, ops);
        EXPECT_LE(n, maxAllocations)
            << modelName(model) << ": " << n << " allocations for "
            << ops << " ops";
        RecordProperty(modelName(model), static_cast<int>(n));
    }
}

TEST(GraphAlloc, TransformerStackBuildsWithoutPerOpAllocations)
{
    std::size_t ops = 0;
    std::size_t n = allocationsFor(transformerStack, ops);
    EXPECT_GT(ops, maxAllocations);
    EXPECT_LE(n, maxAllocations)
        << n << " allocations for " << ops << " ops";
    RecordProperty("allocations", static_cast<int>(n));
}
