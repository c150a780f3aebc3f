/**
 * @file
 * The training-step operation graph (DAG).
 *
 * One Graph describes a single training step: every operation instance
 * with its cost structure, fixed-function parallelism and dependences.
 * The runtime replays the same graph for every step (paper SectionIII-C:
 * "all steps almost have the same classes of operations").
 */

#ifndef HPIM_NN_GRAPH_HH
#define HPIM_NN_GRAPH_HH

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "nn/op_cost.hh"
#include "nn/op_type.hh"
#include "sim/logging.hh"

namespace hpim::nn {

/** Stable identifier of an operation within its graph. */
using OpId = std::uint32_t;

/** Sentinel for "no op". */
constexpr OpId invalidOp = ~OpId(0);

/** Sentinel for "no edge" in a consumer chain. */
constexpr std::uint32_t noEdge = ~std::uint32_t(0);

/**
 * One operation instance in a training step. A plain record: its
 * label and inputs live in the owning Graph's arenas and are read
 * through Graph::label() and Graph::inputs().
 */
struct Operation
{
    OpId id = invalidOp;
    OpType type = OpType::MatMul;
    CostStructure cost;
    FixedParallelism parallelism;
    std::uint32_t labelOffset = 0; ///< into the graph's label arena
    std::uint32_t labelLength = 0;
    std::uint32_t inputOffset = 0; ///< first edge in the input arena
    std::uint32_t inputCount = 0;
    std::uint32_t firstConsumer = noEdge; ///< head of the consumer chain
    std::uint32_t lastConsumer = noEdge;  ///< its tail (O(1) append)

    /** Work (flops) that can execute on fixed-function PIMs. */
    double
    fixedWork() const
    {
        return hasFixedPortion(type) ? cost.flops() : 0.0;
    }

    /** Work that must run on a programmable device. */
    double specialWork() const { return cost.specials; }
};

/**
 * A training-step DAG, stored flat: one Operation record per op, all
 * labels in one character arena, and all inputs in one edge arena in
 * consumer order (CSR). Edge e carries _inputs[e] -> _edges[e].consumer;
 * _edges[e].next links the edges out of the same producer, so each
 * op's consumers form a chain in increasing consumer id and add()
 * stays O(inputs) with no per-op allocation.
 *
 * Views returned by label(), inputs() and op() point into these
 * arenas: a later add() invalidates them.
 */
class Graph
{
  public:
    explicit Graph(std::string name) : _name(std::move(name)) {}

    /**
     * Append an operation; @p label and @p inputs are copied.
     * @return its id (ids are dense, insertion ordered)
     */
    OpId add(OpType type, std::string_view label, CostStructure cost,
             FixedParallelism parallelism,
             std::span<const OpId> inputs = {});

    OpId
    add(OpType type, std::string_view label, CostStructure cost,
        FixedParallelism parallelism, std::initializer_list<OpId> inputs)
    {
        return add(type, label, cost, parallelism,
                   std::span<const OpId>(inputs.begin(), inputs.size()));
    }

    const Operation &
    op(OpId id) const
    {
        panic_if(id >= _ops.size(), "op id ", id, " out of range");
        return _ops[id];
    }

    std::size_t size() const { return _ops.size(); }
    const std::vector<Operation> &ops() const { return _ops; }
    const std::string &name() const { return _name; }

    /** Human-readable label of @p id, e.g. "conv3_2/Conv2D". */
    std::string_view
    label(OpId id) const
    {
        const Operation &o = op(id);
        return {_labels.data() + o.labelOffset, o.labelLength};
    }

    /** Producer op ids of @p id, in the order they were added. */
    std::span<const OpId>
    inputs(OpId id) const
    {
        const Operation &o = op(id);
        return {_inputs.data() + o.inputOffset, o.inputCount};
    }

    /** The consumers of one op in increasing id, walked along its
     *  consumer chain; an op consuming another twice appears twice. */
    struct Consumers
    {
        struct iterator
        {
            const Graph *graph;
            std::uint32_t edge;

            OpId operator*() const { return graph->_edges[edge].consumer; }
            iterator &
            operator++()
            {
                edge = graph->_edges[edge].next;
                return *this;
            }
            bool operator==(const iterator &) const = default;
        };

        const Graph *graph;
        std::uint32_t head;

        iterator begin() const { return {graph, head}; }
        iterator end() const { return {graph, noEdge}; }
    };

    /** @return the consumers of @p id (reverse adjacency). */
    Consumers consumers(OpId id) const
    { return {this, op(id).firstConsumer}; }

    /** Sum of all op costs. */
    CostStructure totalCost() const;

    /** Number of ops of the given type. */
    std::size_t countType(OpType type) const;

    /** Longest path length (in ops) -- a depth/parallelism measure. */
    std::size_t criticalPathLength() const;

    /**
     * Deterministic structural digest over the name and every op
     * (type, label, cost, parallelism, inputs), in op order. Two
     * graphs with equal signatures went through the same
     * construction; sim::MemoCache and journal grid hashes key on it.
     * Computed on first call and cached until the next add();
     * concurrent first reads are safe and agree. It is the only
     * state a const Graph mutates, so graphs may be shared across
     * threads.
     */
    std::uint64_t signature() const;

    /**
     * Position-independent digest of one op: type, cost structure
     * (bit patterns) and fixed parallelism -- *not* the label, id or
     * inputs. Two ops with equal opSignature() cost exactly the same
     * on any device model, wherever they sit in whichever graph, so
     * per-op profile results memoize on it (docs/PERFORMANCE.md).
     * Computed per call, so only a memoizing reader pays for it.
     */
    std::uint64_t opSignature(OpId id) const;

  private:
    /** The lazily computed signature (0: not yet computed); copies
     *  and moves carry a computed value over. */
    struct CachedDigest
    {
        mutable std::atomic<std::uint64_t> value{0};
        CachedDigest() = default;
        CachedDigest(const CachedDigest &o) : value(o.value.load()) {}
        CachedDigest &operator=(const CachedDigest &o)
        { value = o.value.load(); return *this; }
    };

    /** Consumer side of edge e (parallel to _inputs). */
    struct ConsumerEdge
    {
        OpId consumer;
        std::uint32_t next; ///< next edge from the same producer
    };

    std::string _name;
    std::vector<Operation> _ops;
    std::string _labels;              ///< every label, back to back
    std::vector<OpId> _inputs;        ///< every op's inputs, CSR
    std::vector<ConsumerEdge> _edges; ///< parallel to _inputs
    CachedDigest _signature;
};

} // namespace hpim::nn

#endif // HPIM_NN_GRAPH_HH
