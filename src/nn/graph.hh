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
#include <string>
#include <vector>

#include "nn/op_cost.hh"
#include "nn/op_type.hh"

namespace hpim::nn {

/** Stable identifier of an operation within its graph. */
using OpId = std::uint32_t;

/** Sentinel for "no op". */
constexpr OpId invalidOp = ~OpId(0);

/** One operation instance in a training step. */
struct Operation
{
    OpId id = invalidOp;
    OpType type = OpType::MatMul;
    std::string label;          ///< human-readable, e.g. "conv3_2/fprop"
    CostStructure cost;
    FixedParallelism parallelism;
    std::vector<OpId> inputs;   ///< producer op ids

    /** Work (flops) that can execute on fixed-function PIMs. */
    double
    fixedWork() const
    {
        return hasFixedPortion(type) ? cost.flops() : 0.0;
    }

    /** Work that must run on a programmable device. */
    double specialWork() const { return cost.specials; }
};

/** A training-step DAG. */
class Graph
{
  public:
    explicit Graph(std::string name) : _name(std::move(name)) {}

    /**
     * Append an operation.
     * @return its id (ids are dense, insertion ordered)
     */
    OpId add(OpType type, std::string label, CostStructure cost,
             FixedParallelism parallelism,
             std::vector<OpId> inputs = {});

    const Operation &op(OpId id) const;
    std::size_t size() const { return _ops.size(); }
    const std::vector<Operation> &ops() const { return _ops; }
    const std::string &name() const { return _name; }

    /** Consumers of each op (reverse adjacency). */
    const std::vector<std::vector<OpId>> &consumers() const
    { return _consumers; }

    /**
     * @return ids in a valid topological order.
     * Since inputs must precede their consumers at add() time, the
     * insertion order is already topological; this validates it.
     */
    std::vector<OpId> topoOrder() const;

    /** @return ops with no unfinished producers given @p done flags. */
    std::vector<OpId> readyOps(const std::vector<bool> &done) const;

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
     * concurrent first reads are safe and agree.
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

    std::string _name;
    std::vector<Operation> _ops;
    std::vector<std::vector<OpId>> _consumers;
    CachedDigest _signature;
};

} // namespace hpim::nn

#endif // HPIM_NN_GRAPH_HH
