#include "nn/graph.hh"

#include <algorithm>

#include "sim/hash.hh"
#include "sim/logging.hh"

namespace hpim::nn {

OpId
Graph::add(OpType type, std::string_view label, CostStructure cost,
           FixedParallelism parallelism, std::span<const OpId> inputs)
{
    OpId id = static_cast<OpId>(_ops.size());
    for (OpId in : inputs) {
        fatal_if(in >= id, "op '", label, "' depends on op ", in,
                 " which does not precede it");
    }
    fatal_if(_labels.size() + label.size() > noEdge
                 || _inputs.size() + inputs.size() >= noEdge,
             "graph '", _name, "' outgrew its 32-bit arenas");

    Operation &op = _ops.emplace_back();
    op.id = id;
    op.type = type;
    op.cost = cost;
    op.parallelism = parallelism;
    op.labelOffset = static_cast<std::uint32_t>(_labels.size());
    op.labelLength = static_cast<std::uint32_t>(label.size());
    op.inputOffset = static_cast<std::uint32_t>(_inputs.size());
    op.inputCount = static_cast<std::uint32_t>(inputs.size());
    _labels.append(label);

    for (OpId in : inputs) {
        auto edge = static_cast<std::uint32_t>(_inputs.size());
        _inputs.push_back(in);
        _edges.push_back({id, noEdge});
        Operation &producer = _ops[in];
        if (producer.lastConsumer == noEdge)
            producer.firstConsumer = edge;
        else
            _edges[producer.lastConsumer].next = edge;
        producer.lastConsumer = edge;
    }

    _signature.value.store(0, std::memory_order_relaxed);
    return id;
}

namespace {

/** Fold the op's cost fields and fixed parallelism into @p h. */
std::uint64_t
hashCost(const Operation &op, std::uint64_t h)
{
    using hpim::sim::hashDouble;
    h = hashDouble(op.cost.muls, h);
    h = hashDouble(op.cost.adds, h);
    h = hashDouble(op.cost.specials, h);
    h = hashDouble(op.cost.bytesRead, h);
    h = hashDouble(op.cost.bytesWritten, h);
    h = hpim::sim::hashU64(op.parallelism.unitsPerLane, h);
    return hashDouble(op.parallelism.lanes, h);
}

} // namespace

std::uint64_t
Graph::signature() const
{
    using hpim::sim::hashU64;
    std::uint64_t h = _signature.value.load(std::memory_order_relaxed);
    if (h != 0)
        return h;
    h = hpim::sim::hashString(_name);
    for (const Operation &op : _ops) {
        h = hashU64(static_cast<std::uint64_t>(op.type), h);
        h = hashCost(op, hpim::sim::hashString(label(op.id), h));
        for (OpId in : inputs(op.id))
            h = hashU64(in, h);
    }
    // Racing first readers store the same value, so no ordering with
    // other data is needed.
    _signature.value.store(h, std::memory_order_relaxed);
    return h;
}

std::uint64_t
Graph::opSignature(OpId id) const
{
    const Operation &o = op(id);
    return hashCost(
        o, hpim::sim::hashU64(static_cast<std::uint64_t>(o.type)));
}

CostStructure
Graph::totalCost() const
{
    CostStructure total;
    for (const Operation &op : _ops)
        total += op.cost;
    return total;
}

std::size_t
Graph::countType(OpType type) const
{
    return static_cast<std::size_t>(
        std::count_if(_ops.begin(), _ops.end(),
                      [type](const Operation &o) {
                          return o.type == type;
                      }));
}

std::size_t
Graph::criticalPathLength() const
{
    std::vector<std::size_t> depth(_ops.size(), 1);
    std::size_t longest = _ops.empty() ? 0 : 1;
    for (const Operation &op : _ops) {
        for (OpId in : inputs(op.id))
            depth[op.id] = std::max(depth[op.id], depth[in] + 1);
        longest = std::max(longest, depth[op.id]);
    }
    return longest;
}

} // namespace hpim::nn
