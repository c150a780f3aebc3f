#include "rt/profiler.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "sim/memo_cache.hh"

namespace hpim::rt {

using hpim::nn::Graph;
using hpim::nn::Operation;
using hpim::nn::OpType;

std::vector<TypeProfile>
ProfileReport::topByTime() const
{
    auto sorted = byType;
    std::sort(sorted.begin(), sorted.end(),
              [](const TypeProfile &a, const TypeProfile &b) {
                  return a.timeSec > b.timeSec;
              });
    return sorted;
}

std::vector<TypeProfile>
ProfileReport::topByAccesses() const
{
    auto sorted = byType;
    std::sort(sorted.begin(), sorted.end(),
              [](const TypeProfile &a, const TypeProfile &b) {
                  return a.accesses > b.accesses;
              });
    return sorted;
}

namespace {

/** Per-op memo value: the two metrics a profile pass computes. */
struct OpCostSample
{
    double timeSec = 0.0;
    double mainMemoryAccesses = 0.0;
};

} // namespace

ProfileReport
Profiler::profile(const Graph &graph) const
{
    return profileImpl(graph, nullptr);
}

ProfileReport
Profiler::profileDelta(const Graph &graph, std::uint64_t cpu_key) const
{
    return profileImpl(graph, &cpu_key);
}

ProfileReport
Profiler::profileImpl(const Graph &graph,
                      const std::uint64_t *cpu_key) const
{
    auto &cache = hpim::sim::MemoCache::instance();
    bool memo = cpu_key != nullptr && hpim::sim::MemoCache::active();
    ProfileReport report;
    report.ops.reserve(graph.size());

    std::map<OpType, TypeProfile> agg;
    for (const Operation &op : graph.ops()) {
        OpProfile p;
        // id/type locate the sample in *this* graph and are filled
        // from the live op; only the position-independent metrics go
        // through the cache.
        p.id = op.id;
        p.type = op.type;
        std::uint64_t op_sig = memo ? graph.opSignature(op.id) : 0;
        std::shared_ptr<const OpCostSample> sample;
        if (memo) {
            sample = cache.findPartial<OpCostSample>(op_sig, *cpu_key,
                                                     "rt.profile.op");
        }
        if (sample != nullptr) {
            p.timeSec = sample->timeSec;
            p.mainMemoryAccesses = sample->mainMemoryAccesses;
        } else {
            p.timeSec = _cpu.opSeconds(op.cost);
            p.mainMemoryAccesses = _cpu.mainMemoryAccesses(op.cost);
            if (memo) {
                cache.putPartial<OpCostSample>(
                    op_sig, *cpu_key, "rt.profile.op",
                    std::make_shared<const OpCostSample>(OpCostSample{
                        p.timeSec, p.mainMemoryAccesses}));
            }
        }
        report.totalTimeSec += p.timeSec;
        report.totalAccesses += p.mainMemoryAccesses;

        TypeProfile &t = agg[op.type];
        t.type = op.type;
        t.timeSec += p.timeSec;
        t.accesses += p.mainMemoryAccesses;
        ++t.invocations;

        report.ops.push_back(std::move(p));
    }

    for (auto &[type, t] : agg) {
        if (report.totalTimeSec > 0.0)
            t.timePct = 100.0 * t.timeSec / report.totalTimeSec;
        if (report.totalAccesses > 0.0)
            t.accessPct = 100.0 * t.accesses / report.totalAccesses;
        report.byType.push_back(t);
    }
    return report;
}

} // namespace hpim::rt
