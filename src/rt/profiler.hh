/**
 * @file
 * Step-1 profiler (paper SectionIII-C, step 1).
 *
 * Executes every operation of one training step on the host CPU, one
 * by one (inter-op parallelism disabled for accuracy, SectionII-A),
 * collecting execution time and main-memory access counts -- the two
 * metrics the offload selector consumes. Also produces the per-type
 * aggregation printed in paper Table I.
 */

#ifndef HPIM_RT_PROFILER_HH
#define HPIM_RT_PROFILER_HH

#include <cstdint>
#include <vector>

#include "cpu/cpu_model.hh"
#include "nn/graph.hh"

namespace hpim::rt {

/** Profile of one operation instance: plain data, so copying a
 *  report allocates nothing per op (the label is graph.label(id)). */
struct OpProfile
{
    hpim::nn::OpId id = hpim::nn::invalidOp;
    hpim::nn::OpType type = hpim::nn::OpType::MatMul;
    double timeSec = 0.0;
    double mainMemoryAccesses = 0.0;
};

/** Per-op-type aggregation (paper Table I rows). */
struct TypeProfile
{
    hpim::nn::OpType type = hpim::nn::OpType::MatMul;
    double timeSec = 0.0;
    double timePct = 0.0;
    double accesses = 0.0;
    double accessPct = 0.0;
    std::uint32_t invocations = 0;
};

/** Complete profiling result for one step. */
struct ProfileReport
{
    std::vector<OpProfile> ops;        ///< per instance, graph order
    std::vector<TypeProfile> byType;   ///< aggregated, arbitrary order
    double totalTimeSec = 0.0;
    double totalAccesses = 0.0;

    /** Types sorted by descending time. */
    std::vector<TypeProfile> topByTime() const;
    /** Types sorted by descending main-memory accesses. */
    std::vector<TypeProfile> topByAccesses() const;
};

/** The profiler. */
class Profiler
{
  public:
    explicit Profiler(const hpim::cpu::CpuModel &cpu) : _cpu(cpu) {}

    /** Profile one training step of @p graph on the CPU. */
    ProfileReport profile(const hpim::nn::Graph &graph) const;

    /**
     * Like profile(), but reuses per-op samples through the
     * sim::MemoCache partial tier (delta-evaluation,
     * docs/PERFORMANCE.md): each op's {time, accesses} pair is keyed
     * on its position-independent Graph::opSignature() plus
     * @p cpu_key, the caller's exact digest of every CpuParams field.
     * A partial hit returns the bit-identical pair an identical
     * (cost, CPU) computation produced, so the report matches
     * profile() byte for byte; only the work is saved. While the
     * cache is inactive no op digest is computed at all.
     */
    ProfileReport profileDelta(const hpim::nn::Graph &graph,
                               std::uint64_t cpu_key) const;

  private:
    ProfileReport profileImpl(const hpim::nn::Graph &graph,
                              const std::uint64_t *cpu_key) const;

    hpim::cpu::CpuModel _cpu;
};

} // namespace hpim::rt

#endif // HPIM_RT_PROFILER_HH
