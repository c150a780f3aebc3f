#include "rt/hetero_runtime.hh"

#include <algorithm>
#include <memory>

#include "sim/deadline.hh"
#include "sim/hash.hh"
#include "sim/memo_cache.hh"

namespace hpim::rt {

using hpim::nn::Graph;

namespace {

/** The memoizable part of prepare(): profile + candidate selection. */
struct Prepared
{
    ProfileReport profile;
    OffloadSelection selection;
};

/**
 * Exact digest of every CpuParams field the profiler consumes -- the
 * "everything but the graph" half of the profile keys below.
 */
std::uint64_t
cpuKey(const hpim::cpu::CpuParams &cpu)
{
    using hpim::sim::hashDouble;
    using hpim::sim::hashU64;
    std::uint64_t h = hashDouble(cpu.frequencyHz);
    h = hashU64(static_cast<std::uint64_t>(cpu.cores), h);
    h = hashDouble(cpu.flopsPerSec, h);
    h = hashDouble(cpu.specialsPerSec, h);
    h = hashDouble(cpu.memBandwidth, h);
    h = hashDouble(cpu.opOverheadSec, h);
    h = hashDouble(cpu.dynamicPowerW, h);
    h = hashDouble(cpu.idlePowerW, h);
    return h;
}

// A new CpuParams field must be folded into cpuKey() above, or the
// memo tiers would serve profiles computed without it; add it to
// SimCacheTest.CpuKeyCoversEveryCpuParamsField too.
static_assert(sizeof(hpim::cpu::CpuParams) == 64,
              "CpuParams changed: revisit cpuKey()");

} // namespace

/**
 * Three memo tiers, coarse to fine, each exact-match on all of its
 * inputs (delta-evaluation, docs/PERFORMANCE.md):
 *
 *  1. "rt.prepared"   (graph, cpu, coverage) -> profile + selection
 *  2. "rt.profile"    (graph, cpu)           -> profile
 *  3. "rt.profile.op" (op signature, cpu)    -> per-op {time, accesses}
 *
 * A sweep point that changes only coverage hits tier 2 and re-derives
 * the (deterministic, cheap) selection; a point that changes the graph
 * or sweeps an orthogonal knob still reuses every op it shares with
 * any earlier point through tier 3. Every tier returns exactly what
 * an identical computation produced, so all cache modes stay
 * byte-identical.
 */
TrainingResult
HeteroRuntime::prepare(const Graph &graph) const
{
    using hpim::sim::hashDouble;
    using hpim::sim::hashU64;

    TrainingResult result;
    if (!_config.dynamicScheduling)
        return result;

    // With the cache off or suspended no key can hit, so skip the
    // graph digest and the report copies that only feed the cache.
    if (!hpim::sim::MemoCache::active()) {
        hpim::sim::checkDeadline("profile");
        Profiler profiler{hpim::cpu::CpuModel(_config.cpu)};
        result.profile = profiler.profile(graph);
        result.selection = selectOffloadCandidates(
            result.profile, _config.offloadCoveragePct);
        return result;
    }

    auto &cache = hpim::sim::MemoCache::instance();
    std::uint64_t cpu_key = cpuKey(_config.cpu);
    std::uint64_t profile_key = hashU64(cpu_key,
                                        hashU64(graph.signature()));
    std::uint64_t key = hashDouble(_config.offloadCoveragePct,
                                   profile_key);
    if (auto hit = cache.find<Prepared>(key, "rt.prepared")) {
        result.profile = hit->profile;
        result.selection = hit->selection;
        return result;
    }

    std::shared_ptr<const ProfileReport> profile =
        cache.find<ProfileReport>(profile_key, "rt.profile");
    if (profile == nullptr) {
        // Memo hits above are free; only an actual profile pass is
        // worth a deadline phase boundary (docs/SERVING.md).
        hpim::sim::checkDeadline("profile");
        Profiler profiler{hpim::cpu::CpuModel(_config.cpu)};
        profile = std::make_shared<const ProfileReport>(
            profiler.profileDelta(graph, cpu_key));
        cache.put<ProfileReport>(profile_key, "rt.profile", profile);
    }
    result.profile = *profile;
    result.selection = selectOffloadCandidates(
        result.profile, _config.offloadCoveragePct);
    auto made = std::make_shared<const Prepared>(
        Prepared{result.profile, result.selection});
    cache.put<Prepared>(key, "rt.prepared", std::move(made));
    return result;
}

TrainingResult
HeteroRuntime::train(const Graph &graph, std::uint32_t steps) const
{
    TrainingResult result = prepare(graph);
    hpim::sim::checkDeadline("execute");
    Executor executor(_config, _config.dynamicScheduling
                                   ? &result.selection
                                   : nullptr);
    result.execution =
        executor.run(graph, steps == 0 ? _config.steps : steps);
    return result;
}

std::uint32_t
HeteroRuntime::guestSteps(const Graph &primary, const Graph &guest,
                          std::uint32_t steps) const
{
    std::uint32_t n = steps == 0 ? _config.steps : steps;
    // Balance using quick one-step simulations: the primary at its
    // PIM-accelerated speed, the guest at its CPU/progr-PIM speed.
    TrainingResult primary_probe = prepare(primary);
    Executor first(_config, _config.dynamicScheduling
                                ? &primary_probe.selection
                                : nullptr);
    double primary_est = first.run(primary, 1).stepSec;

    Executor second(_config, nullptr);
    WorkloadSpec guest_probe;
    guest_probe.graph = &guest;
    guest_probe.steps = 1;
    guest_probe.pimManaged = false;
    double guest_est = second.run({guest_probe}).stepSec;

    if (guest_est <= 0.0)
        return n;
    double ratio = primary_est / guest_est;
    // Bound total simulated guest ops to keep the simulation cheap.
    double op_cap = 250000.0
                    / (static_cast<double>(guest.size())
                       * static_cast<double>(n));
    ratio = std::min(std::max(ratio, 1.0), std::max(op_cap, 1.0));
    return static_cast<std::uint32_t>(ratio * n + 0.5);
}

TrainingResult
HeteroRuntime::corun(const Graph &primary, const Graph &guest,
                     std::uint32_t steps) const
{
    TrainingResult result = prepare(primary);
    Executor executor(_config, _config.dynamicScheduling
                                   ? &result.selection
                                   : nullptr);
    std::uint32_t n = steps == 0 ? _config.steps : steps;

    WorkloadSpec primary_spec;
    primary_spec.graph = &primary;
    primary_spec.steps = n;
    primary_spec.pimManaged = true;

    WorkloadSpec guest_spec;
    guest_spec.graph = &guest;
    guest_spec.steps = guestSteps(primary, guest, steps);
    guest_spec.pimManaged = false;

    result.execution = executor.run({primary_spec, guest_spec});
    return result;
}

TrainingResult
HeteroRuntime::corunSequential(const Graph &primary, const Graph &guest,
                               std::uint32_t steps) const
{
    std::uint32_t n = steps == 0 ? _config.steps : steps;

    TrainingResult result = prepare(primary);
    Executor first(_config, _config.dynamicScheduling
                                ? &result.selection
                                : nullptr);
    ExecutionReport a = first.run(primary, n);

    // The guest runs after the primary finishes, still restricted to
    // the CPU and programmable PIM (it is not a PIM-managed model).
    Executor second(_config, nullptr);
    WorkloadSpec guest_spec;
    guest_spec.graph = &guest;
    guest_spec.steps = guestSteps(primary, guest, steps);
    guest_spec.pimManaged = false;
    ExecutionReport b = second.run({guest_spec});

    result.execution = a;
    result.execution.workloadName =
        primary.name() + "+" + guest.name() + " (sequential)";
    result.execution.makespanSec += b.makespanSec;
    result.execution.stepSec += b.stepSec;
    result.execution.opSec += b.opSec;
    result.execution.dataMovementSec += b.dataMovementSec;
    result.execution.syncSec += b.syncSec;
    result.execution.cpuBusySec += b.cpuBusySec;
    result.execution.progrBusySec += b.progrBusySec;
    result.execution.fixedUnitSeconds += b.fixedUnitSeconds;
    result.execution.hostLaunches += b.hostLaunches;
    result.execution.recursiveLaunches += b.recursiveLaunches;
    result.execution.linkBytes += b.linkBytes;
    result.execution.internalBytes += b.internalBytes;
    result.execution.totalEnergyJ += b.totalEnergyJ;
    result.execution.energyPerStepJ += b.energyPerStepJ;
    result.execution.edp =
        result.execution.energyPerStepJ * result.execution.stepSec;
    if (result.execution.makespanSec > 0.0) {
        result.execution.averagePowerW =
            result.execution.totalEnergyJ
            / result.execution.makespanSec;
        result.execution.fixedUtilization =
            result.execution.fixedUnitSeconds
            / (_config.fixed.totalUnits
               * result.execution.makespanSec);
    }
    return result;
}

} // namespace hpim::rt
