/**
 * @file
 * Whole-system configuration for one simulated machine.
 *
 * Describes which compute resources exist (host CPU, fixed-function
 * PIM pool, programmable PIM), the runtime feature flags (dynamic
 * scheduling, recursive kernels RC, operation pipeline OP), and the
 * memory-system bandwidth/energy environment. The five evaluated
 * configurations of paper SectionVI are presets over this struct
 * (see hpim::baseline::presets).
 */

#ifndef HPIM_RT_SYSTEM_CONFIG_HH
#define HPIM_RT_SYSTEM_CONFIG_HH

#include <cstdint>
#include <string>

#include "cpu/cpu_model.hh"
#include "mem/dram_energy.hh"
#include "pim/fixed_pim.hh"
#include "pim/progr_pim.hh"
#include "sim/fault_model.hh"

namespace hpim::rt {

/** Complete system description. */
struct SystemConfig
{
    std::string name = "unnamed";

    // ---- Compute resources.
    hpim::cpu::CpuParams cpu;
    bool hasFixedPim = false;
    hpim::pim::FixedPimParams fixed;
    bool hasProgrPim = false;
    hpim::pim::ProgrPimParams progr;
    /** Number of independent programmable PIMs (Progr-PIM-only
     *  configuration instantiates "as many as needed"; area-limited). */
    std::uint32_t progrPimCount = 1;

    // ---- Runtime features (paper SectionIII-C / VI-E).
    bool dynamicScheduling = false; ///< profiling-driven scheduling
    bool recursiveKernels = false;  ///< RC
    bool operationPipeline = false; ///< OP
    /** Training steps allowed in flight when OP is enabled. */
    std::uint32_t pipelineDepth = 2;
    /** Offload candidates must cover this % of step time (x = 90). */
    double offloadCoveragePct = 90.0;
    /**
     * Without RC, a complex op's extracted mul/add regions are fed to
     * the pool by the *host*, one region batch at a time; this caps
     * how many pool units such an op can keep busy (the root of the
     * poor no-RC utilization in paper Fig. 15). At least one whole
     * reduction tree is always granted.
     */
    std::uint32_t hostDrivenMaxUnits = 96;
    /** Host kernel-launches charged per host-driven complex op. */
    std::uint32_t hostDrivenLaunches = 48;
    /**
     * Principle 2 guard: an offload candidate falls back to the CPU
     * while its PIM is busy only when its CPU execution time is below
     * this bound -- moving a multi-second convolution to a 30x slower
     * device would defeat the schedule.
     */
    double cpuFallbackThresholdSec = 2e-3;

    // ---- Energy environment.
    /**
     * Fraction of the makespan the host is charged as busy even when
     * no kernel runs on it (runtime coordination / polling). Hetero
     * PIM keeps this low because the programmable PIM drives
     * synchronization (paper SectionIII-B "Memory model").
     */
    double hostCoordinationFloor = 0.0;

    // ---- Memory system. The in-stack bandwidth PIMs draw on is
    // mem::peakInternalBandwidth(mem::HmcConfig{}); the host's link
    // bandwidth is cpu.memBandwidth (set by the presets).
    /** Fraction of the in-stack bandwidth PIM compute may consume. */
    double pimBandwidthShare = 0.85;
    /**
     * Flops the fixed-function units extract per DRAM byte thanks to
     * in-bank operand buffering (paper SectionIV-D "buffering
     * mechanisms"). Caps pool throughput at
     * in-stack bandwidth x share x reuse -- the reason frequency
     * scaling saturates (Fig. 11) while the DRAM arrays stay at their
     * native speed.
     */
    double fixedOperandReuse = 45.0;
    hpim::mem::DramEnergyParams dramEnergy =
        hpim::mem::DramEnergyParams::hmc();
    /** Stack background power (refresh, SerDes idle), watts. */
    double stackBackgroundW = 1.8;

    // ---- Simulation control.
    /** Training steps simulated back to back. */
    std::uint32_t steps = 4;

    // ---- Resilience.
    /** Fault injection (transient faults, kernel stalls, bank kills,
     *  thermal throttling); disabled by default and strictly zero-cost
     *  when off -- see docs/RESILIENCE.md. */
    hpim::sim::FaultConfig faults;

    /** Scale PIM clocks (paper Fig. 11/17). Returns a copy. */
    SystemConfig
    withFrequencyScale(double factor) const
    {
        SystemConfig c = *this;
        c.fixed.frequencyScale = factor;
        c.progr.frequencyScale = factor;
        return c;
    }
};

} // namespace hpim::rt

#endif // HPIM_RT_SYSTEM_CONFIG_HH
