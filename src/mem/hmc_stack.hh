/**
 * @file
 * The 3D die-stacked memory cube (HMC-2.0-like), in closed form.
 *
 * Thirty-two vertical bank slices ("banks" in the paper's Fig. 3 sense,
 * vaults here) behind external serial links. The roofline device
 * models need only the stack's two peak bandwidths: every vault
 * streaming one burst per tCCD internally, and the links externally.
 */

#ifndef HPIM_MEM_HMC_STACK_HH
#define HPIM_MEM_HMC_STACK_HH

#include <cstdint>

#include "mem/dram_timing.hh"

namespace hpim::mem {

/** Stack geometry the peak bandwidths depend on. */
struct HmcConfig
{
    std::uint32_t vaults = 32;     ///< vertical slices (paper: 32)
    std::uint32_t links = 4;       ///< external serial links
    double linkGBps = 30.0;        ///< per-link full-duplex GB/s
    double frequencyScale = 1.0;   ///< PLL multiplier (Fig. 11/17)
};

/**
 * @return peak internal bandwidth of a stack built from @p config:
 * every vault streaming one burst per tCCD at hmc2Timing() scaled by
 * config.frequencyScale, bytes/s. The executor's roofline takes the
 * stack bandwidth from here.
 */
double peakInternalBandwidth(const HmcConfig &config);

/** @return peak external link bandwidth of @p config, bytes/s. */
double peakExternalBandwidth(const HmcConfig &config);

} // namespace hpim::mem

#endif // HPIM_MEM_HMC_STACK_HH
