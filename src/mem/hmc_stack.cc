#include "mem/hmc_stack.hh"

namespace hpim::mem {

double
peakInternalBandwidth(const HmcConfig &config)
{
    return hmc2Timing().scaled(config.frequencyScale).peakBankBandwidth()
           * static_cast<double>(config.vaults);
}

double
peakExternalBandwidth(const HmcConfig &config)
{
    return config.linkGBps * 1e9 * static_cast<double>(config.links);
}

} // namespace hpim::mem
