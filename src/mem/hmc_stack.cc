#include "mem/hmc_stack.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "sim/logging.hh"

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

HmcStack::HmcStack(const HmcConfig &config, const std::string &name)
    : Named(name),
      _config(config),
      _timing(hmc2Timing().scaled(config.frequencyScale)),
      _mapping(config.vaults, config.banksPerVault, config.rowsPerBank,
               config.rowBytes, config.interleave),
      _energy(DramEnergyParams::hmc())
{
    fatal_if(config.vaults == 0, "stack needs at least one vault");
    _vaults.reserve(config.vaults);
    for (std::uint32_t v = 0; v < config.vaults; ++v) {
        _vaults.push_back(std::make_unique<VaultController>(
            _timing, config.banksPerVault, config.policy));
        _vaults.back()->setName(name + " vault " + std::to_string(v));
    }
}

void
HmcStack::enqueue(const MemoryRequest &req)
{
    DramCoord coord = _mapping.decompose(req.addr);
    _vaults[coord.vault]->enqueue(req, coord);
}

std::vector<MemoryRequest>
HmcStack::drainAll()
{
    std::vector<MemoryRequest> all;
    for (auto &vault : _vaults) {
        auto done = vault->drain();
        all.insert(all.end(), done.begin(), done.end());
    }
    std::sort(all.begin(), all.end(),
              [](const MemoryRequest &a, const MemoryRequest &b) {
                  return a.completion < b.completion;
              });
    return all;
}

double
HmcStack::perVaultBandwidth() const
{
    return _timing.peakBankBandwidth();
}

double
HmcStack::peakInternalBandwidth() const
{
    return mem::peakInternalBandwidth(_config);
}

double
HmcStack::peakExternalBandwidth() const
{
    return mem::peakExternalBandwidth(_config);
}

void
HmcStack::harvestEnergy()
{
    for (auto &vault : _vaults) {
        for (std::uint32_t b = 0; b < vault->bankCount(); ++b) {
            _energy.addBankActivity(vault->bank(b).counters(),
                                    _timing.burstBytes);
        }
    }
    if (auto *registry = hpim::obs::MetricsRegistry::current()) {
        std::uint64_t activates = 0;
        std::uint64_t refreshes = 0;
        for (auto &vault : _vaults) {
            refreshes += vault->stats().refreshRounds;
            for (std::uint32_t b = 0; b < vault->bankCount(); ++b)
                activates += vault->bank(b).counters().activates;
        }
        registry->gauge("mem." + name() + ".bank_activates")
            .set(static_cast<double>(activates));
        registry->gauge("mem." + name() + ".refresh_rounds")
            .set(static_cast<double>(refreshes));
    }
}

VaultController &
HmcStack::vault(std::uint32_t i)
{
    panic_if(i >= _vaults.size(), "vault index ", i, " out of range");
    return *_vaults[i];
}

const VaultController &
HmcStack::vault(std::uint32_t i) const
{
    panic_if(i >= _vaults.size(), "vault index ", i, " out of range");
    return *_vaults[i];
}

} // namespace hpim::mem
