/**
 * @file
 * The 3D die-stacked memory cube (HMC-2.0-like).
 *
 * Thirty-two vertical bank slices ("banks" in the paper's Fig. 3 sense,
 * vaults here), each with its own controller and DRAM banks, behind
 * external serial links. Exposes:
 *  - request-level simulation (enqueue / drainAll) for detailed studies,
 *  - aggregate bandwidth figures consumed by the roofline device models,
 *  - the energy model split into internal vs link components.
 */

#ifndef HPIM_MEM_HMC_STACK_HH
#define HPIM_MEM_HMC_STACK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/address_mapping.hh"
#include "mem/dram_energy.hh"
#include "mem/dram_timing.hh"
#include "mem/vault_controller.hh"
#include "sim/named.hh"

namespace hpim::mem {

/** Construction parameters for the stack. */
struct HmcConfig
{
    std::uint32_t vaults = 32;     ///< vertical slices (paper: 32)
    std::uint32_t banksPerVault = 8;
    std::uint32_t rowsPerBank = 16384;
    std::uint32_t rowBytes = 256;
    std::uint32_t links = 4;       ///< external serial links
    double linkGBps = 30.0;        ///< per-link full-duplex GB/s
    double frequencyScale = 1.0;   ///< PLL multiplier (Fig. 11/17)
    Interleave interleave = Interleave::RoBaVaCo;
    SchedulingPolicy policy = SchedulingPolicy::FRFCFS;
};

/**
 * @return peak internal bandwidth of a stack built from @p config:
 * every vault streaming one burst per tCCD at hmc2Timing() scaled by
 * config.frequencyScale, bytes/s. Closed form -- builds no vaults --
 * so the executor's roofline takes the stack bandwidth from here.
 */
double peakInternalBandwidth(const HmcConfig &config);

/** @return peak external link bandwidth of @p config, bytes/s. */
double peakExternalBandwidth(const HmcConfig &config);

/** The memory cube. */
class HmcStack : public hpim::sim::Named
{
  public:
    explicit HmcStack(const HmcConfig &config,
                      const std::string &name = "hmc");

    /** Queue one request (decomposed by the internal address map). */
    void enqueue(const MemoryRequest &req);

    /**
     * Drain all vault queues.
     * @return all requests with completion times filled in.
     */
    std::vector<MemoryRequest> drainAll();

    /** @return mem::peakInternalBandwidth(config()). */
    double peakInternalBandwidth() const;

    /** @return mem::peakExternalBandwidth(config()). */
    double peakExternalBandwidth() const;

    /** @return per-vault peak bandwidth, bytes/s. */
    double perVaultBandwidth() const;

    /** Fold all bank command counters into the energy model. */
    void harvestEnergy();

    const HmcConfig &config() const { return _config; }
    const AddressMapping &mapping() const { return _mapping; }
    const DramTiming &timing() const { return _timing; }
    DramEnergyModel &energy() { return _energy; }
    const DramEnergyModel &energy() const { return _energy; }
    VaultController &vault(std::uint32_t i);
    const VaultController &vault(std::uint32_t i) const;
    std::uint32_t vaultCount() const
    { return static_cast<std::uint32_t>(_vaults.size()); }

    /** Total capacity in bytes. */
    std::uint64_t capacity() const { return _mapping.capacity(); }

  private:
    HmcConfig _config;
    DramTiming _timing;
    AddressMapping _mapping;
    std::vector<std::unique_ptr<VaultController>> _vaults;
    DramEnergyModel _energy;
};

} // namespace hpim::mem

#endif // HPIM_MEM_HMC_STACK_HH
