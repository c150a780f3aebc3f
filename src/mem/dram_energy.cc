#include "mem/dram_energy.hh"

namespace hpim::mem {

DramEnergyParams
DramEnergyParams::hmc()
{
    DramEnergyParams p{};
    // In-stack array access is ~3.7 pJ/bit class; the SerDes link
    // dominates external access cost (HMC literature).
    p.readPerBytePj = 4.0;
    p.linkPerBytePj = 30.0;
    return p;
}

DramEnergyParams
DramEnergyParams::ddr4()
{
    DramEnergyParams p{};
    // DDR4 channel: array + I/O together land around 10-20 pJ/bit.
    p.readPerBytePj = 6.0;
    p.linkPerBytePj = 56.0;
    return p;
}

} // namespace hpim::mem
