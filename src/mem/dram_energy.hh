/**
 * @file
 * DRAM access energy parameters.
 *
 * Distinguishes energy for accesses served *inside* the stack (PIM) from
 * accesses crossing the off-stack link (host), which is the root of the
 * PIM energy advantage the paper exploits. Per-byte figures are in
 * picojoules and follow public HMC/DDR literature.
 */

#ifndef HPIM_MEM_DRAM_ENERGY_HH
#define HPIM_MEM_DRAM_ENERGY_HH

namespace hpim::mem {

/** Energy parameters for one memory technology instance. */
struct DramEnergyParams
{
    double readPerBytePj;  ///< array read, pJ/byte
    double linkPerBytePj;  ///< off-stack SerDes/IO, pJ/byte

    /** HMC-like stack: cheap internal access, expensive link. */
    static DramEnergyParams hmc();
    /** DDR4 DIMM: everything crosses the channel I/O. */
    static DramEnergyParams ddr4();
};

} // namespace hpim::mem

#endif // HPIM_MEM_DRAM_ENERGY_HH
