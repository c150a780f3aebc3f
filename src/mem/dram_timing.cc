#include "mem/dram_timing.hh"

#include "sim/logging.hh"

namespace hpim::mem {

using hpim::sim::Tick;
using hpim::sim::ticksPerSecond;

double
DramTiming::peakBankBandwidth() const
{
    double burst_seconds =
        static_cast<double>(static_cast<Tick>(tCCD) * tCK)
        / static_cast<double>(ticksPerSecond);
    return static_cast<double>(burstBytes) / burst_seconds;
}

DramTiming
DramTiming::scaled(double factor) const
{
    fatal_if(factor <= 0.0, "timing scale factor must be positive");
    DramTiming t = *this;
    t.tCK = static_cast<Tick>(static_cast<double>(tCK) / factor + 0.5);
    fatal_if(t.tCK == 0, "timing scale factor ", factor, " too large");
    return t;
}

DramTiming
hmc2Timing()
{
    DramTiming t{};
    // 312.5 MHz -> 3200 ps cycle (paper SectionV-A, HMC 2.0 spec).
    t.tCK = 3200;
    t.tRCD = 5;
    t.tCL = 5;
    t.tRP = 5;
    t.tRAS = 12;
    t.tWR = 6;
    t.tCCD = 2;
    t.tRRD = 2;
    t.tBurst = 2;
    // 3.9 us refresh interval / 160 ns refresh cycle at 3.2 ns tCK.
    t.tREFI = 1219;
    t.tRFC = 50;
    // 64 B per burst window: two 32 B beats on the DDR vault data
    // path -> 10 GB/s per vault, 320 GB/s across 32 vaults; the
    // executor's in-stack bandwidth is mem::peakInternalBandwidth().
    t.burstBytes = 64;
    return t;
}

DramTiming
ddr4Timing()
{
    DramTiming t{};
    // DDR4-2133: 1066.67 MHz command clock -> ~938 ps cycle.
    t.tCK = 938;
    t.tRCD = 15;
    t.tCL = 15;
    t.tRP = 15;
    t.tRAS = 36;
    t.tWR = 16;
    t.tCCD = 4;
    t.tRRD = 5;
    t.tBurst = 4;
    // 7.8 us / 350 ns at 938 ps tCK.
    t.tREFI = 8315;
    t.tRFC = 373;
    t.burstBytes = 64;
    return t;
}

} // namespace hpim::mem
