/**
 * @file
 * PIM status registers (paper SectionIV-D, Fig. 7).
 *
 * One register per bank of fixed-function units. The runtime
 * scheduler polls these to decide idleness and query completion; it
 * tracks programmable-PIM occupancy itself (rt::Executor).
 *
 * Beyond the paper's BUSY/IDLE view, each bank carries a health state
 * (HEALTHY / THROTTLED / FAILED) driven by the fault-injection layer
 * (sim::FaultModel): failed banks are permanently retired from the
 * pool, throttled banks are temporarily unavailable, and the runtime
 * scheduler reads the aggregate through availableUnits(), aliveUnits()
 * and healthMask() (see docs/RESILIENCE.md).
 */

#ifndef HPIM_PIM_STATUS_REGISTERS_HH
#define HPIM_PIM_STATUS_REGISTERS_HH

#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace hpim::pim {

/** Health state of one fixed-function bank. */
enum class BankState : std::uint8_t
{
    Healthy,   ///< full capacity available
    Throttled, ///< thermally offline; recovers when the window ends
    Failed,    ///< permanently retired from the pool
};

/** @return printable bank-state name. */
const char *bankStateName(BankState state);

/** The register file exposed to the host runtime. */
class StatusRegisterFile
{
  public:
    /**
     * @param banks number of fixed-function bank groups
     * @param units_per_bank units in each bank group
     */
    StatusRegisterFile(std::uint32_t banks,
                       std::vector<std::uint32_t> units_per_bank);

    /**
     * Mark @p units busy in bank @p bank.
     * @return false if the bank is out of range (logged), unhealthy,
     *         or short of free units; state is unchanged on failure.
     */
    bool acquire(std::uint32_t bank, std::uint32_t units);

    /**
     * Release @p units in bank @p bank.
     * @return false -- with a clear log message and no state change --
     *         if the bank is out of range or fewer units are busy.
     */
    bool release(std::uint32_t bank, std::uint32_t units);

    /** @return free units in bank @p bank (0 when not Healthy). */
    std::uint32_t freeUnits(std::uint32_t bank) const;

    /** @return free units across all Healthy banks. */
    std::uint32_t totalFreeUnits() const;

    /** @return total units across all banks, ignoring health. */
    std::uint32_t totalUnits() const { return _total_units; }

    /** @return true if any unit in the bank is busy. */
    bool bankBusy(std::uint32_t bank) const;

    // ---- Health (fault-injection interface).

    /** @return health state of bank @p bank. */
    BankState bankState(std::uint32_t bank) const;

    /** Permanently retire bank @p bank (idempotent). */
    void markFailed(std::uint32_t bank);

    /** Enter/leave a thermal-throttle window. Failed banks stay
     *  failed regardless. */
    void setThrottled(std::uint32_t bank, bool throttled);

    /** @return unit capacity of bank @p bank, ignoring health. */
    std::uint32_t bankCapacity(std::uint32_t bank) const;

    /** @return capacity summed over Healthy banks (excludes busy
     *  accounting; this is what the scheduler may allocate from). */
    std::uint32_t availableUnits() const;

    /** @return capacity summed over non-Failed banks (throttled banks
     *  count: they come back). */
    std::uint32_t aliveUnits() const;

    /** @return bit b set iff bank b is Healthy (banks beyond 64 are
     *  not representable and are omitted). */
    std::uint64_t healthMask() const;

    /** @return number of permanently failed banks. */
    std::uint32_t failedBanks() const { return _failed_banks; }

    std::uint32_t banks() const
    { return static_cast<std::uint32_t>(_capacity.size()); }

  private:
    void checkBank(std::uint32_t bank) const;

    std::vector<std::uint32_t> _capacity;
    std::vector<std::uint32_t> _busy;
    std::vector<BankState> _state;
    std::uint32_t _total_units = 0;
    std::uint32_t _failed_banks = 0;
};

} // namespace hpim::pim

#endif // HPIM_PIM_STATUS_REGISTERS_HH
