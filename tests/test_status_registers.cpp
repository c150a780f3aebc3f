/**
 * @file
 * Unit tests for the PIM status register file (paper Fig. 7).
 */

#include <gtest/gtest.h>

#include "pim/status_registers.hh"

using hpim::pim::BankState;
using hpim::pim::StatusRegisterFile;

namespace {

StatusRegisterFile
fourBanks()
{
    return StatusRegisterFile(4, {10, 10, 10, 10});
}

} // namespace

TEST(StatusRegisters, InitialStateAllFree)
{
    auto regs = fourBanks();
    EXPECT_EQ(regs.totalUnits(), 40u);
    EXPECT_EQ(regs.totalFreeUnits(), 40u);
    EXPECT_FALSE(regs.bankBusy(0));
}

TEST(StatusRegisters, AcquireReservesUnits)
{
    auto regs = fourBanks();
    EXPECT_TRUE(regs.acquire(1, 6));
    EXPECT_EQ(regs.freeUnits(1), 4u);
    EXPECT_TRUE(regs.bankBusy(1));
    EXPECT_EQ(regs.totalFreeUnits(), 34u);
}

TEST(StatusRegisters, AcquireFailsWhenShort)
{
    auto regs = fourBanks();
    EXPECT_TRUE(regs.acquire(0, 10));
    EXPECT_FALSE(regs.acquire(0, 1));
    // Failed acquire leaves state unchanged.
    EXPECT_EQ(regs.freeUnits(0), 0u);
    EXPECT_EQ(regs.totalFreeUnits(), 30u);
}

TEST(StatusRegisters, ReleaseReturnsUnits)
{
    auto regs = fourBanks();
    regs.acquire(2, 7);
    regs.release(2, 3);
    EXPECT_EQ(regs.freeUnits(2), 6u);
    regs.release(2, 4);
    EXPECT_FALSE(regs.bankBusy(2));
}

TEST(StatusRegisters, UnevenBankCapacities)
{
    // Edge-biased placement gives banks unequal unit counts.
    StatusRegisterFile regs(3, {20, 5, 15});
    EXPECT_EQ(regs.totalUnits(), 40u);
    EXPECT_TRUE(regs.acquire(0, 20));
    EXPECT_FALSE(regs.acquire(1, 6));
    EXPECT_TRUE(regs.acquire(1, 5));
}

TEST(StatusRegisters, OverReleaseIsCheckedError)
{
    auto regs = fourBanks();
    regs.acquire(0, 2);
    // Releasing more than is busy is rejected with a log message and
    // leaves the register state untouched.
    EXPECT_FALSE(regs.release(0, 3));
    EXPECT_EQ(regs.freeUnits(0), 8u);
    EXPECT_TRUE(regs.release(0, 2));
    EXPECT_FALSE(regs.bankBusy(0));
}

TEST(StatusRegisters, OutOfRangeAcquireReleaseAreCheckedErrors)
{
    auto regs = fourBanks();
    EXPECT_FALSE(regs.acquire(4, 1));
    EXPECT_FALSE(regs.release(99, 1));
    EXPECT_EQ(regs.totalFreeUnits(), 40u);
}

TEST(StatusRegisters, FailedBankRetiresPermanently)
{
    auto regs = fourBanks();
    regs.markFailed(2);
    EXPECT_EQ(regs.bankState(2), BankState::Failed);
    EXPECT_EQ(regs.failedBanks(), 1u);
    EXPECT_EQ(regs.freeUnits(2), 0u);
    EXPECT_FALSE(regs.acquire(2, 1));
    EXPECT_EQ(regs.availableUnits(), 30u);
    EXPECT_EQ(regs.aliveUnits(), 30u);
    // Idempotent; un-throttling cannot resurrect a failed bank.
    regs.markFailed(2);
    EXPECT_EQ(regs.failedBanks(), 1u);
    regs.setThrottled(2, false);
    EXPECT_EQ(regs.bankState(2), BankState::Failed);
}

TEST(StatusRegisters, ThrottledBankComesBack)
{
    auto regs = fourBanks();
    regs.setThrottled(1, true);
    EXPECT_EQ(regs.bankState(1), BankState::Throttled);
    EXPECT_EQ(regs.availableUnits(), 30u);
    EXPECT_EQ(regs.aliveUnits(), 40u); // throttled still counts alive
    EXPECT_FALSE(regs.acquire(1, 1));
    regs.setThrottled(1, false);
    EXPECT_EQ(regs.availableUnits(), 40u);
    EXPECT_TRUE(regs.acquire(1, 1));
}

TEST(StatusRegisters, HealthMaskTracksStates)
{
    auto regs = fourBanks();
    EXPECT_EQ(regs.healthMask(), 0b1111u);
    regs.markFailed(0);
    regs.setThrottled(2, true);
    EXPECT_EQ(regs.healthMask(), 0b1010u);
    regs.setThrottled(2, false);
    EXPECT_EQ(regs.healthMask(), 0b1110u);
}

TEST(StatusRegistersDeath, BadBankPanics)
{
    auto regs = fourBanks();
    EXPECT_DEATH(regs.freeUnits(4), "out of range");
}

TEST(StatusRegistersDeath, MismatchedVectorIsFatal)
{
    EXPECT_EXIT(StatusRegisterFile(4, {1, 2}),
                testing::ExitedWithCode(1), "entries");
}
