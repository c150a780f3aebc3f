/**
 * @file
 * Unit tests for the 3D-stacked memory cube's closed-form bandwidths.
 */

#include <gtest/gtest.h>

#include "mem/hmc_stack.hh"

using hpim::mem::HmcConfig;
using hpim::mem::hmc2Timing;
using hpim::mem::peakExternalBandwidth;
using hpim::mem::peakInternalBandwidth;

TEST(HmcBandwidth, DefaultConfigMatchesPaper)
{
    HmcConfig config;
    EXPECT_EQ(config.vaults, 32u); // 32 bank slices (Fig. 3)
    // 64 B per 6.4 ns burst window x 32 vaults, and 4 x 30 GB/s
    // links, both exact in double.
    EXPECT_EQ(peakInternalBandwidth(config), 320e9);
    EXPECT_EQ(peakExternalBandwidth(config), 120e9);
    // Internal bandwidth must exceed the external links -- the
    // entire premise of PIM.
    EXPECT_GT(peakInternalBandwidth(config), peakExternalBandwidth(config));
}

TEST(HmcBandwidth, ExternalBandwidthFromLinks)
{
    HmcConfig config;
    config.links = 4;
    config.linkGBps = 30.0;
    EXPECT_DOUBLE_EQ(peakExternalBandwidth(config), 120e9);
    config.links = 2;
    EXPECT_DOUBLE_EQ(peakExternalBandwidth(config), 60e9);
}

TEST(HmcBandwidth, PerVaultBandwidthConsistentWithTotal)
{
    EXPECT_NEAR(peakInternalBandwidth(HmcConfig{}),
                hmc2Timing().peakBankBandwidth() * 32.0, 1.0);
}

TEST(HmcBandwidth, ClosedFormBandwidthsMatchTheStack)
{
    // A 16-vault stack at twice the clock: the internal peak is the
    // scaled per-vault burst rate times the vault count, and the
    // external peak follows the two links alone.
    HmcConfig custom;
    custom.vaults = 16;
    custom.links = 2;
    custom.frequencyScale = 2.0;
    EXPECT_EQ(peakInternalBandwidth(custom),
              hmc2Timing().scaled(2.0).peakBankBandwidth() * 16.0);
    EXPECT_EQ(peakExternalBandwidth(custom), 60e9);
}
