/**
 * @file
 * Unit tests for the 3D-stacked memory cube.
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/hmc_stack.hh"
#include "sim/rng.hh"

using hpim::mem::AccessType;
using hpim::mem::HmcConfig;
using hpim::mem::HmcStack;
using hpim::mem::MemoryRequest;

TEST(HmcStack, DefaultConfigMatchesPaper)
{
    HmcStack stack{HmcConfig{}};
    EXPECT_EQ(stack.vaultCount(), 32u); // 32 bank slices (Fig. 3)
    EXPECT_GT(stack.capacity(), 0u);
    // Internal bandwidth must exceed the external links -- the
    // entire premise of PIM.
    EXPECT_GT(stack.peakInternalBandwidth(),
              stack.peakExternalBandwidth());
}

TEST(HmcStack, ExternalBandwidthFromLinks)
{
    HmcConfig config;
    config.links = 4;
    config.linkGBps = 30.0;
    HmcStack stack{config};
    EXPECT_DOUBLE_EQ(stack.peakExternalBandwidth(), 120e9);
}

TEST(HmcStack, RoutesRequestsToCorrectVault)
{
    HmcStack stack{HmcConfig{}};
    MemoryRequest req;
    req.id = 1;
    req.addr = 256; // second row chunk -> vault 1 under RoBaVaCo
    stack.enqueue(req);
    EXPECT_TRUE(stack.vault(1).busy());
    EXPECT_FALSE(stack.vault(0).busy());
    stack.drainAll();
}

TEST(HmcStack, DrainAllCompletesEverythingInOrder)
{
    HmcStack stack{HmcConfig{}};
    hpim::sim::Rng rng(3);
    for (std::uint64_t i = 0; i < 256; ++i) {
        MemoryRequest req;
        req.id = i;
        req.addr = rng.next() % stack.capacity();
        req.type = (i % 4 == 0) ? AccessType::Write : AccessType::Read;
        stack.enqueue(req);
    }
    auto done = stack.drainAll();
    ASSERT_EQ(done.size(), 256u);
    std::set<std::uint64_t> ids;
    for (std::size_t i = 0; i < done.size(); ++i) {
        ids.insert(done[i].id);
        if (i > 0) {
            EXPECT_LE(done[i - 1].completion, done[i].completion);
        }
        EXPECT_GT(done[i].completion, 0u);
    }
    EXPECT_EQ(ids.size(), 256u);
}

TEST(HmcStack, StreamingSpreadsLoadAcrossVaults)
{
    HmcStack stack{HmcConfig{}};
    for (std::uint64_t i = 0; i < 32 * 4; ++i) {
        MemoryRequest req;
        req.id = i;
        req.addr = i * 256; // one row chunk per request
        stack.enqueue(req);
    }
    stack.drainAll();
    for (std::uint32_t v = 0; v < stack.vaultCount(); ++v)
        EXPECT_EQ(stack.vault(v).stats().requests, 4u);
}

TEST(HmcStack, FrequencyScalingShortensService)
{
    auto run = [](double scale) {
        HmcConfig config;
        config.frequencyScale = scale;
        HmcStack stack{config};
        for (std::uint64_t i = 0; i < 128; ++i) {
            MemoryRequest req;
            req.id = i;
            req.addr = i * 64;
            stack.enqueue(req);
        }
        auto done = stack.drainAll();
        return done.back().completion;
    };
    EXPECT_LT(run(2.0), run(1.0));
}

TEST(HmcStack, HarvestEnergyAccumulatesArrayEnergy)
{
    HmcStack stack{HmcConfig{}};
    for (std::uint64_t i = 0; i < 64; ++i) {
        MemoryRequest req;
        req.id = i;
        req.addr = i * 4096;
        stack.enqueue(req);
    }
    stack.drainAll();
    EXPECT_DOUBLE_EQ(stack.energy().arrayEnergyJ(), 0.0);
    stack.harvestEnergy();
    EXPECT_GT(stack.energy().arrayEnergyJ(), 0.0);
}

TEST(HmcStack, PerVaultBandwidthConsistentWithTotal)
{
    HmcStack stack{HmcConfig{}};
    EXPECT_NEAR(stack.peakInternalBandwidth(),
                stack.perVaultBandwidth() * 32.0, 1.0);
}

TEST(HmcStack, ClosedFormBandwidthsMatchTheStack)
{
    // The executor and the presets read the closed forms; a built
    // stack (its own scaled timing, its own vault count) must report
    // exactly the same figures.
    HmcConfig custom;
    custom.vaults = 16;
    custom.links = 2;
    custom.frequencyScale = 2.0;
    for (const HmcConfig &config : {HmcConfig{}, custom}) {
        HmcStack stack{config};
        EXPECT_EQ(hpim::mem::peakInternalBandwidth(config),
                  stack.peakInternalBandwidth());
        EXPECT_EQ(hpim::mem::peakInternalBandwidth(config),
                  stack.perVaultBandwidth()
                      * static_cast<double>(stack.vaultCount()));
        EXPECT_EQ(hpim::mem::peakExternalBandwidth(config),
                  stack.peakExternalBandwidth());
    }
    // 64 B per 6.4 ns burst window x 32 vaults, exact in double.
    EXPECT_EQ(hpim::mem::peakInternalBandwidth(HmcConfig{}), 320e9);
}

TEST(HmcStackDeath, VaultIndexOutOfRangePanics)
{
    HmcStack stack{HmcConfig{}};
    EXPECT_DEATH(stack.vault(32), "out of range");
}
