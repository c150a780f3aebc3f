/**
 * @file
 * Integration tests: the paper's headline results, end to end --
 * every module from workload graphs through profiling, selection,
 * the executor and the energy model.
 */

#include <gtest/gtest.h>

#include "baseline/presets.hh"
#include "nn/models.hh"
#include "rt/hetero_runtime.hh"

using namespace hpim;
using baseline::runSystem;
using baseline::SystemKind;

namespace {

constexpr std::uint32_t kSteps = 3;

} // namespace

TEST(Integration, PimConfigsBeatCpuOnEveryModel)
{
    // Paper SectionVI-A: PIM-based designs beat CPU by 19% to 28x.
    for (auto model : nn::cnnModels()) {
        double cpu =
            runSystem(SystemKind::CpuOnly, model, kSteps).stepSec;
        double hetero =
            runSystem(SystemKind::HeteroPim, model, kSteps).stepSec;
        double progr =
            runSystem(SystemKind::ProgrPimOnly, model, kSteps).stepSec;
        double fixed =
            runSystem(SystemKind::FixedPimOnly, model, kSteps).stepSec;
        EXPECT_GT(cpu / hetero, 1.19) << nn::modelName(model);
        EXPECT_LT(cpu / hetero, 40.0) << nn::modelName(model);
        EXPECT_GT(cpu / progr, 1.0) << nn::modelName(model);
        EXPECT_GT(cpu / fixed, 1.0) << nn::modelName(model);
    }
}

TEST(Integration, HeteroBeatsHomogeneousPims)
{
    // Hetero vs Progr: 2.5-23x; vs Fixed: 1.4-5.7x (shape check:
    // strictly better, by a wide margin vs Progr).
    for (auto model : nn::cnnModels()) {
        double hetero =
            runSystem(SystemKind::HeteroPim, model, kSteps).stepSec;
        double progr =
            runSystem(SystemKind::ProgrPimOnly, model, kSteps).stepSec;
        double fixed =
            runSystem(SystemKind::FixedPimOnly, model, kSteps).stepSec;
        EXPECT_GT(progr / hetero, 2.5) << nn::modelName(model);
        EXPECT_GT(fixed / hetero, 1.2) << nn::modelName(model);
    }
}

TEST(Integration, HeteroBeatsGpuOnResNetOnly)
{
    // Paper: ResNet-50's working set spills the GPU's 11 GB, so
    // Hetero wins there; DCGAN favors the GPU; others are close.
    double resnet_gpu =
        runSystem(SystemKind::Gpu, nn::ModelId::ResNet50, kSteps)
            .stepSec;
    double resnet_het =
        runSystem(SystemKind::HeteroPim, nn::ModelId::ResNet50, kSteps)
            .stepSec;
    EXPECT_GT(resnet_gpu / resnet_het, 1.1);

    double vgg_gpu =
        runSystem(SystemKind::Gpu, nn::ModelId::Vgg19, kSteps).stepSec;
    double vgg_het =
        runSystem(SystemKind::HeteroPim, nn::ModelId::Vgg19, kSteps)
            .stepSec;
    // Within ~2x either way ("close to GPU").
    EXPECT_GT(vgg_gpu / vgg_het, 0.5);
    EXPECT_LT(vgg_gpu / vgg_het, 2.0);
}

TEST(Integration, HeteroEnergyBeatsCpuAndGpu)
{
    // Paper SectionVI-B: 3-24x less than CPU, 1.3-5x less than GPU.
    for (auto model : nn::cnnModels()) {
        double cpu = runSystem(SystemKind::CpuOnly, model, kSteps)
                         .energyPerStepJ;
        double gpu =
            runSystem(SystemKind::Gpu, model, kSteps).energyPerStepJ;
        double hetero = runSystem(SystemKind::HeteroPim, model, kSteps)
                            .energyPerStepJ;
        EXPECT_GT(cpu / hetero, 3.0) << nn::modelName(model);
        EXPECT_GT(gpu / hetero, 1.3) << nn::modelName(model);
    }
}

TEST(Integration, ProgrPimHasHighestDynamicEnergy)
{
    // Paper SectionVI-B: Progr PIM consumes more than every other
    // configuration (barely faster than CPU, more power).
    for (auto model : {nn::ModelId::Vgg19, nn::ModelId::AlexNet}) {
        double progr = runSystem(SystemKind::ProgrPimOnly, model,
                                 kSteps)
                           .energyPerStepJ;
        for (auto other :
             {SystemKind::CpuOnly, SystemKind::Gpu,
              SystemKind::FixedPimOnly, SystemKind::HeteroPim}) {
            EXPECT_GT(progr,
                      runSystem(other, model, kSteps).energyPerStepJ)
                << nn::modelName(model);
        }
    }
}

TEST(Integration, HeteroBeatsNeurocubeByAtLeastThreeX)
{
    // Paper Fig. 10.
    for (auto model : nn::cnnModels()) {
        auto neuro = runSystem(SystemKind::Neurocube, model, kSteps);
        auto hetero = runSystem(SystemKind::HeteroPim, model, kSteps);
        EXPECT_GT(neuro.stepSec / hetero.stepSec, 3.0)
            << nn::modelName(model);
        EXPECT_GT(neuro.energyPerStepJ / hetero.energyPerStepJ, 3.0)
            << nn::modelName(model);
    }
}

TEST(Integration, FrequencyScalingImprovesEdp)
{
    // Paper Fig. 17(a): 4x frequency is the EDP-optimal point.
    for (auto model : {nn::ModelId::Vgg19, nn::ModelId::AlexNet}) {
        double e1 =
            runSystem(SystemKind::HeteroPim, model, kSteps, 1.0).edp;
        double e4 =
            runSystem(SystemKind::HeteroPim, model, kSteps, 4.0).edp;
        EXPECT_LT(e4, e1) << nn::modelName(model);
    }
}

TEST(Integration, RcAndOpTogetherNearSaturateThePool)
{
    // Paper Fig. 15: utilization close to 100% with RC + OP on the
    // large models.
    auto config = baseline::makeHetero(true, true, true);
    config.steps = kSteps;
    rt::HeteroRuntime runtime(config);
    auto result = runtime.train(nn::buildResNet50());
    EXPECT_GT(result.execution.fixedUtilization, 0.75);
}

TEST(Integration, MixedWorkloadCorunWinsForAllPairs)
{
    auto config = baseline::makeConfig(SystemKind::HeteroPim);
    config.steps = 2;
    rt::HeteroRuntime runtime(config);
    const std::vector<std::pair<nn::ModelId, nn::ModelId>> pairs = {
        {nn::ModelId::AlexNet, nn::ModelId::Lstm},
        {nn::ModelId::AlexNet, nn::ModelId::Word2vec},
    };
    for (auto [cnn, guest] : pairs) {
        auto primary = nn::buildModel(cnn);
        auto secondary = nn::buildModel(guest);
        auto seq = runtime.corunSequential(primary, secondary);
        auto co = runtime.corun(primary, secondary);
        EXPECT_LT(co.execution.makespanSec,
                  seq.execution.makespanSec)
            << nn::modelName(cnn) << "+" << nn::modelName(guest);
    }
}
