#include "baseline/presets.hh"

#include <memory>

#include "mem/hmc_stack.hh"
#include "nn/tensor_shape.hh"
#include "rt/hetero_runtime.hh"
#include "sim/hash.hh"
#include "sim/logging.hh"
#include "sim/memo_cache.hh"

namespace hpim::baseline {

using hpim::nn::ModelId;
using hpim::rt::SystemConfig;

std::string
systemName(SystemKind kind)
{
    switch (kind) {
      case SystemKind::CpuOnly:      return "CPU";
      case SystemKind::Gpu:          return "GPU";
      case SystemKind::ProgrPimOnly: return "Progr PIM";
      case SystemKind::FixedPimOnly: return "Fixed PIM";
      case SystemKind::HeteroPim:    return "Hetero PIM";
      case SystemKind::Neurocube:    return "Neurocube";
    }
    panic("unknown system kind");
}

namespace {

/** Common stack-attached host environment for PIM systems. */
void
applyStackHost(SystemConfig &config)
{
    // The host reaches the cube over its serial links (4 x 30 GB/s).
    config.cpu.memBandwidth =
        hpim::mem::peakExternalBandwidth(hpim::mem::HmcConfig{});
    config.dramEnergy = hpim::mem::DramEnergyParams::hmc();
}

} // namespace

SystemConfig
makeHetero(bool dynamic_scheduling, bool recursive_kernels,
           bool operation_pipeline, double freq_scale,
           std::uint32_t progr_pims)
{
    SystemConfig config;
    config.name = "Hetero PIM";
    applyStackHost(config);
    config.hasFixedPim = true;
    config.hasProgrPim = true;
    config.progrPimCount = progr_pims;
    // Fig. 12: cores trade against fixed units at constant die area;
    // one ARM core costs ~3.95 fixed units of area (model/area_power).
    if (progr_pims > 1) {
        std::uint32_t cores = progr_pims * config.progr.cores;
        std::uint32_t base_cores = config.progr.cores;
        std::uint32_t lost =
            static_cast<std::uint32_t>((cores - base_cores) * 3.95
                                       / 4.0);
        config.fixed.totalUnits =
            config.fixed.totalUnits > lost
                ? config.fixed.totalUnits - lost
                : 16;
    }
    config.dynamicScheduling = dynamic_scheduling;
    config.recursiveKernels = recursive_kernels;
    config.operationPipeline = operation_pipeline;
    config.fixed.frequencyScale = freq_scale;
    config.progr.frequencyScale = freq_scale;
    // The programmable PIM drives host-PIM synchronization, keeping
    // the host mostly idle (SectionIII-B memory model).
    config.hostCoordinationFloor = 0.12;
    return config;
}

SystemConfig
makeConfig(SystemKind kind, double freq_scale, std::uint32_t progr_pims)
{
    SystemConfig config;
    switch (kind) {
      case SystemKind::CpuOnly: {
        config.name = "CPU";
        // Host-only system: DDR4 DIMMs as in paper Table IV.
        config.cpu.memBandwidth = 50e9;
        config.dramEnergy = hpim::mem::DramEnergyParams::ddr4();
        config.hostCoordinationFloor = 0.0;
        return config;
      }
      case SystemKind::ProgrPimOnly: {
        config.name = "Progr PIM";
        applyStackHost(config);
        config.hasProgrPim = true;
        config.progrPimCount = 1;
        // "As many ARM cores as needed": the whole compute area of
        // the logic die filled with cores (model/area_power: ~64).
        config.progr.cores = 64;
        // In-order cores sustain ~half their NEON peak on these
        // kernels; the host stays busy dispatching every op, which
        // is why this configuration's dynamic energy exceeds CPU's
        // (paper SectionVI-B).
        config.progr.flopsPerCore = 2.8e9;
        config.progr.specialsPerCore = 2.8e9;
        config.progr.corePowerW = 0.9;
        config.progr.frequencyScale = freq_scale;
        config.hostCoordinationFloor = 0.75;
        return config;
      }
      case SystemKind::FixedPimOnly: {
        config.name = "Fixed PIM";
        applyStackHost(config);
        config.hasFixedPim = true;
        config.fixed.frequencyScale = freq_scale;
        // Host drives every offload and synchronization.
        config.hostCoordinationFloor = 0.55;
        return config;
      }
      case SystemKind::HeteroPim:
        return makeHetero(true, true, true, freq_scale, progr_pims);
      case SystemKind::Neurocube: {
        config.name = "Neurocube";
        applyStackHost(config);
        config.hasProgrPim = true;
        config.progrPimCount = 1;
        // 16 vault-attached PE clusters (MAC arrays + local SRAM);
        // aggregate throughput calibrated to the published design.
        config.progr.cores = 16;
        config.progr.flopsPerCore = 28.0e9;
        config.progr.specialsPerCore = 4.0e9;
        config.progr.corePowerW = 2.0;
        config.progr.frequencyScale = freq_scale;
        config.hostCoordinationFloor = 0.5;
        return config;
      }
      case SystemKind::Gpu:
        fatal("the GPU system runs through GpuModel, not SystemConfig");
      default:
        panic("unknown system kind");
    }
}

hpim::gpu::GpuParams
gpuParams()
{
    return hpim::gpu::GpuParams{};
}

double
gpuUtilization(ModelId model)
{
    // Paper SectionV-D measured average utilizations.
    switch (model) {
      case ModelId::InceptionV3: return 0.62;
      case ModelId::ResNet50:    return 0.44;
      case ModelId::AlexNet:     return 0.30;
      case ModelId::Vgg19:       return 0.63;
      case ModelId::Dcgan:       return 0.28;
      case ModelId::Lstm:        return 0.35;
      case ModelId::Word2vec:    return 0.20;
    }
    panic("unknown model");
}

double
gpuInputBytes(ModelId model)
{
    using hpim::nn::TensorShape;
    int batch = hpim::nn::defaultBatchSize(model);
    switch (model) {
      case ModelId::Vgg19:
      case ModelId::ResNet50:
        return double(TensorShape{batch, 224, 224, 3}.bytes());
      case ModelId::AlexNet:
        return double(TensorShape{batch, 227, 227, 3}.bytes());
      case ModelId::InceptionV3:
        return double(TensorShape{batch, 299, 299, 3}.bytes());
      case ModelId::Dcgan:
        return double(TensorShape{batch, 28, 28, 1}.bytes());
      case ModelId::Lstm:
        return double(batch) * 35 * 4;  // token ids
      case ModelId::Word2vec:
        return double(batch) * (1 + 64) * 4;
    }
    panic("unknown model");
}

namespace {

/**
 * Model graphs are pure functions of (model, batch), and one sweep
 * point builds the same graph for every system kind it compares;
 * memoize the build (sim::MemoCache, exact-match keys).
 */
std::shared_ptr<const hpim::nn::Graph>
cachedModel(ModelId model, int batch)
{
    auto &cache = hpim::sim::MemoCache::instance();
    std::uint64_t key = hpim::sim::hashU64(
        static_cast<std::uint64_t>(static_cast<std::int64_t>(batch)),
        hpim::sim::hashU64(static_cast<std::uint64_t>(model)));
    if (auto hit = cache.find<hpim::nn::Graph>(key, "nn.graph"))
        return hit;
    auto built = std::make_shared<const hpim::nn::Graph>(
        hpim::nn::buildModel(model, batch));
    cache.put<hpim::nn::Graph>(key, "nn.graph", built);
    return built;
}

} // namespace

hpim::rt::ExecutionReport
runSystem(SystemKind kind, ModelId model, std::uint32_t steps,
          double freq_scale, std::uint32_t progr_pims, int batch)
{
    std::shared_ptr<const hpim::nn::Graph> graph_ptr =
        cachedModel(model, batch);
    const hpim::nn::Graph &graph = *graph_ptr;

    if (kind == SystemKind::Gpu) {
        hpim::gpu::GpuModel gpu(gpuParams());
        double input_bytes = gpuInputBytes(model);
        if (batch > 0) {
            input_bytes *= double(batch)
                           / double(hpim::nn::defaultBatchSize(model));
        }
        auto step = gpu.runStep(graph, gpuUtilization(model),
                                input_bytes);
        hpim::rt::ExecutionReport report;
        report.configName = systemName(kind);
        report.workloadName = graph.name();
        report.stepsSimulated = steps;
        report.stepSec = step.totalSec();
        report.makespanSec = report.stepSec * steps;
        report.opSec = step.opSec;
        report.dataMovementSec = step.dataMovementSec;
        report.syncSec = step.syncSec;
        report.energyPerStepJ = step.energyJ;
        report.totalEnergyJ = step.energyJ * steps;
        report.averagePowerW = step.powerW;
        report.edp = report.energyPerStepJ * report.stepSec;
        return report;
    }

    hpim::rt::SystemConfig config =
        makeConfig(kind, freq_scale, progr_pims);
    config.steps = steps;
    hpim::rt::HeteroRuntime runtime(config);
    return runtime.train(graph).execution;
}

hpim::rt::ExecutionReport
runSystemGraph(SystemKind kind, const hpim::nn::Graph &graph,
               std::uint32_t steps, double freq_scale,
               std::uint32_t progr_pims)
{
    fatal_if(kind == SystemKind::Gpu,
             "the GPU system needs per-model calibration "
             "(utilization, input volume) and cannot run "
             "user-supplied graphs");
    hpim::rt::SystemConfig config =
        makeConfig(kind, freq_scale, progr_pims);
    config.steps = steps;
    hpim::rt::HeteroRuntime runtime(config);
    return runtime.train(graph).execution;
}

} // namespace hpim::baseline
