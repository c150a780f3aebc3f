/**
 * @file
 * Golden schedule oracle: pins an FNV digest of every ScheduleTrace
 * entry plus the ExecutionReport JSON for a fixed set of points, so
 * any change to the executor's dispatch order -- not only an illegal
 * schedule, which test_schedule_fuzz and the validator catch --
 * fails here. A dispatch optimization must keep every digest.
 *
 * Points: the Fig. 8 grid (7 models x 5 simulated systems), the
 * frequency/programmable-PIM scaling configs of Figs. 11/12, all
 * eight scheduling/RC/OP variants of Figs. 13/14, the Fig. 16 co-run
 * pairs plus co-runs whose workloads tie on (managed, step, op),
 * fault points with 4/16/32 killed banks (32 is the whole pool),
 * transient/stall rates and throttling, and the ScheduleFuzz
 * random-graph, random-fault and Builder-DAG points.
 *
 * On a mismatch the test prints the new digest as a ready-to-paste
 * table row. Replace a pin only when the schedule change is intended.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "baseline/presets.hh"
#include "cpu/cpu_model.hh"
#include "harness/report_io.hh"
#include "nn/models.hh"
#include "rt/executor.hh"
#include "rt/hetero_runtime.hh"
#include "rt/offload_selector.hh"
#include "rt/profiler.hh"
#include "rt/schedule_trace.hh"
#include "schedule_fuzz_points.hh"
#include "sim/hash.hh"
#include "sim/rng.hh"

using namespace hpim;
using baseline::SystemKind;

namespace {

struct Digest
{
    std::string name;
    std::uint64_t value = 0;
};

/** Hash every trace entry field by field, then the report JSON. */
std::uint64_t
scheduleDigest(const rt::ScheduleTrace &trace,
               const rt::ExecutionReport &report)
{
    std::uint64_t h = sim::fnvOffsetBasis;
    for (const rt::TraceEntry &entry : trace.entries()) {
        h = sim::hashString(entry.label, h);
        h = sim::hashU64(entry.opId, h);
        h = sim::hashU64(static_cast<std::uint64_t>(entry.placement), h);
        h = sim::hashU64(entry.workload, h);
        h = sim::hashU64(entry.step, h);
        h = sim::hashDouble(entry.startSec, h);
        h = sim::hashDouble(entry.endSec, h);
        h = sim::hashU64(entry.aborted ? 1 : 0, h);
    }
    return sim::hashString(harness::jsonString(report), h);
}

/** Run @p workloads traced and digest the schedule. */
std::uint64_t
runDigest(const rt::SystemConfig &config,
          const std::vector<rt::WorkloadSpec> &workloads,
          const rt::OffloadSelection *selection = nullptr)
{
    rt::Executor executor(config, selection);
    rt::ScheduleTrace trace;
    executor.attachTrace(&trace);
    rt::ExecutionReport report = executor.run(workloads);
    return scheduleDigest(trace, report);
}

rt::WorkloadSpec
spec(const nn::Graph &graph, std::uint32_t steps, bool managed = true)
{
    rt::WorkloadSpec s;
    s.graph = &graph;
    s.steps = steps;
    s.pimManaged = managed;
    return s;
}

/** The offload candidates HeteroRuntime derives for @p graph. */
rt::OffloadSelection
selectionFor(const rt::SystemConfig &config, const nn::Graph &graph)
{
    rt::Profiler profiler{cpu::CpuModel(config.cpu)};
    return rt::selectOffloadCandidates(profiler.profile(graph),
                                       config.offloadCoveragePct);
}

/** One managed workload, run the way HeteroRuntime::train runs it. */
std::uint64_t
trainDigest(const rt::SystemConfig &config, const nn::Graph &graph,
            std::uint32_t steps)
{
    if (!config.dynamicScheduling)
        return runDigest(config, {spec(graph, steps)});
    rt::OffloadSelection selection = selectionFor(config, graph);
    return runDigest(config, {spec(graph, steps)}, &selection);
}

std::string
hex(std::uint64_t value)
{
    char text[32];
    std::snprintf(text, sizeof text, "0x%016llxULL",
                  static_cast<unsigned long long>(value));
    return text;
}

void
expectPinned(const std::vector<Digest> &actual,
             const std::vector<Digest> &pinned)
{
    EXPECT_EQ(actual.size(), pinned.size());
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (i < pinned.size() && actual[i].name == pinned[i].name
            && actual[i].value == pinned[i].value) {
            continue;
        }
        ADD_FAILURE() << "schedule digest changed:\n    {\""
                      << actual[i].name << "\", " << hex(actual[i].value)
                      << "},";
    }
}

constexpr std::uint32_t kSteps = 4;

const std::vector<nn::ModelId> &
models()
{
    static const std::vector<nn::ModelId> all = nn::allModels();
    return all;
}

} // namespace

TEST(ScheduleGolden, Fig8Grid)
{
    std::vector<Digest> actual;
    for (nn::ModelId model : models()) {
        nn::Graph graph = nn::buildModel(model);
        for (SystemKind kind :
             {SystemKind::CpuOnly, SystemKind::ProgrPimOnly,
              SystemKind::FixedPimOnly, SystemKind::HeteroPim,
              SystemKind::Neurocube}) {
            actual.push_back(
                {nn::modelName(model) + "/" + baseline::systemName(kind),
                 trainDigest(baseline::makeConfig(kind), graph, kSteps)});
        }
    }
    expectPinned(actual, {
        {"VGG-19/CPU", 0x7246fd6f3be1848bULL},
        {"VGG-19/Progr PIM", 0xa4acd7cc345bd873ULL},
        {"VGG-19/Fixed PIM", 0x659841fec051c331ULL},
        {"VGG-19/Hetero PIM", 0x2c39b77740511a66ULL},
        {"VGG-19/Neurocube", 0xff6391e0122b6257ULL},
        {"AlexNet/CPU", 0x557ac7e49d202d54ULL},
        {"AlexNet/Progr PIM", 0x326b9c22ba6f5994ULL},
        {"AlexNet/Fixed PIM", 0x766340d28063bf3dULL},
        {"AlexNet/Hetero PIM", 0x5d96bca861e872daULL},
        {"AlexNet/Neurocube", 0xe4d7700c151f64c4ULL},
        {"DCGAN/CPU", 0x1fb814315bbfcd51ULL},
        {"DCGAN/Progr PIM", 0xdcdee70dc14a0af3ULL},
        {"DCGAN/Fixed PIM", 0x5645c59169bb7b04ULL},
        {"DCGAN/Hetero PIM", 0x9bd9b441b7ac7e8bULL},
        {"DCGAN/Neurocube", 0x98f00064bdfeab8aULL},
        {"ResNet-50/CPU", 0x29ef1dfd4b579e84ULL},
        {"ResNet-50/Progr PIM", 0xed859f5daba7ff40ULL},
        {"ResNet-50/Fixed PIM", 0x80193ebcce8b15dcULL},
        {"ResNet-50/Hetero PIM", 0xa566a6bad7ebdfedULL},
        {"ResNet-50/Neurocube", 0x75dfd4f17460f0cfULL},
        {"Inception-v3/CPU", 0xf12a8a3caff566c1ULL},
        {"Inception-v3/Progr PIM", 0x8e13912ac186be04ULL},
        {"Inception-v3/Fixed PIM", 0x45879ff917ecdd51ULL},
        {"Inception-v3/Hetero PIM", 0x830872255723e25dULL},
        {"Inception-v3/Neurocube", 0xfbd3c8e04f0f612aULL},
        {"LSTM/CPU", 0xaae8ad9f21165622ULL},
        {"LSTM/Progr PIM", 0xa18579b9d80cd197ULL},
        {"LSTM/Fixed PIM", 0xe71f875ddf6794d0ULL},
        {"LSTM/Hetero PIM", 0xcae57a56f3bcc3f9ULL},
        {"LSTM/Neurocube", 0x7be6b518489b4b92ULL},
        {"Word2vec/CPU", 0xd4d79ed7cee1a050ULL},
        {"Word2vec/Progr PIM", 0x7526b8840fd1b6e8ULL},
        {"Word2vec/Fixed PIM", 0x3d931b021a79fbefULL},
        {"Word2vec/Hetero PIM", 0x5a0304a27078abf6ULL},
        {"Word2vec/Neurocube", 0x0758a6ea2b73fbf4ULL},
    });
}

TEST(ScheduleGolden, Fig11And12Scaling)
{
    std::vector<Digest> actual;
    for (nn::ModelId model : models()) {
        nn::Graph graph = nn::buildModel(model);
        std::string name = nn::modelName(model);
        actual.push_back(
            {name + "/freq2",
             trainDigest(baseline::makeConfig(SystemKind::HeteroPim, 2.0),
                         graph, kSteps)});
        for (std::uint32_t progr : {2u, 4u}) {
            actual.push_back(
                {name + "/progr" + std::to_string(progr),
                 trainDigest(baseline::makeConfig(SystemKind::HeteroPim,
                                                  1.0, progr),
                             graph, kSteps)});
        }
    }
    expectPinned(actual, {
        {"VGG-19/freq2", 0x25f7a090e0618004ULL},
        {"VGG-19/progr2", 0x47d6bea86ed55dc6ULL},
        {"VGG-19/progr4", 0xa1973d8866f7f83fULL},
        {"AlexNet/freq2", 0x5f04632e9ee65a24ULL},
        {"AlexNet/progr2", 0x292ec957adeec88bULL},
        {"AlexNet/progr4", 0xfdfc39a282b90e52ULL},
        {"DCGAN/freq2", 0xdf4db63d30975ce7ULL},
        {"DCGAN/progr2", 0x9cb440acd55ddbbfULL},
        {"DCGAN/progr4", 0x9d312a260b7e9f05ULL},
        {"ResNet-50/freq2", 0x1cf2be63d414a59fULL},
        {"ResNet-50/progr2", 0xc6ef73a80a2d1994ULL},
        {"ResNet-50/progr4", 0xc84e97f8969e1458ULL},
        {"Inception-v3/freq2", 0xee6b5acfea3c1b05ULL},
        {"Inception-v3/progr2", 0x9c3c2e3077e6f2a2ULL},
        {"Inception-v3/progr4", 0x0ea39327d470929aULL},
        {"LSTM/freq2", 0x914b6286a3b9b46dULL},
        {"LSTM/progr2", 0xc84fd3fe51da26b3ULL},
        {"LSTM/progr4", 0x206dbfc005b7a4faULL},
        {"Word2vec/freq2", 0x2784205782e6cd48ULL},
        {"Word2vec/progr2", 0x898685b6d8c06aefULL},
        {"Word2vec/progr4", 0xeeedf3f842e6082aULL},
    });
}

TEST(ScheduleGolden, Fig13Variants)
{
    std::vector<Digest> actual;
    for (nn::ModelId model : models()) {
        nn::Graph graph = nn::buildModel(model);
        for (int variant = 0; variant < 8; ++variant) {
            bool sched = variant & 4, rc = variant & 2, op = variant & 1;
            actual.push_back(
                {nn::modelName(model) + "/sched" + std::to_string(sched)
                     + "rc" + std::to_string(rc) + "op"
                     + std::to_string(op),
                 trainDigest(baseline::makeHetero(sched, rc, op), graph,
                             kSteps)});
        }
    }
    expectPinned(actual, {
        {"VGG-19/sched0rc0op0", 0xb9555326aae2b052ULL},
        {"VGG-19/sched0rc0op1", 0x49d7cdf3a903f8a3ULL},
        {"VGG-19/sched0rc1op0", 0xb9555326aae2b052ULL},
        {"VGG-19/sched0rc1op1", 0x49d7cdf3a903f8a3ULL},
        {"VGG-19/sched1rc0op0", 0x2bbe065de7a6ce2dULL},
        {"VGG-19/sched1rc0op1", 0x4d5442ba6565f3c5ULL},
        {"VGG-19/sched1rc1op0", 0xfae6e445fdb69d15ULL},
        {"VGG-19/sched1rc1op1", 0x2c39b77740511a66ULL},
        {"AlexNet/sched0rc0op0", 0xe84fa34d3b7a7766ULL},
        {"AlexNet/sched0rc0op1", 0x06b2b8d4af086349ULL},
        {"AlexNet/sched0rc1op0", 0xe84fa34d3b7a7766ULL},
        {"AlexNet/sched0rc1op1", 0x06b2b8d4af086349ULL},
        {"AlexNet/sched1rc0op0", 0x4be9cd084ddc56b2ULL},
        {"AlexNet/sched1rc0op1", 0xcd209769abc269d3ULL},
        {"AlexNet/sched1rc1op0", 0x8e220e0909fc55f2ULL},
        {"AlexNet/sched1rc1op1", 0x5d96bca861e872daULL},
        {"DCGAN/sched0rc0op0", 0x97e703c8a0c1576cULL},
        {"DCGAN/sched0rc0op1", 0x85ea7a0896670279ULL},
        {"DCGAN/sched0rc1op0", 0x97e703c8a0c1576cULL},
        {"DCGAN/sched0rc1op1", 0x85ea7a0896670279ULL},
        {"DCGAN/sched1rc0op0", 0x99803d6ee86a89dbULL},
        {"DCGAN/sched1rc0op1", 0xab666ef36848740aULL},
        {"DCGAN/sched1rc1op0", 0x74093f053c11fa55ULL},
        {"DCGAN/sched1rc1op1", 0x9bd9b441b7ac7e8bULL},
        {"ResNet-50/sched0rc0op0", 0x10b77aa8aff804b6ULL},
        {"ResNet-50/sched0rc0op1", 0x4aef3934a894460dULL},
        {"ResNet-50/sched0rc1op0", 0x10b77aa8aff804b6ULL},
        {"ResNet-50/sched0rc1op1", 0x4aef3934a894460dULL},
        {"ResNet-50/sched1rc0op0", 0x6e65cbefd2496906ULL},
        {"ResNet-50/sched1rc0op1", 0x0b01249c2debb936ULL},
        {"ResNet-50/sched1rc1op0", 0x0d41c008b53ddc03ULL},
        {"ResNet-50/sched1rc1op1", 0xa566a6bad7ebdfedULL},
        {"Inception-v3/sched0rc0op0", 0x1c8b85275cd96b31ULL},
        {"Inception-v3/sched0rc0op1", 0x7e3d22bae20f28d8ULL},
        {"Inception-v3/sched0rc1op0", 0x1c8b85275cd96b31ULL},
        {"Inception-v3/sched0rc1op1", 0x7e3d22bae20f28d8ULL},
        {"Inception-v3/sched1rc0op0", 0x2d9a3422babfdefcULL},
        {"Inception-v3/sched1rc0op1", 0x6d65b336c88d44d2ULL},
        {"Inception-v3/sched1rc1op0", 0x01369b46ba90456aULL},
        {"Inception-v3/sched1rc1op1", 0x830872255723e25dULL},
        {"LSTM/sched0rc0op0", 0x70e10125da207b2eULL},
        {"LSTM/sched0rc0op1", 0x530cd2db023b4497ULL},
        {"LSTM/sched0rc1op0", 0x70e10125da207b2eULL},
        {"LSTM/sched0rc1op1", 0x530cd2db023b4497ULL},
        {"LSTM/sched1rc0op0", 0xad2bb120a81db296ULL},
        {"LSTM/sched1rc0op1", 0x416ebe346d36aa76ULL},
        {"LSTM/sched1rc1op0", 0xa863871577c9ff56ULL},
        {"LSTM/sched1rc1op1", 0xcae57a56f3bcc3f9ULL},
        {"Word2vec/sched0rc0op0", 0x834e47c318603446ULL},
        {"Word2vec/sched0rc0op1", 0x834e47c318603446ULL},
        {"Word2vec/sched0rc1op0", 0x834e47c318603446ULL},
        {"Word2vec/sched0rc1op1", 0x834e47c318603446ULL},
        {"Word2vec/sched1rc0op0", 0x9180f296a3c1445bULL},
        {"Word2vec/sched1rc0op1", 0x5a0304a27078abf6ULL},
        {"Word2vec/sched1rc1op0", 0x9180f296a3c1445bULL},
        {"Word2vec/sched1rc1op1", 0x5a0304a27078abf6ULL},
    });
}

TEST(ScheduleGolden, Fig16CoRunPairs)
{
    const std::pair<nn::ModelId, nn::ModelId> pairs[] = {
        {nn::ModelId::Vgg19, nn::ModelId::Lstm},
        {nn::ModelId::Vgg19, nn::ModelId::Word2vec},
        {nn::ModelId::AlexNet, nn::ModelId::Lstm},
        {nn::ModelId::AlexNet, nn::ModelId::Word2vec},
        {nn::ModelId::ResNet50, nn::ModelId::Lstm},
        {nn::ModelId::InceptionV3, nn::ModelId::Word2vec},
    };
    rt::SystemConfig config =
        baseline::makeConfig(SystemKind::HeteroPim);
    rt::HeteroRuntime runtime(config);
    std::vector<Digest> actual;
    for (const auto &[primary_id, guest_id] : pairs) {
        nn::Graph primary = nn::buildModel(primary_id);
        nn::Graph guest = nn::buildModel(guest_id);
        rt::OffloadSelection selection = selectionFor(config, primary);
        std::uint32_t guest_steps =
            runtime.guestSteps(primary, guest, kSteps);
        actual.push_back(
            {nn::modelName(primary_id) + "+" + nn::modelName(guest_id),
             runDigest(config,
                       {spec(primary, kSteps),
                        spec(guest, guest_steps, false)},
                       &selection)});
    }
    expectPinned(actual, {
        {"VGG-19+LSTM", 0x0af8c267278441d2ULL},
        {"VGG-19+Word2vec", 0xfc49013243f1ed2aULL},
        {"AlexNet+LSTM", 0xf0a2563db6f130d4ULL},
        {"AlexNet+Word2vec", 0x6092208fb30fbc8fULL},
        {"ResNet-50+LSTM", 0x0eecc710126c16e2ULL},
        {"Inception-v3+Word2vec", 0xa92ef620f3c89b70ULL},
    });
}

TEST(ScheduleGolden, CoRunTieBreaks)
{
    // Workloads running the same graph tie on (managed, step, op);
    // their relative dispatch order is the order they became ready.
    rt::SystemConfig config =
        baseline::makeConfig(SystemKind::HeteroPim);
    nn::Graph alexnet = nn::buildAlexNet();
    nn::Graph dcgan = nn::buildDcgan();
    nn::Graph lstm = nn::buildLstm();
    nn::Graph w2v = nn::buildWord2vec();
    rt::OffloadSelection alexnet_sel = selectionFor(config, alexnet);
    rt::OffloadSelection dcgan_sel = selectionFor(config, dcgan);
    rt::SystemConfig no_op = baseline::makeHetero(true, true, false);

    std::vector<Digest> actual;
    actual.push_back({"alexnet x2 managed",
                      runDigest(config,
                                {spec(alexnet, 2), spec(alexnet, 2)},
                                &alexnet_sel)});
    actual.push_back({"dcgan x3 managed, no OP",
                      runDigest(no_op,
                                {spec(dcgan, 2), spec(dcgan, 3),
                                 spec(dcgan, 2)},
                                &dcgan_sel)});
    actual.push_back({"alexnet + lstm x2 guests",
                      runDigest(config,
                                {spec(alexnet, 2), spec(lstm, 3, false),
                                 spec(lstm, 3, false)},
                                &alexnet_sel)});
    actual.push_back({"lstm guest before alexnet",
                      runDigest(config,
                                {spec(lstm, 4, false), spec(alexnet, 2)},
                                &alexnet_sel)});
    actual.push_back({"alexnet + lstm + word2vec, no selection",
                      runDigest(config,
                                {spec(alexnet, 2), spec(lstm, 2, false),
                                 spec(w2v, 4, false)})});
    actual.push_back({"alexnet + dcgan managed",
                      runDigest(config,
                                {spec(alexnet, 2), spec(dcgan, 2)})});
    expectPinned(actual, {
        {"alexnet x2 managed", 0x4bf6bd904cd79e18ULL},
        {"dcgan x3 managed, no OP", 0x1b4a2ae945c20b45ULL},
        {"alexnet + lstm x2 guests", 0x6a2ec73ce49ced84ULL},
        {"lstm guest before alexnet", 0xb41c91e1258567beULL},
        {"alexnet + lstm + word2vec, no selection", 0x5362953413143d53ULL},
        {"alexnet + dcgan managed", 0xfe55a42038b6a779ULL},
    });
}

TEST(ScheduleGolden, FaultPoints)
{
    struct FaultPoint
    {
        const char *name;
        std::uint32_t kills;
        double transient;
        double stall;
        double killSpreadSec = 0.05;
        bool throttle = false;
    };
    const FaultPoint points[] = {
        {"kill4", 4, 1e-3, 0.0},
        {"kill16", 16, 1e-3, 0.0},
        {"kill32", 32, 1e-3, 0.0},
        {"kill32 early", 32, 0.0, 0.0, 1e-4},
        {"rates 1e-2/1e-3", 0, 1e-2, 1e-3},
        {"rates 0.05/1e-2", 0, 0.05, 1e-2},
        {"rates 1/0", 0, 1.0, 0.0},
        {"throttle", 0, 1e-3, 0.0, 0.05, true},
    };
    nn::Graph alexnet = nn::buildAlexNet();
    nn::Graph vgg = nn::buildVgg19();
    std::vector<Digest> actual;
    for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
        for (const FaultPoint &point : points) {
            rt::SystemConfig config =
                baseline::makeConfig(SystemKind::HeteroPim);
            config.faults.enabled = true;
            config.faults.seed = seed;
            config.faults.killBanks = point.kills;
            config.faults.transientRatePerOp = point.transient;
            config.faults.stallRatePerOp = point.stall;
            config.faults.killSpreadSec = point.killSpreadSec;
            if (point.throttle) {
                config.faults.throttleTempC = 0.0;
                config.faults.throttleDutyFrac = 0.5;
                config.faults.throttlePeriodSec = 1e-3;
            }
            std::string name =
                "seed" + std::to_string(seed) + "/" + point.name;
            // As fault_sweep runs it: every eligible op a candidate.
            actual.push_back({"alexnet/" + name,
                              runDigest(config, {spec(alexnet, 2)})});
            if (point.kills == 16 || point.kills == 32) {
                actual.push_back(
                    {"vgg19 profiled/" + name,
                     trainDigest(config, vgg, 2)});
            }
        }
    }
    expectPinned(actual, {
        {"alexnet/seed1/kill4", 0x6019c10560885b47ULL},
        {"alexnet/seed1/kill16", 0x95ff985e3413a8a5ULL},
        {"vgg19 profiled/seed1/kill16", 0xfc1b4954111e2dceULL},
        {"alexnet/seed1/kill32", 0x454e1b4d83392be6ULL},
        {"vgg19 profiled/seed1/kill32", 0x4753bf15b069bf13ULL},
        {"alexnet/seed1/kill32 early", 0x3d7862f7de4bf619ULL},
        {"vgg19 profiled/seed1/kill32 early", 0x34c7704b6ade0a31ULL},
        {"alexnet/seed1/rates 1e-2/1e-3", 0x0d8dee9733b2e4ccULL},
        {"alexnet/seed1/rates 0.05/1e-2", 0x908239a4a4024807ULL},
        {"alexnet/seed1/rates 1/0", 0xc39fb98407286351ULL},
        {"alexnet/seed1/throttle", 0xebe53e7d50a604dcULL},
        {"alexnet/seed7/kill4", 0x18ca4be7b11a86d2ULL},
        {"alexnet/seed7/kill16", 0x4cb0424cdf0745a4ULL},
        {"vgg19 profiled/seed7/kill16", 0xa5e8b692fcc84e2eULL},
        {"alexnet/seed7/kill32", 0xfaa0cc68babd9e34ULL},
        {"vgg19 profiled/seed7/kill32", 0x6cd9dd0af6d8953bULL},
        {"alexnet/seed7/kill32 early", 0x3325fadbecbd8127ULL},
        {"vgg19 profiled/seed7/kill32 early", 0x9adba56d5e99bc2dULL},
        {"alexnet/seed7/rates 1e-2/1e-3", 0x0cc94a7be6da91b7ULL},
        {"alexnet/seed7/rates 0.05/1e-2", 0x26a7f60551750919ULL},
        {"alexnet/seed7/rates 1/0", 0xc39fb98407286351ULL},
        {"alexnet/seed7/throttle", 0x33604b11ede56fdaULL},
        {"alexnet/seed42/kill4", 0xef57e3a586f08aecULL},
        {"alexnet/seed42/kill16", 0xa5671cad6b0b1955ULL},
        {"vgg19 profiled/seed42/kill16", 0x402e30c1c3fdb6b9ULL},
        {"alexnet/seed42/kill32", 0x297311a51a7da150ULL},
        {"vgg19 profiled/seed42/kill32", 0x94b454d82cc0a581ULL},
        {"alexnet/seed42/kill32 early", 0xb014a5476145c93bULL},
        {"vgg19 profiled/seed42/kill32 early", 0x478c2dc0a4612d91ULL},
        {"alexnet/seed42/rates 1e-2/1e-3", 0x0d8dee9733b2e4ccULL},
        {"alexnet/seed42/rates 0.05/1e-2", 0x2474fc626d3cdd9eULL},
        {"alexnet/seed42/rates 1/0", 0xc39fb98407286351ULL},
        {"alexnet/seed42/throttle", 0x48be848384f64feeULL},
    });
}

TEST(ScheduleGolden, PassOrderWitness)
{
    // A dispatch can raise the pool's free units mid-pass (a recursive
    // or host-driven op's addPhase() re-balances the trees). An op the
    // pass already refused must still wait for the next pass. Of 15k
    // further random points, this fault point is the one whose
    // schedule depends on that rule.
    sim::Rng rng(sim::Rng::streamSeed(0x5ca11eeULL, 1258));
    schedfuzz::FuzzPoint point = schedfuzz::drawFuzzPoint(1258, rng, true);
    expectPinned({{"faults 0x5ca11ee/1258",
                   runDigest(point.config, point.workloads())}},
                 {
                     {"faults 0x5ca11ee/1258", 0xeade7a6a617fcd45ULL},
                 });
}

namespace {

constexpr std::size_t kFuzzPoints = 200;
constexpr std::size_t kBuilderPoints = 100;
// The ScheduleFuzz base seeds, so the same points are pinned here.
constexpr std::uint64_t kFuzzSeed = 0xf022ed5eedULL;
constexpr std::uint64_t kFaultFuzzSeed = 0xfa17f022edULL;
constexpr std::uint64_t kBuilderFuzzSeed = 0xb117de2f022ULL;

/** Digest of fuzz points [0, count), one every @p stride. */
std::vector<Digest>
fuzzDigests(const char *family, std::uint64_t base_seed,
            std::size_t count, bool with_faults)
{
    constexpr std::size_t stride = 25;
    std::vector<Digest> actual;
    std::uint64_t combined = sim::fnvOffsetBasis;
    for (std::size_t i = 0; i < count; ++i) {
        sim::Rng rng(sim::Rng::streamSeed(base_seed, i));
        schedfuzz::FuzzPoint point =
            schedfuzz::drawFuzzPoint(i, rng, with_faults);
        combined = sim::hashU64(
            runDigest(point.config, point.workloads()), combined);
        if ((i + 1) % stride == 0) {
            actual.push_back({std::string(family) + "[0, "
                                  + std::to_string(i + 1) + ")",
                              combined});
        }
    }
    return actual;
}

} // namespace

TEST(ScheduleGolden, RandomGraphPoints)
{
    expectPinned(fuzzDigests("random", kFuzzSeed, kFuzzPoints, false), {
        {"random[0, 25)", 0x33d99df39a8dbff9ULL},
        {"random[0, 50)", 0x7e4dd6f32fa5fbb2ULL},
        {"random[0, 75)", 0x6701e6d0be0ed1d9ULL},
        {"random[0, 100)", 0xab57b9b9cfa92d4fULL},
        {"random[0, 125)", 0x82304e88af2abaf4ULL},
        {"random[0, 150)", 0x44b64b67b4b7a3f5ULL},
        {"random[0, 175)", 0x35c632844fa9d10aULL},
        {"random[0, 200)", 0xdf11d5672fca5ddaULL},
    });
}

TEST(ScheduleGolden, RandomFaultPoints)
{
    expectPinned(
        fuzzDigests("random+faults", kFaultFuzzSeed, kFuzzPoints, true), {
        {"random+faults[0, 25)", 0xaab82cdb46423828ULL},
        {"random+faults[0, 50)", 0xe4949f77389958f2ULL},
        {"random+faults[0, 75)", 0x82240d7e69ca00eaULL},
        {"random+faults[0, 100)", 0xe7bb488b4d1f8467ULL},
        {"random+faults[0, 125)", 0xf6accdbec6d4532bULL},
        {"random+faults[0, 150)", 0x08bbe301cb3b6a3cULL},
        {"random+faults[0, 175)", 0x2f8097146dc83d8cULL},
        {"random+faults[0, 200)", 0xfb5842057a49020fULL},
    });
}

TEST(ScheduleGolden, BuilderDagPoints)
{
    std::vector<Digest> actual;
    std::uint64_t combined = sim::fnvOffsetBasis;
    for (std::size_t i = 0; i < kBuilderPoints; ++i) {
        sim::Rng rng(sim::Rng::streamSeed(kBuilderFuzzSeed, i));
        schedfuzz::BuilderPoint point = schedfuzz::drawBuilderPoint(i, rng);
        combined = sim::hashU64(
            runDigest(point.config, {spec(point.graph, point.steps)}),
            combined);
        if ((i + 1) % 25 == 0) {
            actual.push_back(
                {"builder[0, " + std::to_string(i + 1) + ")", combined});
        }
    }
    expectPinned(actual, {
        {"builder[0, 25)", 0x56c4a63e1d3db9e5ULL},
        {"builder[0, 50)", 0x3a70c97ebcfd0a05ULL},
        {"builder[0, 75)", 0x7c453c1a6da5d392ULL},
        {"builder[0, 100)", 0x06d21d8c5015fd39ULL},
    });
}
