/**
 * @file
 * Bring-your-own-model: assemble a training-step graph op by op with
 * the public nn::Builder (docs/GRAPHS.md), round-trip it through the
 * JSON graph format (nn/graph_io.hh) the way `hpim_cli --graph`
 * would, and let the runtime schedule the reloaded copy.
 *
 *   $ ./examples/custom_model
 */

#include <iostream>

#include "baseline/presets.hh"
#include "harness/table_printer.hh"
#include "nn/graph_builder.hh"
#include "nn/graph_io.hh"
#include "rt/hetero_runtime.hh"

int
main()
{
    using namespace hpim;
    using harness::fmt;

    // ---- 1. A two-tower recommendation-style model through the
    //         op-by-op Builder: two dense towers over pre-gathered
    //         embeddings, an elementwise interaction, and a softmax
    //         loss. trainingStep() emits the backward pass and one
    //         ApplyAdam per parameter tensor for us.
    const std::int64_t batch = 256, dim = 128;
    nn::Builder b("two-tower");
    auto user = b.input(nn::TensorShape{batch, dim});
    auto item = b.input(nn::TensorShape{batch, dim});
    auto user_mlp = b.dense(user, 256);
    auto item_mlp = b.dense(item, 256);
    auto score = b.mul(user_mlp, item_mlp);
    nn::Graph graph = b.trainingStep(score, nn::Optimizer::Adam);

    std::cout << "custom graph: " << graph.size() << " ops, "
              << fmt(graph.totalCost().flops() / 1e9, 3)
              << " GFLOP per step\n";

    // ---- 2. Round-trip through the versioned JSON graph format --
    //         exactly what `hpim_cli --dump-graph` writes and
    //         `hpim_cli --graph` / hpim_serve's "graph" payload load.
    //         The loader replays the same add() sequence, so the
    //         structural signature (the memo-cache/journal identity)
    //         survives serialization.
    std::string json = nn::graphToJson(graph);
    nn::Graph reloaded = nn::loadGraph(json);
    std::cout << "\nJSON round trip: " << json.size() << " bytes, "
              << reloaded.size() << " ops, signatures "
              << (reloaded.signature() == graph.signature()
                      ? "identical"
                      : "DIFFER (bug!)")
              << "\n";

    // ---- 3. Full runtime scheduling of the *reloaded* step: the
    //         JSON copy schedules identically to the built one.
    auto config = baseline::makeConfig(baseline::SystemKind::HeteroPim);
    config.steps = 16;
    rt::HeteroRuntime runtime(config);
    auto result = runtime.train(reloaded);
    std::cout << "\nscheduled step: "
              << fmt(result.execution.stepSec * 1e6, 1) << " us, "
              << fmt(result.execution.energyPerStepJ * 1e3, 2)
              << " mJ, placements:";
    for (const auto &[placement, count] :
         result.execution.opsByPlacement) {
        std::cout << "  " << rt::placedOnName(placement) << "="
                  << count;
    }
    std::cout << '\n';
    return 0;
}
