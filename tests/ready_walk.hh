/**
 * @file
 * A test-local ready walk over nn::Graph::inputs(): the executability
 * property (acyclic, no dangling dependences) that the builder and
 * model tests check on every graph they build.
 */

#ifndef HPIM_TESTS_READY_WALK_HH
#define HPIM_TESTS_READY_WALK_HH

#include <algorithm>
#include <vector>

#include "nn/graph.hh"

namespace hpim::readywalk {

/** @return the ops not yet @p done whose inputs all are, in id order. */
inline std::vector<nn::OpId>
readyOps(const nn::Graph &g, const std::vector<bool> &done)
{
    std::vector<nn::OpId> ready;
    for (nn::OpId id = 0; id < g.size(); ++id) {
        auto inputs = g.inputs(id);
        if (!done[id]
            && std::all_of(inputs.begin(), inputs.end(),
                           [&done](nn::OpId in) { return done[in]; }))
            ready.push_back(id);
    }
    return ready;
}

} // namespace hpim::readywalk

#endif // HPIM_TESTS_READY_WALK_HH
