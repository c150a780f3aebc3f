#include "nn/graph_io.hh"

#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "harness/json.hh"
#include "harness/json_writer.hh"

namespace hpim::nn {

namespace {

using harness::json::Value;

/** The field names of one serialized op, in emission order. */
constexpr const char *kOpFields[] = {
    "type",       "label",          "muls",
    "adds",       "specials",       "bytes_read",
    "bytes_written", "units_per_lane", "lanes",
};

std::string
opField(std::size_t index, const char *name)
{
    return "ops[" + std::to_string(index) + "]." + name;
}

/** Reject duplicate and unknown keys; require the known set. */
void
checkObjectKeys(const Value &object, std::size_t index, bool is_op)
{
    auto known = [&](const std::string &key) {
        if (!is_op)
            return key == "schema_version" || key == "name"
                   || key == "ops";
        if (key == "inputs")
            return true;
        for (const char *name : kOpFields)
            if (key == name)
                return true;
        return false;
    };
    auto path = [&](const std::string &key) {
        return is_op ? opField(index, key.c_str()) : key;
    };
    for (std::size_t i = 0; i < object.object.size(); ++i) {
        const std::string &key = object.object[i].first;
        if (!known(key))
            throw GraphParseError("unknown field",
                                  object.object[i].second.line,
                                  path(key));
        for (std::size_t j = i + 1; j < object.object.size(); ++j)
            if (object.object[j].first == key)
                throw GraphParseError("duplicate field",
                                      object.object[j].second.line,
                                      path(key));
    }
}

const Value &
requireField(const Value &object, const std::string &key,
             const std::string &path)
{
    const Value *found = object.find(key);
    if (!found)
        throw GraphParseError("missing field", object.line, path);
    return *found;
}

double
parseCost(const Value &object, std::size_t index, const char *name)
{
    std::string path = opField(index, name);
    const Value &field = requireField(object, name, path);
    if (!field.isNumber())
        throw GraphParseError("expected a number", field.line, path);
    double value = field.asDouble();
    if (!std::isfinite(value))
        throw GraphParseError("expected a finite number", field.line,
                              path);
    if (value < 0.0)
        throw GraphParseError("expected a non-negative number",
                              field.line, path);
    return value;
}

/** Parse ops[@p index] and append it to @p graph; @p inputs is
 *  scratch reused across ops, so a parsed op allocates nothing. */
void
parseOp(const Value &node, std::size_t index, Graph &graph,
        std::vector<OpId> &inputs)
{
    if (!node.isObject())
        throw GraphParseError("expected an object", node.line,
                              "ops[" + std::to_string(index) + "]");
    checkObjectKeys(node, index, /*is_op=*/true);

    std::string type_path = opField(index, "type");
    const Value &type = requireField(node, "type", type_path);
    if (!type.isString())
        throw GraphParseError("expected a string", type.line,
                              type_path);
    auto resolved = opTypeFromName(type.asString());
    if (!resolved)
        throw GraphParseError("unknown op type '" + type.asString()
                                  + "'",
                              type.line, type_path);
    OpType op_type = *resolved;

    std::string label_path = opField(index, "label");
    const Value &label = requireField(node, "label", label_path);
    if (!label.isString())
        throw GraphParseError("expected a string", label.line,
                              label_path);
    if (label.asString().empty())
        throw GraphParseError("expected a non-empty label", label.line,
                              label_path);

    CostStructure cost;
    cost.muls = parseCost(node, index, "muls");
    cost.adds = parseCost(node, index, "adds");
    cost.specials = parseCost(node, index, "specials");
    cost.bytesRead = parseCost(node, index, "bytes_read");
    cost.bytesWritten = parseCost(node, index, "bytes_written");

    std::string units_path = opField(index, "units_per_lane");
    const Value &units = requireField(node, "units_per_lane",
                                      units_path);
    if (!units.isNumber())
        throw GraphParseError("expected a number", units.line,
                              units_path);
    std::uint64_t units_value;
    try {
        units_value = units.asUInt64();
    } catch (const harness::json::Error &) {
        throw GraphParseError("expected a non-negative integer",
                              units.line, units_path);
    }
    if (units_value > std::numeric_limits<std::uint32_t>::max())
        throw GraphParseError("value out of 32-bit range", units.line,
                              units_path);
    FixedParallelism parallelism;
    parallelism.unitsPerLane = static_cast<std::uint32_t>(units_value);

    parallelism.lanes = parseCost(node, index, "lanes");

    std::string inputs_path = opField(index, "inputs");
    const Value &deps = requireField(node, "inputs", inputs_path);
    if (!deps.isArray())
        throw GraphParseError("expected an array", deps.line,
                              inputs_path);
    inputs.clear();
    for (const Value &dep : deps.array) {
        if (!dep.isNumber())
            throw GraphParseError("expected an op index", dep.line,
                                  inputs_path);
        std::uint64_t dep_value;
        try {
            dep_value = dep.asUInt64();
        } catch (const harness::json::Error &) {
            throw GraphParseError("expected a non-negative op index",
                                  dep.line, inputs_path);
        }
        if (dep_value >= index)
            throw GraphParseError(
                "input " + std::to_string(dep_value)
                    + " does not precede op "
                    + std::to_string(index)
                    + " (ops must be topologically ordered)",
                dep.line, inputs_path);
        inputs.push_back(static_cast<OpId>(dep_value));
    }
    graph.add(op_type, label.asString(), cost, parallelism, inputs);
}

} // namespace

void
saveGraph(std::ostream &os, const Graph &graph)
{
    harness::json::Writer w(os);
    w.beginObject();
    w.field("schema_version",
            static_cast<std::int64_t>(graphSchemaVersion));
    w.field("name", graph.name());
    w.key("ops").beginArray();
    for (const Operation &op : graph.ops()) {
        w.beginObject();
        w.field("type", opName(op.type));
        w.field("label", graph.label(op.id));
        w.field("muls", op.cost.muls);
        w.field("adds", op.cost.adds);
        w.field("specials", op.cost.specials);
        w.field("bytes_read", op.cost.bytesRead);
        w.field("bytes_written", op.cost.bytesWritten);
        w.field("units_per_lane", op.parallelism.unitsPerLane);
        w.field("lanes", op.parallelism.lanes);
        w.key("inputs").beginArray();
        for (OpId dep : graph.inputs(op.id))
            w.value(dep);
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

std::string
graphToJson(const Graph &graph)
{
    std::ostringstream os;
    saveGraph(os, graph);
    return os.str();
}

Graph
loadGraph(const std::string &text)
{
    Value root;
    try {
        root = harness::json::parse(text);
    } catch (const harness::json::Error &err) {
        throw GraphParseError(err.what(), err.line);
    }

    if (!root.isObject())
        throw GraphParseError("expected a graph object", root.line);
    checkObjectKeys(root, 0, /*is_op=*/false);

    const Value &version = requireField(root, "schema_version",
                                        "schema_version");
    std::int64_t version_value;
    try {
        version_value = version.asInt64();
    } catch (const harness::json::Error &) {
        throw GraphParseError("expected an integer", version.line,
                              "schema_version");
    }
    if (version_value != graphSchemaVersion)
        throw GraphParseError(
            "unsupported schema version "
                + std::to_string(version_value) + " (expected "
                + std::to_string(graphSchemaVersion) + ")",
            version.line, "schema_version");

    const Value &name = requireField(root, "name", "name");
    if (!name.isString())
        throw GraphParseError("expected a string", name.line, "name");
    if (name.asString().empty())
        throw GraphParseError("expected a non-empty graph name",
                              name.line, "name");

    const Value &ops = requireField(root, "ops", "ops");
    if (!ops.isArray())
        throw GraphParseError("expected an array", ops.line, "ops");
    if (ops.array.empty())
        throw GraphParseError("expected at least one op", ops.line,
                              "ops");
    if (ops.array.size() >= static_cast<std::size_t>(invalidOp))
        throw GraphParseError("too many ops", ops.line, "ops");

    Graph graph(name.asString());
    std::vector<OpId> inputs;
    for (std::size_t i = 0; i < ops.array.size(); ++i)
        parseOp(ops.array[i], i, graph, inputs);
    return graph;
}

Graph
loadGraphFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw GraphParseError("cannot open graph file '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        throw GraphParseError("cannot read graph file '" + path + "'");
    try {
        return loadGraph(text.str());
    } catch (const GraphParseError &err) {
        throw GraphParseError::inFile(err, path);
    }
}

void
saveGraphFile(const std::string &path, const Graph &graph)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        throw GraphParseError("cannot open graph file '" + path
                              + "' for writing");
    saveGraph(out, graph);
    out << '\n';
    out.flush();
    if (!out)
        throw GraphParseError("cannot write graph file '" + path + "'");
}

} // namespace hpim::nn
