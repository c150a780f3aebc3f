/**
 * @file
 * Unit tests for the versioned JSON graph format (nn/graph_io.hh):
 * byte-identical save/load round trips, signature preservation (the
 * memo-cache/journal identity), and the strict loader -- every
 * malformed document must produce a typed GraphParseError naming the
 * offending field and line, never a crash or a silent default.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "nn/graph_builder.hh"
#include "nn/graph_io.hh"
#include "nn/models.hh"

using namespace hpim::nn;

namespace {

Graph
smallTrainingGraph()
{
    Builder b("tiny");
    auto x = b.input(TensorShape{2, 8, 8, 3});
    x = b.conv2d(x, 3, 4, 1);
    x = b.maxPool(x, 2, 2);
    x = b.flatten(x);
    x = b.dense(x, 10, false);
    return b.trainingStep(x, Optimizer::Adam);
}

/** Expect loadGraph(text) to throw naming @p field. */
void
expectRejected(const std::string &text, const std::string &field,
               const char *note)
{
    try {
        loadGraph(text);
        FAIL() << note << ": malformed document was accepted";
    } catch (const GraphParseError &e) {
        EXPECT_EQ(e.field, field) << note << ": " << e.what();
        if (!field.empty())
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << note << ": what() must name the field";
    }
}

/** A valid one-op document to mutate from. */
std::string
validDoc(const std::string &op_overrides = "")
{
    std::string op = "{\"type\":\"MatMul\",\"label\":\"l/MatMul\","
                     "\"muls\":8,\"adds\":8,\"specials\":0,"
                     "\"bytes_read\":64,\"bytes_written\":32,"
                     "\"units_per_lane\":4,\"lanes\":2,\"inputs\":[]";
    if (!op_overrides.empty())
        op += "," + op_overrides;
    op += "}";
    return "{\"schema_version\":1,\"name\":\"t\",\"ops\":[" + op
           + "]}";
}

} // namespace

// ---------------------------------------------------------- round trips

TEST(GraphIo, SaveLoadRoundTripIsByteIdentical)
{
    Graph g = smallTrainingGraph();
    std::string first = graphToJson(g);
    Graph reloaded = loadGraph(first);
    std::string second = graphToJson(reloaded);
    EXPECT_EQ(first, second);
}

TEST(GraphIo, RoundTripPreservesStructureAndSignature)
{
    Graph g = smallTrainingGraph();
    Graph r = loadGraph(graphToJson(g));
    ASSERT_EQ(r.size(), g.size());
    EXPECT_EQ(r.name(), g.name());
    EXPECT_EQ(r.signature(), g.signature());
    for (OpId id = 0; id < g.size(); ++id) {
        EXPECT_EQ(r.op(id).type, g.op(id).type);
        EXPECT_EQ(r.label(id), g.label(id));
        EXPECT_TRUE(std::ranges::equal(r.inputs(id), g.inputs(id)));
        EXPECT_EQ(r.op(id).cost.muls, g.op(id).cost.muls);
        EXPECT_EQ(r.op(id).cost.bytesRead, g.op(id).cost.bytesRead);
        EXPECT_EQ(r.op(id).parallelism.unitsPerLane,
                  g.op(id).parallelism.unitsPerLane);
        EXPECT_EQ(r.op(id).parallelism.lanes,
                  g.op(id).parallelism.lanes);
    }
}

TEST(GraphIo, BuiltInModelsSurviveTheRoundTrip)
{
    // The --graph <--> --model byte-identity anchor: a dumped built-in
    // reloads with the same signature, so the same memo-cache identity
    // and the same simulation results.
    for (ModelId model : {ModelId::AlexNet, ModelId::Lstm}) {
        Graph g = buildModel(model);
        Graph r = loadGraph(graphToJson(g));
        EXPECT_EQ(r.signature(), g.signature())
            << modelName(model);
        EXPECT_EQ(graphToJson(r), graphToJson(g));
    }
}

TEST(GraphIo, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "graph_io_rt.json";
    Graph g = smallTrainingGraph();
    saveGraphFile(path, g);
    Graph r = loadGraphFile(path);
    EXPECT_EQ(r.signature(), g.signature());
    std::remove(path.c_str());
}

// -------------------------------------------------------- typed errors

TEST(GraphIo, RejectsNonJson)
{
    try {
        loadGraph("not json at all");
        FAIL();
    } catch (const GraphParseError &e) {
        EXPECT_GT(e.line, 0);
    }
}

TEST(GraphIo, RejectsRootShapeErrors)
{
    expectRejected("[1,2,3]", "", "root must be an object");
    expectRejected("{\"name\":\"t\",\"ops\":[]}", "schema_version",
                   "missing schema_version");
    expectRejected(
        "{\"schema_version\":99,\"name\":\"t\",\"ops\":[]}",
        "schema_version", "unsupported version");
    expectRejected(
        "{\"schema_version\":1.5,\"name\":\"t\",\"ops\":[]}",
        "schema_version", "non-integer version");
    expectRejected("{\"schema_version\":1,\"ops\":[]}", "name",
                   "missing name");
    expectRejected("{\"schema_version\":1,\"name\":\"\",\"ops\":[]}",
                   "name", "empty name");
    expectRejected("{\"schema_version\":1,\"name\":\"t\"}", "ops",
                   "missing ops");
    expectRejected("{\"schema_version\":1,\"name\":\"t\",\"ops\":[]}",
                   "ops", "empty ops");
    expectRejected("{\"schema_version\":1,\"name\":\"t\",\"ops\":{}}",
                   "ops", "ops must be an array");
    expectRejected("{\"schema_version\":1,\"name\":\"t\",\"ops\":[],"
                   "\"extra\":0}",
                   "extra", "unknown root field");
}

TEST(GraphIo, RejectsOpShapeErrors)
{
    expectRejected("{\"schema_version\":1,\"name\":\"t\",\"ops\":[5]}",
                   "ops[0]", "op must be an object");

    std::string no_type = validDoc();
    no_type.replace(no_type.find("\"type\":\"MatMul\","), 16, "");
    expectRejected(no_type, "ops[0].type", "missing type");

    std::string bad_type = validDoc();
    bad_type.replace(bad_type.find("MatMul"), 6, "Nonsense");
    expectRejected(bad_type, "ops[0].type", "unknown op type");

    std::string bad_label = validDoc();
    bad_label.replace(bad_label.find("l/MatMul"), 8, "");
    expectRejected(bad_label, "ops[0].label", "empty label");

    std::string bad_cost = validDoc();
    bad_cost.replace(bad_cost.find("\"muls\":8"), 8,
                     "\"muls\":\"x\"");
    expectRejected(bad_cost, "ops[0].muls", "non-number cost");

    std::string neg_cost = validDoc();
    neg_cost.replace(neg_cost.find("\"adds\":8"), 8, "\"adds\":-1");
    expectRejected(neg_cost, "ops[0].adds", "negative cost");

    std::string bad_units = validDoc();
    bad_units.replace(bad_units.find("\"units_per_lane\":4"), 18,
                      "\"units_per_lane\":4.5");
    expectRejected(bad_units, "ops[0].units_per_lane",
                   "fractional units");

    std::string huge_units = validDoc();
    huge_units.replace(huge_units.find("\"units_per_lane\":4"), 18,
                       "\"units_per_lane\":4294967296");
    expectRejected(huge_units, "ops[0].units_per_lane",
                   "units out of 32-bit range");

    expectRejected(validDoc("\"bogus\":1"), "ops[0].bogus",
                   "unknown op field");
    expectRejected(validDoc("\"lanes\":3"), "ops[0].lanes",
                   "duplicate op field");
}

TEST(GraphIo, RejectsNonTopologicalInputs)
{
    std::string forward_ref = validDoc();
    forward_ref.replace(forward_ref.find("\"inputs\":[]"), 11,
                        "\"inputs\":[0]");
    expectRejected(forward_ref, "ops[0].inputs",
                   "self/forward reference");

    std::string neg_input = validDoc();
    neg_input.replace(neg_input.find("\"inputs\":[]"), 11,
                      "\"inputs\":[-1]");
    expectRejected(neg_input, "ops[0].inputs", "negative input");
}

TEST(GraphIo, ErrorsCarryLineNumbers)
{
    std::string doc = "{\n\"schema_version\":1,\n\"name\":\"t\",\n"
                      "\"ops\":\n[\n{\"type\":\"Nope\"}\n]}";
    try {
        loadGraph(doc);
        FAIL();
    } catch (const GraphParseError &e) {
        EXPECT_EQ(e.field, "ops[0].type");
        EXPECT_EQ(e.line, 6);
        EXPECT_NE(std::string(e.what()).find("line 6"),
                  std::string::npos);
    }
}

TEST(GraphIo, MissingFileIsTypedError)
{
    try {
        loadGraphFile("/nonexistent/definitely_missing.json");
        FAIL();
    } catch (const GraphParseError &e) {
        EXPECT_NE(std::string(e.what()).find("cannot open"),
                  std::string::npos);
    }
}

TEST(GraphIo, FileErrorsNameTheFile)
{
    std::string path = ::testing::TempDir() + "graph_io_bad.json";
    {
        std::ofstream out(path);
        out << "{\"schema_version\":2,\"name\":\"t\",\"ops\":[]}";
    }
    try {
        loadGraphFile(path);
        FAIL();
    } catch (const GraphParseError &e) {
        EXPECT_EQ(e.field, "schema_version");
        EXPECT_NE(std::string(e.what()).find(path),
                  std::string::npos);
    }
    std::remove(path.c_str());
}
