#include "nn/summary.hh"

#include <algorithm>
#include <iomanip>
#include <map>

namespace hpim::nn {

GraphSummary
summarize(const Graph &graph)
{
    GraphSummary summary;
    summary.name = graph.name();
    summary.ops = graph.size();
    summary.criticalPath = graph.criticalPathLength();

    std::map<OpType, SummaryRow> agg;
    for (const Operation &op : graph.ops()) {
        SummaryRow &row = agg[op.type];
        row.type = op.type;
        ++row.invocations;
        row.gflops += op.cost.flops() / 1e9;
        row.gbytes += op.cost.bytes() / 1e9;
    }
    for (auto &[type, row] : agg) {
        summary.totalGflops += row.gflops;
        summary.totalGbytes += row.gbytes;
        summary.rows.push_back(row);
    }
    for (auto &row : summary.rows) {
        row.flopsPct = summary.totalGflops > 0.0
                           ? 100.0 * row.gflops / summary.totalGflops
                           : 0.0;
    }
    std::sort(summary.rows.begin(), summary.rows.end(),
              [](const SummaryRow &a, const SummaryRow &b) {
                  return a.gflops > b.gflops;
              });
    return summary;
}

void
GraphSummary::print(std::ostream &os) const
{
    os << name << ": " << ops << " ops, " << std::fixed
       << std::setprecision(2) << totalGflops << " GFLOP, "
       << totalGbytes << " GB traffic, critical path " << criticalPath
       << "\n";
    os << std::left << std::setw(24) << "  op type" << std::right
       << std::setw(8) << "count" << std::setw(12) << "GFLOP"
       << std::setw(10) << "GB" << std::setw(9) << "flops%" << "\n";
    for (const SummaryRow &row : rows) {
        os << "  " << std::left << std::setw(22) << opName(row.type)
           << std::right << std::setw(8) << row.invocations
           << std::setw(12) << std::setprecision(2) << row.gflops
           << std::setw(10) << row.gbytes << std::setw(8)
           << std::setprecision(1) << row.flopsPct << "%\n";
    }
}

namespace {

const char *
classColor(OffloadClass cls)
{
    switch (cls) {
      case OffloadClass::FixedFunction:   return "#8dd3c7";
      case OffloadClass::Recursive:       return "#ffffb3";
      case OffloadClass::ProgrammableOnly: return "#bebada";
      case OffloadClass::DataMovement:    return "#fb8072";
    }
    return "#ffffff";
}

std::string
escapeLabel(std::string_view label)
{
    std::string out;
    for (char c : label) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

} // namespace

void
exportDot(const Graph &graph, std::ostream &os)
{
    os << "digraph \"" << escapeLabel(graph.name()) << "\" {\n"
       << "  rankdir=TB;\n"
       << "  node [shape=box, style=filled, fontsize=10];\n";
    for (const Operation &op : graph.ops()) {
        os << "  n" << op.id << " [label=\""
           << escapeLabel(graph.label(op.id)) << "\", fillcolor=\""
           << classColor(opTraits(op.type).offloadClass) << "\"];\n";
    }
    for (const Operation &op : graph.ops()) {
        for (OpId in : graph.inputs(op.id))
            os << "  n" << in << " -> n" << op.id << ";\n";
    }
    os << "}\n";
}

} // namespace hpim::nn
