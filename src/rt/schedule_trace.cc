#include "rt/schedule_trace.hh"

#include <iomanip>

#include "sim/logging.hh"

namespace hpim::rt {

std::size_t
ScheduleTrace::begin(std::string label, std::uint32_t op_id,
                     PlacedOn placement, std::uint32_t workload,
                     std::uint32_t step, double start_sec)
{
    TraceEntry entry;
    entry.label = std::move(label);
    entry.opId = op_id;
    entry.placement = placement;
    entry.workload = workload;
    entry.step = step;
    entry.startSec = start_sec;
    entry.endSec = start_sec; // open until end()
    _entries.push_back(std::move(entry));
    return _entries.size() - 1;
}

void
ScheduleTrace::end(std::size_t token, double end_sec)
{
    panic_if(token >= _entries.size(), "bad trace token");
    panic_if(end_sec < _entries[token].startSec,
             "trace interval ends before it starts");
    _entries[token].endSec = end_sec;
}

void
ScheduleTrace::abort(std::size_t token, double end_sec)
{
    end(token, end_sec);
    _entries[token].aborted = true;
}

void
ScheduleTrace::dumpCsv(std::ostream &os) const
{
    os << "label,placement,workload,step,start_s,end_s,duration_s\n";
    for (const TraceEntry &e : _entries) {
        os << e.label << ',' << placedOnName(e.placement) << ','
           << e.workload << ',' << e.step << ','
           << std::setprecision(9) << e.startSec << ',' << e.endSec
           << ',' << e.durationSec() << '\n';
    }
}

double
ScheduleTrace::busySeconds(PlacedOn placement) const
{
    double total = 0.0;
    for (const TraceEntry &e : _entries) {
        if (e.placement == placement)
            total += e.durationSec();
    }
    return total;
}

} // namespace hpim::rt
