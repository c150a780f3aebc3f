/**
 * @file
 * Schedule tracing: a per-op timeline of the executor's placement
 * decisions, exportable as CSV. Invaluable for understanding why a
 * schedule behaves as it does -- e.g. watching next-step ops slide
 * into idle fixed-function units when OP is enabled. For a
 * chrome://tracing / Perfetto view, attach an obs::TraceSession
 * around the run and export that instead.
 */

#ifndef HPIM_RT_SCHEDULE_TRACE_HH
#define HPIM_RT_SCHEDULE_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "rt/execution_report.hh"

namespace hpim::rt {

/** One scheduled interval. */
struct TraceEntry
{
    std::string label;
    std::uint32_t opId = 0; ///< op id within its workload's graph
    PlacedOn placement = PlacedOn::Cpu;
    std::uint32_t workload = 0;
    std::uint32_t step = 0;
    double startSec = 0.0;
    double endSec = 0.0;
    /** The attempt faulted / stalled / was evicted and the op was
     *  re-dispatched; the interval still records real device
     *  occupancy, but it is not the op's completing execution. */
    bool aborted = false;

    double durationSec() const { return endSec - startSec; }
};

/** Recorder the executor fills when attached. */
class ScheduleTrace
{
  public:
    /** Record an op start; returns a token for the matching end. */
    std::size_t begin(std::string label, std::uint32_t op_id,
                      PlacedOn placement, std::uint32_t workload,
                      std::uint32_t step, double start_sec);

    /** Close the interval opened by @p token. */
    void end(std::size_t token, double end_sec);

    /** Close the interval as a faulted attempt (see
     *  TraceEntry::aborted); the op will appear again when retried. */
    void abort(std::size_t token, double end_sec);

    const std::vector<TraceEntry> &entries() const { return _entries; }
    std::size_t size() const { return _entries.size(); }

    /** "label,placement,workload,step,start,end,duration" rows. */
    void dumpCsv(std::ostream &os) const;

    /** Busy seconds per placement kind. */
    double busySeconds(PlacedOn placement) const;

  private:
    std::vector<TraceEntry> _entries;
};

} // namespace hpim::rt

#endif // HPIM_RT_SCHEDULE_TRACE_HH
