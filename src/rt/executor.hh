/**
 * @file
 * The heterogeneous-PIM execution engine.
 *
 * A discrete-event list scheduler over one or more training workloads:
 *  - the host CPU executes kernels one at a time (TF-style inter-op
 *    serialization; intra-op uses the whole socket);
 *  - each programmable PIM executes one kernel at a time;
 *  - the fixed-function pool is a *malleable* resource: active phases
 *    hold whole reduction trees and may gain/lose trees at any event
 *    boundary -- this is what makes the operation pipeline effective.
 *
 * Scheduling follows the paper's three principles (SectionIII-C):
 * favor fixed-function PIMs, avoid CPU idling by keeping candidates on
 * PIMs, and respect data dependences. RC lets Recursive-class ops run
 * on the programmable PIM with their multiply/add core dispatched to
 * the pool; OP admits ops from the next training step while the
 * current one drains.
 */

#ifndef HPIM_RT_EXECUTOR_HH
#define HPIM_RT_EXECUTOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "nn/graph.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "pim/status_registers.hh"
#include "rt/execution_report.hh"
#include "rt/offload_selector.hh"
#include "rt/schedule_trace.hh"
#include "rt/system_config.hh"
#include "sim/event_queue.hh"
#include "sim/fault_model.hh"

namespace hpim::rt {

/** One workload to run (co-run studies pass several). */
struct WorkloadSpec
{
    const hpim::nn::Graph *graph = nullptr;
    std::uint32_t steps = 1;
    /**
     * Full PIM management (profiling-based candidates + all devices)
     * when true; when false the workload is a guest restricted to the
     * CPU and programmable PIM at lower priority (paper SectionVI-F).
     */
    bool pimManaged = true;
};

/** The executor. */
class Executor
{
  public:
    /**
     * @param config system description
     * @param selection offload candidates (nullptr = offload
     *        everything eligible; used by non-scheduled baselines)
     */
    explicit Executor(const SystemConfig &config,
                      const OffloadSelection *selection = nullptr);

    ~Executor();

    /** Attach a schedule recorder (must outlive run()). */
    void attachTrace(ScheduleTrace *trace) { _trace = trace; }

    /** Run the workloads to completion and report. */
    ExecutionReport run(const std::vector<WorkloadSpec> &workloads);

    /** Convenience: one pim-managed workload. */
    ExecutionReport
    run(const hpim::nn::Graph &graph, std::uint32_t steps = 0)
    {
        WorkloadSpec spec;
        spec.graph = &graph;
        spec.steps = steps == 0 ? _config.steps : steps;
        return run({spec});
    }

  private:
    struct OpKey
    {
        std::uint32_t workload;
        std::uint32_t step;
        hpim::nn::OpId op;
    };

    /**
     * Placement-relevant facts about one op, precomputed per workload
     * when run() starts, so decidePlacement() never chases Graph::op
     * -> opTraits -> CpuModel -> selection-set lookups.
     */
    struct OpMeta
    {
        hpim::nn::OffloadClass cls = hpim::nn::OffloadClass::FixedFunction;
        bool candidate = true; ///< offload candidate per _selection
        /** CPU run time is under config.cpuFallbackThresholdSec. */
        bool smallOnCpu = false;
        std::uint32_t unitsPerLane = 1;
        /** _ready index of the op's undegraded truth table. */
        std::uint32_t bucket = 0;
    };

    /**
     * The device-availability atoms decidePlacement() reads, as bits
     * of a 3-bit index: the CPU is idle, a programmable PIM is idle, a
     * reduction tree of the op's width is free in the fixed pool.
     */
    enum Atom : unsigned { CpuFree = 1, ProgrFree = 2, TreeFree = 4 };

    /** A ready op in dispatch priority order. */
    struct ReadyOp
    {
        /** Guests last, then step, then op id: one packed key. */
        std::uint64_t rank = 0;
        /** Push order: breaks rank ties between co-run workloads. */
        std::uint64_t seq = 0;
        OpKey key{};

        bool
        operator<(const ReadyOp &other) const
        {
            return rank != other.rank ? rank < other.rank
                                      : seq < other.seq;
        }
    };

    /**
     * The ready ops sharing one placement truth table and tree width:
     * one atom test opens or closes the whole bucket. Bit a of
     * @ref table is set when decidePlacement() places the op under
     * atoms a; @ref width is 0 when the table ignores the tree atom.
     */
    struct ReadyBucket
    {
        std::uint8_t table = 0;
        std::uint32_t width = 0;
        std::vector<ReadyOp> ops; ///< sorted by priority
    };

    struct OpState
    {
        std::uint32_t remainingDeps = 0;
        bool ready = false;
        bool running = false;
        bool done = false;
    };

    /** How an offload attempt failed. */
    enum class FailKind { Transient, Stall, Evicted };

    // Joint completion of RC / host-driven ops (control part on the
    // programmable PIM or CPU + fixed-pool part).
    struct Join
    {
        bool controlDone = false;
        bool fixedDone = false;
        /** A fault poisoned either half: the joint completion becomes
         *  a failed attempt of kind @ref failKind instead of done. */
        bool faulty = false;
        FailKind failKind = FailKind::Transient;
    };

    /**
     * Dense per-step book-keeping, SoA indexed by op id. Replaces the
     * packed-OpKey-keyed hash maps (joins, attempts, degradation
     * levels, running placements, trace tokens) the hot paths used to
     * probe: an op id is already a dense index, so each lookup becomes
     * one vector access instead of a hash + probe chain, and a step's
     * records die with the step instead of churning a process-wide
     * table. Every side array is empty until its feature first writes
     * it (joins: RC/host-driven ops; attempts/degraded/placement:
     * faults; traceToken: attached ScheduleTrace), so fault-free
     * untraced runs allocate only `ops`. The *Live bytes distinguish
     * "slot exists" from a default value, standing in for the old
     * maps' find()/erase().
     */
    struct StepState
    {
        std::vector<OpState> ops;
        std::vector<Join> joins;
        std::vector<std::uint8_t> joinLive;
        std::vector<std::uint32_t> attempts;
        std::vector<std::uint32_t> degraded;
        std::vector<PlacedOn> placement;
        std::vector<std::uint8_t> placementLive;
        std::vector<std::size_t> traceToken;
        std::vector<std::uint8_t> traceLive;
    };

    struct FixedPhase
    {
        OpKey key;
        double remainingFlops = 0.0;
        std::uint32_t treeUnits = 1; ///< units per reduction tree
        std::uint32_t maxTrees = 1;
        double intensity = 1e9;      ///< flops per byte
        std::uint32_t alloc = 0;     ///< currently allocated units
        /** Phase is half of a joined (RC / host-driven) op. */
        bool joined = false;
        /** Injected transient fault: completing re-dispatches the op. */
        bool faulty = false;
        double startSec = 0.0;
        /** Integral of allocated units over this phase's lifetime;
         *  feeds the per-span energy annotation in the obs trace. */
        double unitSeconds = 0.0;
    };

    struct WorkloadState
    {
        WorkloadSpec spec;
        std::vector<OpMeta> meta;                ///< [op]
        std::vector<StepState> steps;            ///< per step
        std::vector<std::uint32_t> remainingOps; ///< per step
        std::uint32_t completedSteps = 0;
        std::uint32_t seededSteps = 0;
    };

    // ---- Scheduling.
    void seedStep(std::uint32_t w, std::uint32_t step);
    void dispatchAll();
    /** Place @p key, taken from an open bucket; decidePlacement()
     *  refusing it is a bug (panic). */
    void dispatch(const OpKey &key);
    /**
     * Placement of @p key at degradation @p level under @p atoms. Of
     * the op it reads only OpMeta's class, candidacy and CPU-fallback
     * size (run() shares truth tables between ops on that basis).
     */
    std::optional<PlacedOn> decidePlacement(const OpKey &key,
                                            std::uint32_t level,
                                            unsigned atoms) const;
    /** Ladder level decidePlacement() applies to @p key right now. */
    std::uint32_t placementLevel(const OpKey &key) const;
    /** The current atoms for an op whose trees are @p width wide. */
    unsigned atoms(std::uint32_t width) const;
    /** decidePlacement()'s answer under each of the 8 atom sets. */
    std::uint8_t placementTable(const OpKey &key,
                                std::uint32_t level) const;
    /** Index of the bucket for @p table and @p width (made on first
     *  use). */
    std::uint32_t bucketFor(std::uint8_t table, std::uint32_t width);
    void pushReady(const OpKey &key);
    /** Re-derive every ready op's bucket (the pool just died). */
    void rebucketReady();
    void startOnCpu(const OpKey &key);
    void startOnProgr(const OpKey &key, bool recursive);
    void startOnFixed(const OpKey &key);
    void startHostDriven(const OpKey &key);
    void addPhase(const OpKey &key, double flops, double intensity,
                  std::uint32_t tree_units, std::uint32_t max_trees,
                  bool joined, bool faulty);
    void onOpComplete(const OpKey &key);
    void onJoinedPartDone(const OpKey &key, bool fixed_part);

    // ---- Resilience (active only when _config.faults.enabled; every
    // hook below is a no-op / never reached with faults off, keeping
    // fault-free runs bit-identical -- see docs/RESILIENCE.md).
    bool faultsOn() const { return _fault_model != nullptr; }
    void setupFaultLayer();
    void scheduleHealthEvents();
    std::optional<PlacedOn> ladderPlacement(const OpKey &key,
                                            std::uint32_t level,
                                            unsigned atoms) const;
    void failAttempt(const OpKey &key, FailKind kind);
    void onBankFailed(std::uint32_t bank);
    void onThrottle(std::size_t index, bool start);
    void refreshFixedCapacity();
    void recordCapacity();
    void evictDeadPoolPhases();
    bool allComplete() const;

    // ---- Fixed pool mechanics.
    void poolDrain();        ///< account work done since last update
    void poolReallocate();   ///< redistribute units over phases
    void poolScheduleNext(); ///< (re)schedule the pool event
    void onPoolEvent();
    double phaseRate(const FixedPhase &phase) const;

    // ---- Helpers.
    const hpim::nn::Operation &op(const OpKey &key) const;
    std::string label(const OpKey &key) const;
    OpState &state(const OpKey &key);
    StepState &stepState(const OpKey &key);
    /** Fresh live join slot for @p key (sizes the arrays on demand). */
    Join &makeJoin(const OpKey &key);
    std::uint32_t stepWindow(const WorkloadState &w) const;
    double nowSec() const;
    hpim::sim::Tick toTick(double seconds) const;

    SystemConfig _config;
    /** mem::peakInternalBandwidth of the default stack, bytes/s. */
    double _internal_bw;
    const OffloadSelection *_selection;
    hpim::cpu::CpuModel _cpu_model;

    hpim::sim::EventQueue _queue;
    std::vector<WorkloadState> _workloads;
    /** Ready, not yet placed ops, bucketed by what can place them. */
    std::vector<ReadyBucket> _ready;
    std::uint64_t _ready_seq = 0; ///< next ReadyOp::seq

    // Device state.
    bool _cpu_busy = false;
    std::uint32_t _progr_free = 0;
    std::vector<FixedPhase> _phases;
    std::uint32_t _fixed_free = 0;
    hpim::sim::Tick _pool_last_update = 0;
    class PoolEvent;
    std::unique_ptr<PoolEvent> _pool_event;

    /** Human-readable "w:step:op" form, for trace/obs output only. */
    static std::string keyStr(const OpKey &key);

    // Resilience state (see docs/RESILIENCE.md). The capacity pair is
    // maintained even with faults off (then both simply stay at the
    // configured pool size, preserving the fault-free schedule).
    std::unique_ptr<hpim::sim::FaultModel> _fault_model;
    std::unique_ptr<hpim::pim::StatusRegisterFile> _regs;
    std::uint32_t _fixed_capacity = 0; ///< allocatable (Healthy) units
    std::uint32_t _fixed_alive = 0;    ///< non-Failed units
    // (Per-op attempt counts, degradation levels and running
    // placements live in StepState's dense arrays.)

    // Accounting.
    ExecutionReport _report;
    double _op_accum = 0.0;
    double _dm_accum = 0.0;
    double _sync_accum = 0.0;

    // Optional schedule recording.
    ScheduleTrace *_trace = nullptr;

    // ---- Observability (obs/). Each hook is one atomic load when no
    // session/registry is attached, so untraced runs stay bit-identical.
    /** True when a trace session or metrics registry is attached;
     *  call sites use this to skip building argument vectors. */
    static bool
    obsActive()
    {
        return hpim::obs::TraceSession::current() != nullptr
               || hpim::obs::MetricsRegistry::current() != nullptr;
    }
    /** Record a completed device span [start, now] in the obs trace. */
    void obsSpan(const char *track_name, const OpKey &key,
                 double start_sec, double energy_j,
                 std::vector<hpim::obs::TraceArg> extra = {});
    /** Record an instant event (fault, retry, degradation, ...). */
    void obsInstant(const char *track_name, std::string name,
                    std::vector<hpim::obs::TraceArg> args = {});
    /** Bump a named counter in the attached MetricsRegistry. */
    static void obsCount(const char *name, std::uint64_t n = 1);
};

} // namespace hpim::rt

#endif // HPIM_RT_EXECUTOR_HH
