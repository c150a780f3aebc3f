#include "rt/executor.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "mem/hmc_stack.hh"
#include "model/thermal.hh"
#include "obs/metrics.hh"
#include "pim/placement.hh"
#include "sim/deadline.hh"
#include "sim/logging.hh"

namespace hpim::rt {

using hpim::nn::Graph;
using hpim::nn::OffloadClass;
using hpim::nn::Operation;
using hpim::nn::OpId;
using hpim::nn::opTraits;
using hpim::sim::Tick;

namespace {

constexpr double kWorkEpsilon = 1.0; // flops considered "done"

/** OffloadClass enumerator names, for diagnostics. */
constexpr const char *offloadClassNames[] = {
    "FixedFunction", "Recursive", "ProgrammableOnly", "DataMovement"};

} // namespace

std::string
placedOnName(PlacedOn placement)
{
    switch (placement) {
      case PlacedOn::Cpu:             return "cpu";
      case PlacedOn::FixedPool:       return "fixed";
      case PlacedOn::ProgrPim:        return "progr";
      case PlacedOn::ProgrRecursive:  return "progr+rc";
      case PlacedOn::FixedHostDriven: return "fixed(host)";
    }
    panic("unknown placement");
}

bool
placedOnFromName(const std::string &name, PlacedOn &out)
{
    for (PlacedOn placement :
         {PlacedOn::Cpu, PlacedOn::FixedPool, PlacedOn::ProgrPim,
          PlacedOn::ProgrRecursive, PlacedOn::FixedHostDriven}) {
        if (placedOnName(placement) == name) {
            out = placement;
            return true;
        }
    }
    return false;
}

/** Event driving the fixed pool's next phase completion. */
class Executor::PoolEvent : public hpim::sim::Event
{
  public:
    explicit PoolEvent(Executor &executor)
        : Event(Event::completionPriority), _executor(executor)
    {}

    void process() override { _executor.onPoolEvent(); }
    std::string description() const override { return "fixed-pool"; }

  private:
    Executor &_executor;
};

Executor::Executor(const SystemConfig &config,
                   const OffloadSelection *selection)
    : _config(config),
      _internal_bw(hpim::mem::peakInternalBandwidth(hpim::mem::HmcConfig{})),
      _selection(selection), _cpu_model(config.cpu),
      _pool_event(std::make_unique<PoolEvent>(*this))
{
    _progr_free = config.hasProgrPim ? config.progrPimCount : 0;
    _fixed_free = config.hasFixedPim ? config.fixed.totalUnits : 0;
    _fixed_capacity = _fixed_free;
    _fixed_alive = _fixed_free;
    if (config.faults.enabled)
        setupFaultLayer();
}

void
Executor::setupFaultLayer()
{
    std::vector<std::uint32_t> units;
    std::vector<double> temps;
    if (_config.hasFixedPim) {
        std::uint32_t banks = std::max(_config.fixed.banks, 1u);
        hpim::pim::BankGrid grid;
        if (banks % 4 == 0 && banks >= 8) {
            grid.rows = 4;
            grid.cols = banks / 4;
        } else {
            grid.rows = 1;
            grid.cols = banks;
        }
        auto placement =
            hpim::pim::placeUnits(grid, _config.fixed.totalUnits);
        auto thermal = hpim::model::solveThermal(
            grid, placement, _config.fixed.unitPowerW());
        units = placement.unitsPerBank;
        temps = thermal.tempC;
        _regs = std::make_unique<hpim::pim::StatusRegisterFile>(banks,
                                                                units);
    }
    _fault_model = std::make_unique<hpim::sim::FaultModel>(
        _config.faults, std::move(units), std::move(temps));
}

Executor::~Executor()
{
    if (_pool_event && _pool_event->scheduled())
        _queue.deschedule(_pool_event.get());
}

std::string
Executor::keyStr(const OpKey &key)
{
    return std::to_string(key.workload) + ":" + std::to_string(key.step)
           + ":" + std::to_string(key.op);
}

const Operation &
Executor::op(const OpKey &key) const
{
    return _workloads[key.workload].spec.graph->op(key.op);
}

std::string
Executor::label(const OpKey &key) const
{
    return std::string(_workloads[key.workload].spec.graph->label(key.op));
}

void
Executor::obsSpan(const char *track_name, const OpKey &key,
                  double start_sec, double energy_j,
                  std::vector<hpim::obs::TraceArg> extra)
{
    if (auto *registry = hpim::obs::MetricsRegistry::current()) {
        registry->histogram("rt.span_s").observe(nowSec() - start_sec);
        registry->histogram("rt.span_energy_j").observe(energy_j);
    }
    auto *session = hpim::obs::TraceSession::current();
    if (session == nullptr)
        return;
    std::vector<hpim::obs::TraceArg> args;
    args.reserve(extra.size() + 2);
    args.push_back({"op", keyStr(key)});
    args.push_back({"energy_j", energy_j});
    for (auto &arg : extra)
        args.push_back(std::move(arg));
    session->span(session->track(track_name), label(key), start_sec,
                  nowSec() - start_sec, std::move(args));
}

void
Executor::obsInstant(const char *track_name, std::string name,
                     std::vector<hpim::obs::TraceArg> args)
{
    auto *session = hpim::obs::TraceSession::current();
    if (session == nullptr)
        return;
    session->instant(session->track(track_name), std::move(name),
                     nowSec(), std::move(args));
}

void
Executor::obsCount(const char *name, std::uint64_t n)
{
    if (auto *registry = hpim::obs::MetricsRegistry::current())
        registry->counter(name).add(n);
}

Executor::OpState &
Executor::state(const OpKey &key)
{
    return _workloads[key.workload].steps[key.step].ops[key.op];
}

Executor::StepState &
Executor::stepState(const OpKey &key)
{
    return _workloads[key.workload].steps[key.step];
}

Executor::Join &
Executor::makeJoin(const OpKey &key)
{
    StepState &st = stepState(key);
    if (st.joins.empty()) {
        st.joins.assign(st.ops.size(), Join{});
        st.joinLive.assign(st.ops.size(), 0);
    }
    st.joins[key.op] = Join{};
    st.joinLive[key.op] = 1;
    return st.joins[key.op];
}

double
Executor::nowSec() const
{
    return hpim::sim::ticksToSeconds(_queue.now());
}

Tick
Executor::toTick(double seconds) const
{
    return hpim::sim::secondsToTicks(seconds);
}

std::uint32_t
Executor::stepWindow(const WorkloadState &w) const
{
    (void)w;
    return _config.operationPipeline
               ? std::max<std::uint32_t>(_config.pipelineDepth, 1)
               : 1;
}

void
Executor::seedStep(std::uint32_t w, std::uint32_t step)
{
    WorkloadState &wl = _workloads[w];
    if (step >= wl.spec.steps || step < wl.seededSteps)
        return;
    panic_if(step != wl.seededSteps, "steps must seed in order");
    ++wl.seededSteps;

    const Graph &graph = *wl.spec.graph;
    auto &states = wl.steps[step].ops;
    states.assign(graph.size(), OpState{});
    wl.remainingOps[step] = static_cast<std::uint32_t>(graph.size());
    for (const Operation &o : graph.ops()) {
        states[o.id].remainingDeps = o.inputCount;
        if (states[o.id].remainingDeps == 0) {
            states[o.id].ready = true;
            pushReady(OpKey{w, step, o.id});
        }
    }
}

std::optional<PlacedOn>
Executor::decidePlacement(const OpKey &key, std::uint32_t level,
                          unsigned atoms) const
{
    if (level > 0)
        return ladderPlacement(key, level, atoms);

    const WorkloadState &wl = _workloads[key.workload];
    const OpMeta &meta = wl.meta[key.op];
    OffloadClass cls = meta.cls;
    bool cpu_free = atoms & CpuFree;
    bool has_progr = atoms & ProgrFree;
    bool fixed_tree_free = atoms & TreeFree;

    // Guest workloads (mixed-workload co-run): CPU or progr PIM only.
    if (!wl.spec.pimManaged) {
        if (cpu_free)
            return PlacedOn::Cpu;
        if (has_progr)
            return PlacedOn::ProgrPim;
        return std::nullopt;
    }

    if (!_config.dynamicScheduling) {
        // Static class-based placement (non-scheduled baselines).
        if (_config.hasProgrPim && !_config.hasFixedPim) {
            // Progr-PIM-only: everything runs on programmable cores.
            return has_progr ? std::optional(PlacedOn::ProgrPim)
                             : std::nullopt;
        }
        switch (cls) {
          case OffloadClass::FixedFunction:
            if (_config.hasFixedPim)
                return fixed_tree_free
                           ? std::optional(PlacedOn::FixedPool)
                           : std::nullopt;
            break;
          case OffloadClass::Recursive:
            if (_config.hasFixedPim) {
                // Host feeds extracted regions; needs CPU + trees.
                if (cpu_free && fixed_tree_free)
                    return PlacedOn::FixedHostDriven;
                return std::nullopt;
            }
            break;
          case OffloadClass::ProgrammableOnly:
          case OffloadClass::DataMovement:
            if (_config.hasProgrPim)
                return has_progr ? std::optional(PlacedOn::ProgrPim)
                                 : std::nullopt;
            break;
        }
        return cpu_free ? std::optional(PlacedOn::Cpu) : std::nullopt;
    }

    // ---- Dynamic scheduling (paper SectionIII-C step 2).
    bool candidate = meta.candidate;

    if (!candidate) {
        // Class-1/4 ops stay on the CPU unless it is busy and PIMs
        // idle ("we can offload them when there are idling hardware
        // units in PIMs").
        if (cpu_free)
            return PlacedOn::Cpu;
        if (cls == OffloadClass::FixedFunction && fixed_tree_free)
            return PlacedOn::FixedPool;
        if (has_progr && cls != OffloadClass::FixedFunction)
            return PlacedOn::ProgrPim;
        return std::nullopt;
    }

    // A candidate whose class's preferred device is absent takes an
    // idle CPU whatever its size; otherwise only small ones do.
    switch (cls) {
      case OffloadClass::FixedFunction:
        // Principle 1: fixed-function PIMs first. When they are all
        // busy, principle 2 sends *small* candidates to the CPU
        // rather than letting it idle; large kernels wait for trees.
        if (fixed_tree_free)
            return PlacedOn::FixedPool;
        if (cpu_free && (!_config.hasFixedPim || meta.smallOnCpu))
            return PlacedOn::Cpu;
        return std::nullopt;
      case OffloadClass::Recursive:
        if (_config.recursiveKernels && has_progr && _config.hasFixedPim)
            return PlacedOn::ProgrRecursive;
        if (!_config.recursiveKernels && _config.hasFixedPim
            && cpu_free && fixed_tree_free) {
            return PlacedOn::FixedHostDriven;
        }
        if (cpu_free && (!_config.hasFixedPim || meta.smallOnCpu))
            return PlacedOn::Cpu;
        return std::nullopt;
      case OffloadClass::ProgrammableOnly:
      case OffloadClass::DataMovement:
        if (has_progr)
            return PlacedOn::ProgrPim;
        if (cpu_free && (!_config.hasProgrPim || meta.smallOnCpu))
            return PlacedOn::Cpu;
        return std::nullopt;
    }
    return std::nullopt;
}

std::optional<PlacedOn>
Executor::ladderPlacement(const OpKey &key, std::uint32_t level,
                          unsigned atoms) const
{
    OffloadClass cls = _workloads[key.workload].meta[key.op].cls;
    // Rung 1 is the programmable PIM -- unless the op started there
    // (ProgrammableOnly / DataMovement classes), in which case the
    // first drop already lands on the host.
    bool progr_rung = _config.hasProgrPim
                      && cls != OffloadClass::ProgrammableOnly
                      && cls != OffloadClass::DataMovement;
    if (level == 1 && progr_rung) {
        return atoms & ProgrFree ? std::optional(PlacedOn::ProgrPim)
                                 : std::nullopt;
    }
    // Final rung: the host CPU, which never faults, so every op
    // eventually completes.
    return atoms & CpuFree ? std::optional(PlacedOn::Cpu) : std::nullopt;
}

std::uint32_t
Executor::placementLevel(const OpKey &key) const
{
    if (!faultsOn())
        return 0;
    // Sized lazily by failAttempt(); empty means no op in this step
    // has ever degraded.
    const std::vector<std::uint32_t> &degraded =
        _workloads[key.workload].steps[key.step].degraded;
    std::uint32_t level = degraded.empty() ? 0 : degraded[key.op];
    OffloadClass cls = _workloads[key.workload].meta[key.op].cls;
    // With every pool bank permanently failed, fixed-destined ops
    // skip straight to the next rung instead of waiting forever.
    if (level == 0 && _config.hasFixedPim && _fixed_alive == 0
        && (cls == OffloadClass::FixedFunction
            || cls == OffloadClass::Recursive)) {
        level = 1;
    }
    return level;
}

unsigned
Executor::atoms(std::uint32_t width) const
{
    unsigned atoms = 0;
    if (!_cpu_busy)
        atoms |= CpuFree;
    if (_progr_free > 0)
        atoms |= ProgrFree;
    if (_config.hasFixedPim && _fixed_capacity > 0
        && _fixed_free >= std::min(width, _fixed_capacity)) {
        atoms |= TreeFree;
    }
    return atoms;
}

std::uint8_t
Executor::placementTable(const OpKey &key, std::uint32_t level) const
{
    std::uint8_t table = 0;
    for (unsigned atoms = 0; atoms < 8; ++atoms) {
        if (decidePlacement(key, level, atoms))
            table |= static_cast<std::uint8_t>(1u << atoms);
    }
    return table;
}

std::uint32_t
Executor::bucketFor(std::uint8_t table, std::uint32_t width)
{
    // Tables that ignore the tree atom share one bucket per table.
    if ((table & 0x0F) == (table >> 4))
        width = 0;
    for (std::uint32_t i = 0; i < _ready.size(); ++i) {
        if (_ready[i].table == table && _ready[i].width == width)
            return i;
    }
    _ready.push_back(ReadyBucket{table, width, {}});
    return static_cast<std::uint32_t>(_ready.size() - 1);
}

void
Executor::pushReady(const OpKey &key)
{
    const WorkloadState &wl = _workloads[key.workload];
    ReadyOp ready;
    ready.rank = (std::uint64_t(!wl.spec.pimManaged) << 63)
                 | (std::uint64_t(key.step) << 32) | key.op;
    ready.seq = _ready_seq++;
    ready.key = key;
    // Degraded ops, and fixed-destined ops once the pool is dead,
    // leave the undegraded table cached by run().
    std::uint32_t level = placementLevel(key);
    std::uint32_t bucket =
        level == 0 ? wl.meta[key.op].bucket
                   : bucketFor(placementTable(key, level),
                               wl.meta[key.op].unitsPerLane);
    std::vector<ReadyOp> &ops = _ready[bucket].ops;
    ops.insert(std::upper_bound(ops.begin(), ops.end(), ready), ready);
}

void
Executor::rebucketReady()
{
    std::vector<ReadyOp> ready;
    for (ReadyBucket &bucket : _ready) {
        ready.insert(ready.end(), bucket.ops.begin(), bucket.ops.end());
        bucket.ops.clear();
    }
    // Re-pushing in push order keeps every tie-break.
    std::sort(ready.begin(), ready.end(),
              [](const ReadyOp &a, const ReadyOp &b) {
                  return a.seq < b.seq;
              });
    for (const ReadyOp &op : ready)
        pushReady(op.key);
}

void
Executor::dispatch(const OpKey &key)
{
    obsCount("rt.placement_evals");
    auto placement = decidePlacement(
        key, placementLevel(key),
        atoms(_workloads[key.workload].meta[key.op].unitsPerLane));
    panic_if(!placement, "ready op ", keyStr(key),
             " taken from an open bucket has no placement");

    OpState &s = state(key);
    s.ready = false;
    s.running = true;
    // With faults on, the census counts where the op *completes*; a
    // faulted attempt must not leave a phantom tally behind.
    if (faultsOn()) {
        StepState &st = stepState(key);
        if (st.placement.empty()) {
            st.placement.assign(st.ops.size(), PlacedOn::Cpu);
            st.placementLive.assign(st.ops.size(), 0);
        }
        st.placement[key.op] = *placement;
        st.placementLive[key.op] = 1;
    } else {
        ++_report.opsByPlacement[*placement];
    }

    if (_trace) {
        StepState &st = stepState(key);
        if (st.traceToken.empty()) {
            st.traceToken.assign(st.ops.size(), 0);
            st.traceLive.assign(st.ops.size(), 0);
        }
        st.traceToken[key.op] =
            _trace->begin(label(key), key.op, *placement,
                          key.workload, key.step, nowSec());
        st.traceLive[key.op] = 1;
    }

    switch (*placement) {
      case PlacedOn::Cpu:
        startOnCpu(key);
        break;
      case PlacedOn::FixedPool:
        startOnFixed(key);
        break;
      case PlacedOn::ProgrPim:
        startOnProgr(key, false);
        break;
      case PlacedOn::ProgrRecursive:
        startOnProgr(key, true);
        break;
      case PlacedOn::FixedHostDriven:
        startHostDriven(key);
        break;
    }
}

void
Executor::dispatchAll()
{
    // Same schedule as passes over one priority-sorted ready list that
    // repeat until a pass places nothing, without visiting the ops a
    // pass would refuse. Within a pass the next op placed is the
    // highest-priority op after the last one placed whose bucket is
    // open under the current atoms; ops skipped earlier in the pass
    // wait for the next pass even when a dispatch reopens their
    // bucket (addPhase() can raise _fixed_free), exactly as a scan
    // would leave them. When the pass runs out, the next pass starts
    // at the highest-priority open op.
    bool in_pass = false; // `last` is the op this pass placed last
    ReadyOp last;
    for (;;) {
        ReadyBucket *head = nullptr, *next = nullptr;
        std::vector<ReadyOp>::iterator head_it, next_it;
        for (ReadyBucket &bucket : _ready) {
            if (bucket.ops.empty()
                || !(bucket.table >> atoms(bucket.width) & 1u)) {
                continue;
            }
            auto it = bucket.ops.begin();
            if (head == nullptr || *it < *head_it) {
                head = &bucket;
                head_it = it;
            }
            if (in_pass && *it < last)
                it = std::upper_bound(it, bucket.ops.end(), last);
            if (in_pass && it != bucket.ops.end()
                && (next == nullptr || *it < *next_it)) {
                next = &bucket;
                next_it = it;
            }
        }
        if (next == nullptr) {
            next = head;
            next_it = head_it;
        }
        if (next == nullptr)
            return;
        last = *next_it;
        next->ops.erase(next_it);
        dispatch(last.key);
        in_pass = true;
    }
}

void
Executor::startOnCpu(const OpKey &key)
{
    const Operation &o = op(key);
    auto timing = _cpu_model.opTiming(o.cost);
    double dm = timing.exposedMemorySec();
    double dur = std::max(timing.totalSec(), 1e-12);

    _report.cpuBusySec += dur;
    _report.linkBytes += o.cost.bytes();
    _op_accum += dur - dm;
    _dm_accum += dm;

    _cpu_busy = true;
    double start = nowSec();
    _queue.scheduleCallback(
        toTick(start + dur),
        [this, key, start, dur] {
            _cpu_busy = false;
            if (obsActive()) {
                obsSpan("cpu", key, start,
                        dur * _config.cpu.dynamicPowerW);
                obsCount("rt.ops.cpu");
            }
            onOpComplete(key);
        },
        hpim::sim::Event::completionPriority);
}

void
Executor::startOnProgr(const OpKey &key, bool recursive)
{
    panic_if(_progr_free == 0, "no free programmable PIM");
    const Operation &o = op(key);
    --_progr_free;

    using Attempt = hpim::sim::FaultModel::Attempt;
    Attempt outcome = faultsOn() ? _fault_model->drawAttempt(true)
                                 : Attempt::Success;

    double launch = _config.progr.launchOverheadSec;
    _report.hostLaunches += 1;

    if (!recursive) {
        double dur =
            launch
            + hpim::pim::progrOpSeconds(
                  _config.progr, o.cost,
                  _internal_bw * _config.pimBandwidthShare);
        dur = std::max(dur, 1e-12);
        if (outcome == Attempt::Stall) {
            // The kernel hangs; the watchdog reclaims the device after
            // the per-op timeout. Nothing useful ran.
            double hold = _fault_model->stallTimeoutSec(dur);
            _report.progrBusySec += hold;
            _sync_accum += hold;
            double start = nowSec();
            _queue.scheduleCallback(
                toTick(start + hold),
                [this, key, start, hold] {
                    ++_progr_free;
                    if (obsActive()) {
                        obsSpan("progr", key, start,
                                hold * _config.progr.powerW(),
                                {{"outcome", std::string("stall")}});
                    }
                    failAttempt(key, FailKind::Stall);
                },
                hpim::sim::Event::completionPriority);
            return;
        }
        bool faulty = outcome == Attempt::Transient;
        double comp = o.cost.flops() / _config.progr.flops()
                      + o.cost.specials / _config.progr.specials();
        double dm = std::max(0.0, dur - launch - comp);
        _report.progrBusySec += dur;
        _report.internalBytes += o.cost.bytes();
        if (faulty) {
            // Ran to completion but failed result verification: the
            // whole attempt is lost time, recovered by re-execution.
            _sync_accum += dur;
        } else {
            _sync_accum += launch;
            _op_accum += dur - launch - dm;
            _dm_accum += dm;
        }
        double start = nowSec();
        _queue.scheduleCallback(
            toTick(start + dur),
            [this, key, faulty, start, dur] {
                ++_progr_free;
                if (obsActive()) {
                    obsSpan("progr", key, start,
                            dur * _config.progr.powerW(),
                            faulty
                                ? std::vector<hpim::obs::TraceArg>{
                                      {"outcome",
                                       std::string("fault")}}
                                : std::vector<hpim::obs::TraceArg>{});
                    if (!faulty)
                        obsCount("rt.ops.progr");
                }
                if (faulty)
                    failAttempt(key, FailKind::Transient);
                else
                    onOpComplete(key);
            },
            hpim::sim::Event::completionPriority);
        return;
    }

    // Recursive kernel: the programmable PIM runs the control/special
    // phases and dispatches the extracted mul/add core to the pool.
    auto calls = static_cast<std::uint32_t>(std::max(
        1.0, std::ceil(o.parallelism.lanes / 1048576.0)));
    double rc_over = calls * _config.progr.recursiveLaunchSec;
    double control = o.cost.specials / _config.progr.specials();
    double dur = std::max(launch + rc_over + control, 1e-12);

    if (outcome == Attempt::Stall) {
        // The control kernel hangs before dispatching any pool work;
        // no join/phase is created and the watchdog frees the device.
        double hold = _fault_model->stallTimeoutSec(dur);
        _report.progrBusySec += hold;
        _sync_accum += hold;
        double start = nowSec();
        _queue.scheduleCallback(
            toTick(start + hold),
            [this, key, start, hold] {
                ++_progr_free;
                if (obsActive()) {
                    obsSpan("progr", key, start,
                            hold * _config.progr.powerW(),
                            {{"outcome", std::string("stall")},
                             {"part", std::string("rc-control")}});
                }
                failAttempt(key, FailKind::Stall);
            },
            hpim::sim::Event::completionPriority);
        return;
    }
    bool faulty = outcome == Attempt::Transient;

    _report.recursiveLaunches += calls;
    _report.progrBusySec += dur;
    if (faulty) {
        _sync_accum += dur;
    } else {
        _sync_accum += launch + rc_over;
        _op_accum += control;
    }

    Join &join = makeJoin(key);
    if (faulty) {
        join.faulty = true;
        join.failKind = FailKind::Transient;
    }

    double flops = o.cost.flops();
    double intensity =
        o.cost.bytes() > 0.0 ? flops / o.cost.bytes() : 1e9;
    std::uint32_t cap = std::max(_fixed_capacity, 1u);
    std::uint32_t tree =
        std::min(std::max(o.parallelism.unitsPerLane, 1u), cap);
    std::uint32_t max_trees = static_cast<std::uint32_t>(std::max<double>(
        1.0,
        std::min<double>(cap / tree, std::ceil(o.parallelism.lanes))));
    addPhase(key, flops, intensity, tree, max_trees, true, faulty);

    double start = nowSec();
    _queue.scheduleCallback(
        toTick(start + dur),
        [this, key, start, dur] {
            ++_progr_free;
            if (obsActive()) {
                obsSpan("progr", key, start,
                        dur * _config.progr.powerW(),
                        {{"part", std::string("rc-control")}});
            }
            onJoinedPartDone(key, false);
        },
        hpim::sim::Event::completionPriority);
}

void
Executor::startOnFixed(const OpKey &key)
{
    const Operation &o = op(key);
    double launch = _config.fixed.launchOverheadSec;
    _report.hostLaunches += 1;
    _sync_accum += launch;
    _report.internalBytes += o.cost.bytes();

    double flops = std::max(o.cost.flops(), 1.0);
    double intensity =
        o.cost.bytes() > 0.0 ? flops / o.cost.bytes() : 1e9;
    std::uint32_t cap = std::max(_fixed_capacity, 1u);
    std::uint32_t tree =
        std::min(std::max(o.parallelism.unitsPerLane, 1u), cap);
    std::uint32_t max_trees = static_cast<std::uint32_t>(std::max<double>(
        1.0,
        std::min<double>(cap / tree, std::ceil(o.parallelism.lanes))));
    bool faulty =
        faultsOn()
        && _fault_model->drawAttempt(false)
               == hpim::sim::FaultModel::Attempt::Transient;
    // The kernel-spawn latency delays the phase start.
    _queue.scheduleCallback(
        toTick(nowSec() + launch),
        [this, key, flops, intensity, tree, max_trees, faulty] {
            if (faultsOn() && _fixed_alive == 0) {
                // The whole pool died during the launch window.
                failAttempt(key, FailKind::Evicted);
                return;
            }
            addPhase(key, flops, intensity, tree, max_trees, false,
                     faulty);
        },
        hpim::sim::Event::defaultPriority);
}

void
Executor::startHostDriven(const OpKey &key)
{
    // Without RC: the host CPU runs the non-extractable phases and
    // feeds extracted regions to the pool in small batches.
    const Operation &o = op(key);
    panic_if(_cpu_busy, "host-driven op needs a free CPU");
    _cpu_busy = true;

    double launches =
        static_cast<double>(_config.hostDrivenLaunches);
    double sync = launches * _config.fixed.launchOverheadSec;
    _report.hostLaunches += _config.hostDrivenLaunches;
    _sync_accum += sync;

    hpim::nn::CostStructure control;
    control.specials = o.cost.specials;
    control.bytesRead = o.cost.bytesRead * 0.1; // staging traffic
    auto timing = _cpu_model.opTiming(control);
    double cpu_dur = std::max(timing.totalSec() + sync, 1e-12);
    _report.cpuBusySec += cpu_dur;
    _report.linkBytes += control.bytes();

    // The host control loop is trusted; only the pool half can see a
    // transient fault (there is no kernel to stall host-side).
    bool faulty =
        faultsOn()
        && _fault_model->drawAttempt(false)
               == hpim::sim::FaultModel::Attempt::Transient;
    if (faulty)
        _sync_accum += timing.totalSec();
    else
        _op_accum += timing.totalSec();

    Join &join = makeJoin(key);
    if (faulty) {
        join.faulty = true;
        join.failKind = FailKind::Transient;
    }

    double flops = std::max(o.cost.flops(), 1.0);
    double intensity =
        o.cost.bytes() > 0.0 ? flops / o.cost.bytes() : 1e9;
    std::uint32_t cap = std::max(_fixed_capacity, 1u);
    std::uint32_t tree =
        std::min(std::max(o.parallelism.unitsPerLane, 1u), cap);
    std::uint32_t max_trees =
        std::min(std::max(1u, _config.hostDrivenMaxUnits / tree),
                 std::max(1u, cap / tree));
    _report.internalBytes += o.cost.bytes();
    addPhase(key, flops, intensity, tree, std::max(max_trees, 1u), true,
             faulty);

    double start = nowSec();
    _queue.scheduleCallback(
        toTick(start + cpu_dur),
        [this, key, start, cpu_dur] {
            _cpu_busy = false;
            if (obsActive()) {
                obsSpan("cpu", key, start,
                        cpu_dur * _config.cpu.dynamicPowerW,
                        {{"part", std::string("host-driven")}});
            }
            onJoinedPartDone(key, false);
        },
        hpim::sim::Event::completionPriority);
}

double
Executor::phaseRate(const FixedPhase &phase) const
{
    if (phase.alloc == 0)
        return 0.0;
    double compute = phase.alloc * _config.fixed.unitFlops();
    double bw_share = _internal_bw
                      * _config.pimBandwidthShare
                      * (static_cast<double>(phase.alloc)
                         / _config.fixed.totalUnits);
    double by_bw = bw_share
                   * std::min(phase.intensity,
                              _config.fixedOperandReuse);
    return std::max(std::min(compute, by_bw), 1.0);
}

void
Executor::poolDrain()
{
    Tick now = _queue.now();
    if (now <= _pool_last_update) {
        _pool_last_update = now;
        return;
    }
    double elapsed =
        hpim::sim::ticksToSeconds(now - _pool_last_update);
    for (FixedPhase &phase : _phases) {
        if (phase.alloc > 0) {
            phase.remainingFlops -= phaseRate(phase) * elapsed;
            phase.unitSeconds += phase.alloc * elapsed;
            _report.fixedUnitSeconds += phase.alloc * elapsed;
        }
    }
    _pool_last_update = now;
}

void
Executor::poolReallocate()
{
    std::uint32_t free = _fixed_capacity;
    // Pass 1: one tree per phase, oldest first.
    for (FixedPhase &phase : _phases) {
        phase.alloc = 0;
        if (free >= phase.treeUnits) {
            phase.alloc = phase.treeUnits;
            free -= phase.treeUnits;
        } else if (faultsOn() && free > 0
                   && phase.treeUnits > _fixed_capacity) {
            // Bank kills or throttling shrank the pool below the
            // reduction-tree width, so no amount of waiting yields a
            // full tree; run a partial one rather than starve. Mere
            // contention (tree fits an empty pool) still waits, and
            // the full width is granted again once capacity recovers.
            phase.alloc = free;
            free = 0;
        }
    }
    // Pass 2: extra trees, oldest first (current step drains first).
    for (FixedPhase &phase : _phases) {
        if (phase.alloc == 0)
            continue;
        std::uint32_t extra = std::min<std::uint32_t>(
            phase.maxTrees - 1, free / phase.treeUnits);
        phase.alloc += extra * phase.treeUnits;
        free -= extra * phase.treeUnits;
    }
    _fixed_free = free;
}

void
Executor::poolScheduleNext()
{
    if (_pool_event->scheduled())
        _queue.deschedule(_pool_event.get());
    double best = -1.0;
    for (const FixedPhase &phase : _phases) {
        if (phase.alloc == 0)
            continue;
        double eta = std::max(phase.remainingFlops, 0.0)
                     / phaseRate(phase);
        if (best < 0.0 || eta < best)
            best = eta;
    }
    if (best >= 0.0) {
        Tick when = std::max<Tick>(toTick(nowSec() + best),
                                   _queue.now() + 1);
        _queue.schedule(_pool_event.get(), when);
    }
}

void
Executor::addPhase(const OpKey &key, double flops, double intensity,
                   std::uint32_t tree_units, std::uint32_t max_trees,
                   bool joined, bool faulty)
{
    poolDrain();
    FixedPhase phase;
    phase.key = key;
    phase.remainingFlops = std::max(flops, 1.0);
    phase.treeUnits = tree_units;
    phase.maxTrees = max_trees;
    phase.intensity = intensity;
    phase.joined = joined;
    phase.faulty = faulty;
    phase.startSec = nowSec();
    // Capacity may have shrunk since the tree size was computed; a
    // tree wider than the surviving pool would never be granted.
    if (faultsOn() && _fixed_alive > 0)
        phase.treeUnits = std::min(phase.treeUnits, _fixed_alive);
    _phases.push_back(phase);
    poolReallocate();
    poolScheduleNext();
}

void
Executor::onPoolEvent()
{
    poolDrain();
    std::vector<FixedPhase> finished;
    for (auto it = _phases.begin(); it != _phases.end();) {
        if (it->alloc > 0 && it->remainingFlops <= kWorkEpsilon) {
            finished.push_back(*it);
            it = _phases.erase(it);
        } else {
            ++it;
        }
    }
    poolReallocate();
    poolScheduleNext();

    for (const FixedPhase &phase : finished) {
        double span = nowSec() - phase.startSec;
        if (phase.faulty)
            _sync_accum += span; // wasted attempt; retry recovers it
        else
            _op_accum += span;
        if (obsActive()) {
            std::vector<hpim::obs::TraceArg> extra;
            extra.push_back(
                {"tree_units",
                 static_cast<std::int64_t>(phase.treeUnits)});
            extra.push_back({"unit_s", phase.unitSeconds});
            if (phase.faulty)
                extra.push_back({"outcome", std::string("fault")});
            obsSpan("fixed", phase.key, phase.startSec,
                    phase.unitSeconds * _config.fixed.unitPowerW(),
                    std::move(extra));
            if (!phase.faulty)
                obsCount("rt.ops.fixed_phases");
        }
        if (phase.joined)
            onJoinedPartDone(phase.key, true);
        else if (phase.faulty)
            failAttempt(phase.key, FailKind::Transient);
        else
            onOpComplete(phase.key);
    }
    dispatchAll();
}

void
Executor::onJoinedPartDone(const OpKey &key, bool fixed_part)
{
    StepState &st = stepState(key);
    panic_if(st.joinLive.empty() || !st.joinLive[key.op],
             "join record missing for op");
    Join &join = st.joins[key.op];
    if (fixed_part)
        join.fixedDone = true;
    else
        join.controlDone = true;
    if (join.fixedDone && join.controlDone) {
        bool faulty = join.faulty;
        FailKind kind = join.failKind;
        st.joinLive[key.op] = 0;
        if (faulty)
            failAttempt(key, kind);
        else
            onOpComplete(key);
    } else {
        // One side freed a resource; others may now start.
        dispatchAll();
    }
}

void
Executor::failAttempt(const OpKey &key, FailKind kind)
{
    StepState &stp = stepState(key);
    if (_trace && !stp.traceLive.empty() && stp.traceLive[key.op]) {
        _trace->abort(stp.traceToken[key.op], nowSec());
        stp.traceLive[key.op] = 0;
    }
    if (!stp.placementLive.empty())
        stp.placementLive[key.op] = 0;
    const char *kind_name = nullptr;
    switch (kind) {
      case FailKind::Transient:
        ++_report.transientFaults;
        kind_name = "fault.transient";
        break;
      case FailKind::Stall:
        ++_report.kernelStalls;
        kind_name = "fault.stall";
        break;
      case FailKind::Evicted:
        ++_report.opsEvicted;
        kind_name = "fault.evicted";
        break;
    }
    ++_report.retries;
    obsCount("rt.retries");
    if (stp.attempts.empty()) {
        stp.attempts.assign(stp.ops.size(), 0);
        stp.degraded.assign(stp.ops.size(), 0);
    }
    std::uint32_t attempts = ++stp.attempts[key.op];
    if (obsActive()) {
        obsInstant("sched", kind_name,
                   {{"op", keyStr(key)},
                    {"attempt", static_cast<std::int64_t>(attempts)}});
    }
    if (attempts >= _config.faults.maxAttempts) {
        // Rung exhausted: drop one level on the degradation ladder
        // (fixed-function -> programmable PIM -> CPU) and start the
        // attempt budget over.
        stp.attempts[key.op] = 0;
        ++stp.degraded[key.op];
        ++_report.opsDegraded;
        obsCount("rt.ops_degraded");
        if (obsActive()) {
            obsInstant("sched", "degrade",
                       {{"op", keyStr(key)},
                        {"level",
                         static_cast<std::int64_t>(
                             stp.degraded[key.op])}});
        }
    }
    OpState &s = state(key);
    s.running = false;
    double delay = _fault_model->backoffSec(attempts);
    _report.retryBackoffSec += delay;
    Tick when = std::max<Tick>(toTick(nowSec() + delay),
                               _queue.now() + 1);
    _queue.scheduleCallback(
        when,
        [this, key] {
            OpState &st = state(key);
            if (st.done || st.running || st.ready)
                return;
            st.ready = true;
            pushReady(key);
            dispatchAll();
        },
        hpim::sim::Event::schedulePriority);
}

void
Executor::refreshFixedCapacity()
{
    if (_regs == nullptr)
        return;
    bool was_alive = _fixed_alive > 0;
    _fixed_capacity = _regs->availableUnits();
    _fixed_alive = _regs->aliveUnits();
    // A dead pool promotes fixed-destined ops one ladder rung, which
    // changes their truth tables.
    if (was_alive && _fixed_alive == 0)
        rebucketReady();
}

void
Executor::recordCapacity()
{
    _report.capacityTimeline.push_back({nowSec(), _fixed_capacity});
    if (auto *session = hpim::obs::TraceSession::current()) {
        session->counter(session->track("fixed"), "fixed capacity",
                         nowSec(), _fixed_capacity);
    }
    if (auto *registry = hpim::obs::MetricsRegistry::current())
        registry->gauge("rt.fixed_capacity").set(_fixed_capacity);
}

bool
Executor::allComplete() const
{
    for (const WorkloadState &wl : _workloads) {
        if (wl.completedSteps != wl.spec.steps)
            return false;
    }
    return true;
}

void
Executor::evictDeadPoolPhases()
{
    if (_fixed_alive > 0) {
        // Surviving capacity: just shrink trees that no longer fit.
        for (FixedPhase &phase : _phases)
            phase.treeUnits = std::min(phase.treeUnits, _fixed_alive);
        return;
    }
    // The whole pool is gone; every in-flight phase is evicted and its
    // op re-dispatched (the degradation ladder keeps it off the pool).
    std::vector<FixedPhase> victims;
    victims.swap(_phases);
    for (const FixedPhase &phase : victims) {
        if (phase.joined) {
            StepState &st = stepState(phase.key);
            if (!st.joinLive.empty() && st.joinLive[phase.key.op]) {
                st.joins[phase.key.op].faulty = true;
                st.joins[phase.key.op].failKind = FailKind::Evicted;
                onJoinedPartDone(phase.key, true);
            }
        } else {
            failAttempt(phase.key, FailKind::Evicted);
        }
    }
}

void
Executor::onBankFailed(std::uint32_t bank)
{
    if (_regs == nullptr || bank >= _regs->banks()
        || _regs->bankState(bank) == hpim::pim::BankState::Failed) {
        return;
    }
    poolDrain();
    std::uint32_t lost = _regs->bankCapacity(bank);
    _regs->markFailed(bank);
    ++_report.banksFailed;
    _report.unitsLost += lost;
    obsCount("rt.banks_failed");
    if (obsActive()) {
        obsInstant("sched", "bank.failed",
                   {{"bank", static_cast<std::int64_t>(bank)},
                    {"units_lost", static_cast<std::int64_t>(lost)}});
    }
    refreshFixedCapacity();
    recordCapacity();
    inform("fault: bank ", bank, " failed at ", nowSec(), " s (-",
           lost, " units, ", _fixed_capacity, " allocatable)");
    evictDeadPoolPhases();
    poolReallocate();
    poolScheduleNext();
    dispatchAll();
}

void
Executor::onThrottle(std::size_t index, bool start)
{
    const hpim::sim::ThrottleSpec &spec =
        _fault_model->throttles()[index];
    if (_regs == nullptr || spec.bank >= _regs->banks())
        return;
    poolDrain();
    if (start) {
        ++_report.throttleEvents;
        obsCount("rt.throttle_events");
    }
    if (obsActive()) {
        obsInstant("sched", start ? "throttle.start" : "throttle.end",
                   {{"bank", static_cast<std::int64_t>(spec.bank)}});
    }
    _regs->setThrottled(spec.bank, start);
    refreshFixedCapacity();
    recordCapacity();
    poolReallocate();
    poolScheduleNext();
    if (!allComplete()) {
        // Keep the duty cycle going only while work remains, so the
        // run loop terminates with the last completion.
        double delay = start ? spec.onSec : spec.offSec;
        Tick when = std::max<Tick>(toTick(nowSec() + delay),
                                   _queue.now() + 1);
        _queue.scheduleCallback(
            when, [this, index, start] { onThrottle(index, !start); },
            hpim::sim::Event::defaultPriority);
    }
    if (!start)
        dispatchAll(); // capacity returned; waiting trees may now fit
}

void
Executor::scheduleHealthEvents()
{
    recordCapacity(); // t = 0 baseline sample
    for (const hpim::sim::BankKill &kill : _fault_model->kills()) {
        std::uint32_t bank = kill.bank;
        Tick when = std::max<Tick>(toTick(kill.timeSec),
                                   _queue.now() + 1);
        _queue.scheduleCallback(
            when, [this, bank] { onBankFailed(bank); },
            hpim::sim::Event::defaultPriority);
    }
    for (std::size_t i = 0; i < _fault_model->throttles().size(); ++i) {
        Tick when = std::max<Tick>(
            toTick(_fault_model->throttles()[i].firstStartSec),
            _queue.now() + 1);
        _queue.scheduleCallback(
            when, [this, i] { onThrottle(i, true); },
            hpim::sim::Event::defaultPriority);
    }
}

void
Executor::onOpComplete(const OpKey &key)
{
    WorkloadState &wl = _workloads[key.workload];
    OpState &s = state(key);
    panic_if(s.done, "op completed twice");
    s.done = true;
    s.running = false;

    if (faultsOn()) {
        StepState &st = wl.steps[key.step];
        panic_if(st.placementLive.empty() || !st.placementLive[key.op],
                 "op completed without a recorded placement");
        ++_report.opsByPlacement[st.placement[key.op]];
        st.placementLive[key.op] = 0;
    }

    if (_trace) {
        StepState &st = wl.steps[key.step];
        if (!st.traceLive.empty() && st.traceLive[key.op]) {
            _trace->end(st.traceToken[key.op], nowSec());
            st.traceLive[key.op] = 0;
        }
    }

    obsCount("rt.ops_completed");

    const Graph &graph = *wl.spec.graph;
    for (OpId consumer : graph.consumers(key.op)) {
        OpState &cs = wl.steps[key.step].ops[consumer];
        panic_if(cs.remainingDeps == 0, "dependence underflow");
        if (--cs.remainingDeps == 0) {
            cs.ready = true;
            pushReady(OpKey{key.workload, key.step, consumer});
        }
    }

    panic_if(wl.remainingOps[key.step] == 0, "step op underflow");
    if (--wl.remainingOps[key.step] == 0) {
        // completedSteps counts the fully-finished PREFIX of steps.
        // With pipelining a later step can drain before an earlier one
        // (placement divergence on wide DAGs), but the step-window
        // contract (schedule_validator) admits step s+window only once
        // step s itself has ended -- so gate on the prefix, not on a
        // raw count of drained steps.
        while (wl.completedSteps < wl.seededSteps
               && wl.remainingOps[wl.completedSteps] == 0)
            ++wl.completedSteps;
        // Admit the next step(s) within the pipeline window.
        while (wl.seededSteps < wl.spec.steps
               && wl.seededSteps < wl.completedSteps + stepWindow(wl)) {
            seedStep(key.workload, wl.seededSteps);
        }
    }
    dispatchAll();
}

ExecutionReport
Executor::run(const std::vector<WorkloadSpec> &workloads)
{
    fatal_if(workloads.empty(), "no workloads to run");
    // The event queue's clock is monotonic and cannot rewind; one
    // Executor instance runs once.
    fatal_if(_queue.processedCount() != 0,
             "Executor::run() called twice; construct a fresh "
             "Executor per run");
    _workloads.clear();
    _ready.clear();
    _phases.clear();
    _report = ExecutionReport{};
    _report.configName = _config.name;

    // Far beyond any study in the paper, but check rather than let a
    // pathological spec allocate per-step state without bound.
    fatal_if(workloads.size() > 255, "too many workloads to pack");
    // Atom sets a run can reach: an absent device is never idle.
    unsigned absent = (_progr_free ? 0u : ProgrFree)
                      | (_fixed_capacity ? 0u : TreeFree);
    unsigned reachable = 0;
    for (unsigned a = 0; a < 8; ++a)
        reachable |= (a & absent) ? 0u : 1u << a;
    for (const WorkloadSpec &spec : workloads) {
        fatal_if(spec.graph == nullptr, "workload without a graph");
        fatal_if(spec.steps == 0, "workload with zero steps");
        fatal_if(spec.steps >= (1u << 24), "too many steps to pack");
        auto w = static_cast<std::uint32_t>(_workloads.size());
        WorkloadState &wl = _workloads.emplace_back();
        wl.spec = spec;
        wl.steps.resize(spec.steps);
        wl.remainingOps.assign(spec.steps, 0);
        // Precompute the placement-relevant facts for every op once,
        // and its undegraded bucket. decidePlacement() reads only an
        // op's class, candidacy and CPU-fallback size, so ops that
        // share those share a truth table.
        const Graph &graph = *spec.graph;
        wl.meta.reserve(graph.size());
        std::array<int, 16> tables;
        tables.fill(-1);
        for (OpId id = 0; id < graph.size(); ++id) {
            const Operation &o = graph.op(id);
            OpMeta &meta = wl.meta.emplace_back();
            meta.cls = hpim::nn::opTraits(o.type).offloadClass;
            meta.candidate = _selection == nullptr
                             || _selection->isCandidate(o.type);
            meta.smallOnCpu = _cpu_model.opSeconds(o.cost)
                              <= _config.cpuFallbackThresholdSec;
            meta.unitsPerLane = o.parallelism.unitsPerLane;
            std::size_t facts = std::size_t(meta.cls) << 2
                                | std::size_t(meta.candidate) << 1
                                | std::size_t(meta.smallOnCpu);
            if (tables[facts] < 0) {
                tables[facts] = placementTable(OpKey{w, 0, id}, 0);
                fatal_if((tables[facts] & reachable) == 0, "op '",
                         graph.label(id), "' of '", graph.name(),
                         "' (class ",
                         offloadClassNames[std::size_t(meta.cls)],
                         ") has no placement on config '", _config.name,
                         "'");
            }
            meta.bucket = bucketFor(static_cast<std::uint8_t>(tables[facts]),
                                    meta.unitsPerLane);
        }
    }
    _report.workloadName = workloads[0].graph->name();
    _report.stepsSimulated = workloads[0].steps;

    for (std::uint32_t w = 0; w < _workloads.size(); ++w) {
        std::uint32_t window = stepWindow(_workloads[w]);
        for (std::uint32_t s = 0;
             s < std::min<std::uint32_t>(window,
                                         _workloads[w].spec.steps);
             ++s) {
            seedStep(w, s);
        }
    }
    if (faultsOn())
        scheduleHealthEvents();
    dispatchAll();

    // With faults off the queue drains exactly at the last completion,
    // so the allComplete() guard never changes behaviour; with faults
    // on it stops the run before any still-pending throttle window.
    hpim::sim::checkDeadline("simulate");
    std::uint64_t guard = 50'000'000;
    while (!allComplete() && _queue.runOne()) {
        panic_if(--guard == 0, "executor exceeded event budget");
        // Deadline phase boundary: cheap enough to sit in the event
        // loop because 65535 of 65536 iterations only test a counter,
        // and a no-deadline run additionally pays just a TLS load
        // (sim/deadline.hh). Expiry unwinds before the run finalizes,
        // so an aborted run can never publish a partial report.
        if ((guard & 0xFFFF) == 0)
            hpim::sim::checkDeadline("simulate");
    }

    for (const WorkloadState &wl : _workloads) {
        panic_if(wl.completedSteps != wl.spec.steps,
                 "workload '", wl.spec.graph->name(),
                 "' deadlocked: ", wl.completedSteps, "/",
                 wl.spec.steps, " steps done");
    }

    // ---- Finalize the report.
    _report.makespanSec = nowSec();
    _report.stepSec =
        _report.makespanSec / _report.stepsSimulated;

    double accum = _op_accum + _dm_accum + _sync_accum;
    if (accum > 0.0) {
        _report.opSec = _report.stepSec * _op_accum / accum;
        _report.dataMovementSec = _report.stepSec * _dm_accum / accum;
        _report.syncSec = _report.stepSec * _sync_accum / accum;
    } else {
        _report.opSec = _report.stepSec;
    }

    if (_config.hasFixedPim && _report.makespanSec > 0.0) {
        _report.fixedUtilization =
            _report.fixedUnitSeconds
            / (_config.fixed.totalUnits * _report.makespanSec);
    }

    // ---- Energy.
    double makespan = _report.makespanSec;
    double cpu_busy = std::min(_report.cpuBusySec, makespan);
    double host_floor = _config.hostCoordinationFloor * makespan;
    double host_active = std::max(cpu_busy, host_floor);
    _report.cpuEnergyJ =
        host_active * _config.cpu.dynamicPowerW
        + (makespan - host_active) * _config.cpu.idlePowerW;
    if (_config.hasProgrPim) {
        _report.progrEnergyJ =
            _report.progrBusySec * _config.progr.powerW();
    }
    if (_config.hasFixedPim) {
        _report.fixedEnergyJ =
            _report.fixedUnitSeconds * _config.fixed.unitPowerW()
            + _config.fixed.poolStaticPowerW * makespan;
    }
    _report.dramEnergyJ =
        _report.linkBytes
            * (_config.dramEnergy.readPerBytePj
               + _config.dramEnergy.linkPerBytePj)
            * 1e-12
        + _report.internalBytes * _config.dramEnergy.readPerBytePj
              * 1e-12
        + _config.stackBackgroundW * makespan;
    _report.totalEnergyJ = _report.cpuEnergyJ + _report.progrEnergyJ
                           + _report.fixedEnergyJ + _report.dramEnergyJ;
    _report.energyPerStepJ =
        _report.totalEnergyJ / _report.stepsSimulated;
    _report.averagePowerW =
        makespan > 0.0 ? _report.totalEnergyJ / makespan : 0.0;
    _report.edp = _report.energyPerStepJ * _report.stepSec;
    return _report;
}

} // namespace hpim::rt
