/**
 * @file
 * serve_open_loop: an in-process serve::Server (2 workers) driven by
 * one generator thread that sends pipelined requests. The low and
 * high phases and the rate ladder are open loop: requests go out on a
 * fixed schedule at fixed absolute rates, whatever the server's
 * progress, and latency is timed from each request's due send time,
 * so a stall also charges the requests queued behind it. The saturate
 * phase is a closed loop that keeps a fixed number outstanding and
 * measures the capacity.
 */

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "harness/json.hh"
#include "harness/report_io.hh"
#include "nn/graph_builder.hh"
#include "nn/graph_io.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "serve/simulate.hh"
#include "sim/memo_cache.hh"
#include "sweep_common.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

using hpim::serve::Request;
using hpim::serve::RequestKind;
using hpim::serve::Response;
using hpim::serve::SimulateSpec;

/** Simulation workers of the server. With the server's IO thread
 *  and the generator this uses the whole 4-thread budget. */
constexpr std::uint32_t kWorkers = 2;
/** Pipelined connections the generator spreads requests over. */
constexpr std::size_t kConnections = 4;
/** Admission queue bound: deep enough that a host stall of tens of
 *  milliseconds at the `high` rate queues requests instead of
 *  refusing them, so only the ladder overloads the server. */
constexpr std::size_t kAdmissionLimit = 64;

/** Fixed absolute rates (requests/s): the schedule never adapts. */
constexpr double kLowRate = 200.0;
constexpr double kHighRate = 800.0;
/** The saturate phase is a closed loop that keeps this many requests
 *  outstanding: enough that both workers always have work queued,
 *  well under the admission limit, so nothing is refused and the ok
 *  responses per second measure the capacity. An open loop past
 *  capacity would measure which requests the admission queue happened
 *  to refuse, and the IO thread's work refusing them. */
constexpr std::size_t kSaturateOutstanding = 16 * kWorkers;
/** Requests drawn for the saturate phase, per second of its share of
 *  the run: about what two workers serve. The phase sends all of
 *  them, so its work (and the memory the never-seen documents take)
 *  is fixed by the seed and the run length, not by the host's speed. */
constexpr double kSaturateRate = 6000.0;
/** Rate ladder of the traced run (serve.max_rate_rps). */
constexpr double kLadder[] = {2000.0, 2500.0, 3000.0, 3500.0, 4000.0,
                              4500.0, 5000.0};
/** A ladder rung passes when its p99 stays under this limit, counting
 *  a failed request as a miss, and the backlog does not grow. */
constexpr double kP99LimitMs = 25.0;
/** Share of --seconds each phase takes. */
constexpr double kLowShare = 0.25;
constexpr double kHighShare = 0.3;
constexpr double kSaturateShare = 0.25;
constexpr double kRungShare = 0.05;
/** The mix is drawn in blocks of fixed composition, shuffled by the
 *  seed: per block 4 never-seen user graphs, one ResNet-50 and one
 *  Inception-v3 on the CPU, and 34 small built-in simulations. */
constexpr std::size_t kBlock = 40;
constexpr std::size_t kBlockDocs = 4;
constexpr std::size_t kBlockHeavy = 2;
/** Requests per window of the windowed saturated p99. */
constexpr std::size_t kTailWindow = 5000;
/** Consecutive ok responses per window of the capacity measurement:
 *  five mix blocks, so every window holds about the same work. */
constexpr std::size_t kCapacityWindow = 5 * kBlock;
/** Index of the first ladder rung among the phases. */
constexpr std::size_t kFirstRung = 3;
/** Sample the server's stats this often during a phase. */
constexpr double kStatsEveryMs = 50.0;
/** A phase whose responses take longer than this to drain fails. */
constexpr double kDrainTimeoutMs = 30'000.0;

/** A small never-seen transformer block, serialized. */
std::string
userGraphDoc(hpim::sim::Rng &rng, std::uint64_t serial)
{
    using namespace hpim::nn;
    const std::int64_t tokens = rng.inRange(64, 512);
    const std::int64_t width = 32 * rng.inRange(2, 4);
    Builder b("user-" + std::to_string(serial) + "-"
              + std::to_string(rng.next() & 0xffffff));
    TensorRef x = b.input(TensorShape{tokens, width});
    TensorRef q = b.dense(x, width, false);
    TensorRef k = b.dense(x, width, false);
    TensorRef v = b.dense(x, width, false);
    TensorRef w = b.softmax(b.matmul(q, b.transpose(k)));
    TensorRef attn = b.layerNorm(b.add(b.dense(b.matmul(w, v), width,
                                               false),
                                       x));
    Graph graph = b.trainingStep(b.dense(attn, 100, false));
    SpanScope span("nn.serialize");
    return graphToJson(graph);
}

/** Request @p slot of a mix block (see kBlock). */
SimulateSpec
blockSpec(std::size_t slot, std::uint64_t serial, hpim::sim::Rng &docs)
{
    using hpim::baseline::SystemKind;
    using hpim::nn::ModelId;
    SimulateSpec spec;
    if (slot < kBlockDocs) {
        spec.graph = userGraphDoc(docs, serial);
        spec.steps = 2;
        return spec;
    }
    if (slot < kBlockDocs + kBlockHeavy) {
        spec.model = hpim::serve::modelToken(
            slot % 2 ? ModelId::ResNet50 : ModelId::InceptionV3);
        spec.system = hpim::serve::systemToken(SystemKind::CpuOnly);
        return spec;
    }
    // The small specs cycle through model x system x frequency.
    const ModelId small[] = {ModelId::AlexNet, ModelId::Lstm,
                             ModelId::Word2vec};
    const SystemKind systems[] = {SystemKind::HeteroPim,
                                  SystemKind::FixedPimOnly,
                                  SystemKind::ProgrPimOnly};
    const double freqs[] = {1.0, 1.5, 2.0};
    const std::size_t combo = serial % 27;
    spec.model = hpim::serve::modelToken(small[combo % 3]);
    spec.system = hpim::serve::systemToken(systems[combo / 3 % 3]);
    spec.freqScale = freqs[combo / 9];
    return spec;
}

} // namespace

std::vector<Phase>
serveSchedule(std::uint64_t seed, double seconds, bool ladder)
{
    Gen mix(seed, Stream::ServeMix);
    Gen docs(seed, Stream::ServeDocs);
    std::uint64_t serial = 0;
    std::vector<std::size_t> block;
    auto phase = [&](std::string name, double rate, double phase_s) {
        Phase p{std::move(name), rate, {}};
        const auto count = static_cast<std::size_t>(rate * phase_s);
        for (std::size_t i = 0; i < count; ++i) {
            if (block.empty())
                block = mix.permutation(kBlock);
            const std::size_t slot = block.back();
            block.pop_back();
            p.arrivals.push_back({1e3 * double(i) / rate,
                                  blockSpec(slot, ++serial, docs.rng())});
        }
        return p;
    };
    std::vector<Phase> phases;
    phases.push_back(phase("low", kLowRate, seconds * kLowShare));
    phases.push_back(phase("high", kHighRate, seconds * kHighShare));
    phases.push_back(
        phase("saturate", kSaturateRate, seconds * kSaturateShare));
    phases.back().outstanding = kSaturateOutstanding;
    if (ladder) {
        for (double rate : kLadder) {
            phases.push_back(phase("ladder-" + std::to_string(int(rate)),
                                   rate, seconds * kRungShare));
        }
    }
    return phases;
}

namespace {

/** The server's `stats` object fields this benchmark reads. */
struct ServerStats
{
    double queued = 0;
    double rejectedOverload = 0;
    double deadlineQueued = 0;
    double deadlineRunning = 0;
    hpim::sim::MemoCache::Stats memo;
};

ServerStats
parseStats(const std::string &json)
{
    const hpim::harness::json::Value root =
        hpim::harness::json::parse(json);
    auto num = [](const hpim::harness::json::Value &object,
                  const char *key) {
        const hpim::harness::json::Value *v = object.find(key);
        if (v == nullptr)
            throw BenchError(std::string("stats response lacks ") + key);
        return v->asUInt64();
    };
    ServerStats out;
    out.queued = double(num(root, "queued"));
    out.rejectedOverload = double(num(root, "rejected_overload"));
    out.deadlineQueued = double(num(root, "deadline_queued"));
    out.deadlineRunning = double(num(root, "deadline_running"));
    const hpim::harness::json::Value &memo = root.at("memo");
    out.memo.hits = num(memo, "hits");
    out.memo.partialHits = num(memo, "partial_hits");
    out.memo.misses = num(memo, "misses");
    out.memo.insertions = num(memo, "insertions");
    out.memo.evictions = num(memo, "evictions");
    out.memo.entries = num(memo, "entries");
    return out;
}

/** What one phase measured. */
struct PhaseResult
{
    std::string name;
    double rate = 0.0;
    std::vector<double> latencyMs;  ///< ok responses, from due time
    std::vector<double> lateMs;     ///< send lateness, every request
    std::vector<double> queueMs;    ///< server admission-queue wait
    std::vector<double> runMs;      ///< server simulation time
    std::vector<double> overheadMs; ///< latency - queue - run
    std::vector<double> encodeUs;
    std::vector<double> decodeUs;
    std::size_t sent = 0;
    std::size_t answered = 0;
    std::size_t failed = 0;     ///< not ok, unanswered or mismatched
    std::size_t mismatched = 0; ///< ok but differing from the oracle
    double wallMs = 0.0;        ///< first due send to last response
    std::vector<double> okDoneMs; ///< arrival of each ok response
    std::vector<std::uint64_t> okOps; ///< simulated ops of each
    double maxQueued = 0.0;
    bool backlogGrowing = false;
    ServerStats statsBefore, statsAfter;
    /** (arrival index, report digest) of ok user-graph responses,
     *  checked against local runSimulate after the run. A digest
     *  keeps memory flat however many responses a phase gets. */
    std::vector<std::pair<std::size_t, std::uint64_t>> deferred;
    std::vector<std::string> errors;
};

/** Unix socket to the server; blocking sends, non-blocking reads. */
class Connection
{
  public:
    explicit Connection(const std::string &path)
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            throw BenchError("socket path too long: " + path);
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        _fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (_fd < 0)
            throw BenchError(std::string("socket: ")
                             + std::strerror(errno));
        if (::connect(_fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof addr)
            != 0) {
            const int err = errno;
            ::close(_fd);
            throw BenchError("connect " + path + ": "
                             + std::strerror(err));
        }
    }

    ~Connection()
    {
        if (_fd >= 0)
            ::close(_fd);
    }

    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    int fd() const { return _fd; }

    void
    send(const std::string &payload)
    {
        std::string frame;
        hpim::serve::appendFrame(frame, payload);
        std::size_t off = 0;
        while (off < frame.size()) {
            ssize_t n = ::send(_fd, frame.data() + off, frame.size() - off,
                               MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                throw BenchError(std::string("send: ")
                                 + std::strerror(errno));
            off += std::size_t(n);
        }
    }

    /** Read what is available; append complete frames to @p out. */
    void
    receive(std::vector<std::string> &out)
    {
        char buf[65536];
        while (true) {
            ssize_t n = ::recv(_fd, buf, sizeof buf, MSG_DONTWAIT);
            if (n > 0) {
                _rbuf.append(buf, std::size_t(n));
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            throw BenchError("server closed a connection");
        }
        std::size_t consumed = 0;
        while (true) {
            hpim::serve::FrameSplit split = hpim::serve::splitFrame(
                std::string_view(_rbuf).substr(consumed),
                hpim::serve::defaultMaxFrameBytes);
            if (split.status == hpim::serve::FrameSplit::Status::NeedMore)
                break;
            if (split.status == hpim::serve::FrameSplit::Status::Invalid)
                throw BenchError("invalid response frame");
            out.emplace_back(split.payload);
            consumed += split.frameEnd;
        }
        _rbuf.erase(0, consumed);
    }

  private:
    int _fd = -1;
    std::string _rbuf;
};

/** The in-process server on its own IO thread. */
class ServerHandle
{
  public:
    explicit ServerHandle(const std::string &path)
    {
        hpim::serve::ServerOptions options;
        options.socketPath = path;
        options.workers = kWorkers;
        options.admissionLimit = kAdmissionLimit;
        _server = std::make_unique<hpim::serve::Server>(options);
        _thread = std::thread([this] { _server->run(); });
    }

    ~ServerHandle()
    {
        _server->requestStop();
        _thread.join();
    }

    ServerHandle(const ServerHandle &) = delete;
    ServerHandle &operator=(const ServerHandle &) = delete;

  private:
    std::unique_ptr<hpim::serve::Server> _server;
    std::thread _thread;
};

/** Sends one phase on schedule and collects every response. */
class Generator
{
  public:
    explicit Generator(const std::string &path)
    {
        for (std::size_t i = 0; i < kConnections; ++i)
            _conns.push_back(std::make_unique<Connection>(path));
    }

    /** Ask for and wait on one stats snapshot. Called only between
     *  phases, when no simulate response is outstanding, so any other
     *  frame read here can be dropped. */
    ServerStats
    stats()
    {
        Request request;
        request.kind = RequestKind::Stats;
        request.id = ++_next_id;
        _conns[0]->send(hpim::serve::encodeRequest(request));
        const Clock::time_point start = Clock::now();
        while (msSince(start) < kDrainTimeoutMs) {
            pollOnce(10.0);
            for (auto &[conn, payload] : takeFrames()) {
                Response r = hpim::serve::parseResponse(payload);
                if (r.id == request.id && r.ok && r.kind == "stats")
                    return parseStats(r.statsJson);
            }
        }
        throw BenchError("no stats response");
    }

    /**
     * Run @p phase. @p expected(i) gives the local report bytes of
     * arrival i when they are known up front (built-in specs); other
     * ok reports are kept for a deferred check.
     */
    PhaseResult
    run(const Phase &phase,
        const std::function<const std::string *(std::size_t)> &expected,
        long corrupt_index)
    {
        PhaseResult out;
        out.name = phase.name;
        out.rate = phase.rate;
        out.statsBefore = stats();
        const std::size_t n = phase.arrivals.size();
        std::map<std::uint64_t, std::size_t> pending; // id -> arrival
        std::vector<Lateness> times(n);
        std::vector<double> outstanding_at(n, 0.0);
        std::uint64_t stats_id = 0;
        double next_stats = 0.0;
        const bool closed = phase.outstanding > 0;
        std::size_t next = 0;
        // Open loop: send each arrival when due. Closed loop: send
        // whenever fewer than phase.outstanding are pending; each
        // request is due when it is sent.
        auto may_send = [&](double now) {
            return closed ? pending.size() < phase.outstanding
                          : phase.arrivals[next].dueMs <= now;
        };
        const Clock::time_point t0 = Clock::now();
        double last_due = 0.0;
        while (next < n || !pending.empty() || stats_id != 0) {
            const double now = msSince(t0);
            if (next == n && now > last_due + kDrainTimeoutMs) {
                out.errors.push_back(phase.name + ": "
                                     + std::to_string(pending.size())
                                     + " requests never answered");
                out.failed += pending.size();
                break;
            }
            while (next < n && may_send(msSince(t0))) {
                Request request;
                request.kind = RequestKind::Simulate;
                request.id = ++_next_id;
                request.sim = phase.arrivals[next].spec;
                std::string payload;
                {
                    SpanScope span("serve.encode", request.id);
                    const Clock::time_point e0 = Clock::now();
                    payload = hpim::serve::encodeRequest(request);
                    out.encodeUs.push_back(msSince(e0) * 1e3);
                }
                {
                    SpanScope span("serve.io", request.id);
                    _conns[next % kConnections]->send(payload);
                }
                times[next].sentMs = msSince(t0);
                times[next].dueMs =
                    closed ? times[next].sentMs : phase.arrivals[next].dueMs;
                last_due = times[next].dueMs;
                pending.emplace(request.id, next);
                outstanding_at[next] = double(pending.size());
                ++out.sent;
                ++next;
            }
            if (stats_id == 0 && next < n && now >= next_stats) {
                Request request;
                request.kind = RequestKind::Stats;
                request.id = stats_id = ++_next_id;
                _conns[0]->send(hpim::serve::encodeRequest(request));
                next_stats = now + kStatsEveryMs;
            }
            double wait_ms = 20.0;
            if (next < n && !closed)
                wait_ms = std::max(0.0,
                                   phase.arrivals[next].dueMs - msSince(t0));
            pollOnce(wait_ms);
            for (auto &[conn, payload] : takeFrames()) {
                const double done = msSince(t0);
                Response r;
                {
                    SpanScope span("serve.decode");
                    const Clock::time_point d0 = Clock::now();
                    r = hpim::serve::parseResponse(payload);
                    out.decodeUs.push_back(msSince(d0) * 1e3);
                }
                if (r.id == stats_id) {
                    stats_id = 0;
                    out.maxQueued = std::max(
                        out.maxQueued, parseStats(r.statsJson).queued);
                    continue;
                }
                auto it = pending.find(r.id);
                if (it == pending.end())
                    throw BenchError("response for unknown request id "
                                     + std::to_string(r.id));
                const std::size_t i = it->second;
                pending.erase(it);
                ++out.answered;
                if (!r.ok || !r.hasReport) {
                    ++out.failed;
                    if (out.errors.size() < 4)
                        out.errors.push_back(
                            phase.name + ": request " + std::to_string(i)
                            + " answered " + errorName(r) + ": "
                            + r.message);
                    continue;
                }
                // The embedded report bytes are exactly
                // harness::jsonString(report); check them in place.
                std::string bytes = hpim::harness::jsonString(r.report);
                if (payload.find(bytes) == std::string::npos) {
                    ++out.failed;
                    ++out.mismatched;
                    out.errors.push_back(phase.name + ": request "
                                         + std::to_string(i)
                                         + " report does not round-trip");
                    continue;
                }
                if (long(i) == corrupt_index)
                    corrupt(bytes);
                if (const std::string *want = expected(i)) {
                    if (*want != bytes) {
                        ++out.failed;
                        ++out.mismatched;
                        out.errors.push_back(
                            phase.name + ": request " + std::to_string(i)
                            + " differs from local runSimulate");
                        continue;
                    }
                } else {
                    out.deferred.emplace_back(i, digest(bytes));
                }
                times[i].doneMs = done;
                const double latency = times[i].latencyMs();
                out.latencyMs.push_back(latency);
                out.okDoneMs.push_back(done);
                out.okOps.push_back(opsCompleted(r.report));
                out.queueMs.push_back(r.queueMs);
                out.runMs.push_back(r.runMs);
                out.overheadMs.push_back(latency - r.queueMs - r.runMs);
            }
        }
        out.wallMs = msSince(t0);
        // A closed loop sends when it may; it cannot run late.
        times.resize(closed ? 0 : n);
        for (const Lateness &t : times)
            out.lateMs.push_back(t.lateMs());
        // A growing backlog: the outstanding count over the last
        // quarter of the sends well above that of the second quarter.
        if (n >= 8) {
            auto mean = [&](std::size_t a, std::size_t b) {
                double sum = 0.0;
                for (std::size_t i = a; i < b; ++i)
                    sum += outstanding_at[i];
                return sum / double(b - a);
            };
            out.backlogGrowing =
                mean(3 * n / 4, n) > 2.0 * mean(n / 4, n / 2) + 2.0;
        }
        out.statsAfter = stats();
        return out;
    }

  private:
    static std::string
    errorName(const Response &r)
    {
        return r.ok ? "ok without report"
                    : hpim::serve::errorCodeName(r.code);
    }

    void
    pollOnce(double wait_ms)
    {
        SpanScope span("bench.wait");
        std::vector<pollfd> fds;
        for (const auto &conn : _conns)
            fds.push_back({conn->fd(), POLLIN, 0});
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(wait_ms / 1e3);
        ts.tv_nsec = static_cast<long>(
            (wait_ms - double(ts.tv_sec) * 1e3) * 1e6);
        int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (rc < 0 && errno != EINTR)
            throw BenchError(std::string("ppoll: ")
                             + std::strerror(errno));
        _ready.clear();
        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents != 0)
                _ready.push_back(i);
        }
    }

    std::vector<std::pair<std::size_t, std::string>>
    takeFrames()
    {
        SpanScope span("serve.io");
        std::vector<std::pair<std::size_t, std::string>> frames;
        for (std::size_t c : _ready) {
            std::vector<std::string> payloads;
            _conns[c]->receive(payloads);
            for (std::string &p : payloads)
                frames.emplace_back(c, std::move(p));
        }
        _ready.clear();
        return frames;
    }

    std::vector<std::unique_ptr<Connection>> _conns;
    std::vector<std::size_t> _ready;
    std::uint64_t _next_id = 0;
};

std::string
specKey(const SimulateSpec &spec)
{
    Request request;
    request.kind = RequestKind::Simulate;
    request.sim = spec;
    return hpim::serve::encodeRequest(request);
}

/** Ok responses and simulated ops per second while saturated. */
struct Capacity
{
    double requestsPerSec = 0.0;
    double opsPerSec = 0.0;
};

/**
 * Capacity: the median over windows of kCapacityWindow consecutive ok
 * responses of the saturate phase, so a stall moves one window rather
 * than the result. The first window, while the loop fills, is left
 * out.
 */
Capacity
capacity(const PhaseResult &result)
{
    const std::vector<double> &done = result.okDoneMs;
    std::vector<double> requests, ops;
    for (std::size_t a = kCapacityWindow;
         a + kCapacityWindow < done.size(); a += kCapacityWindow) {
        const std::size_t b = a + kCapacityWindow;
        const double sec = (done[b] - done[a]) / 1e3;
        if (!(sec > 0.0))
            continue;
        std::uint64_t window_ops = 0;
        for (std::size_t i = a + 1; i <= b; ++i)
            window_ops += result.okOps[i];
        requests.push_back(double(kCapacityWindow) / sec);
        ops.push_back(double(window_ops) / sec);
    }
    return {requirePercentile(requests, 50, "capacity windows"),
            requirePercentile(ops, 50, "capacity op windows")};
}

/**
 * Share of a rung's requests that missed the p99 limit. A failed or
 * refused request met no latency limit, so it counts as a miss.
 */
double
missShare(const PhaseResult &rung)
{
    const auto late = std::count_if(
        rung.latencyMs.begin(), rung.latencyMs.end(),
        [](double ms) { return ms >= kP99LimitMs; });
    return double(rung.sent - rung.latencyMs.size() + std::size_t(late))
           / double(std::max<std::size_t>(rung.sent, 1));
}

/** p99 (failures counting as misses) under the limit, enough samples
 *  for a p99, and no growing backlog. */
bool
rungPasses(const PhaseResult &rung)
{
    return samplesBeyond(rung.sent, 99.0) >= minSamplesBeyond
           && missShare(rung) <= 0.01 && !rung.backlogGrowing;
}

/**
 * The highest rate that meets the p99 limit: linear in the miss share
 * between the last passing rung and the first failing one, so the
 * result moves smoothly instead of by whole rungs.
 */
double
maxRate(const std::vector<PhaseResult> &ladder)
{
    for (std::size_t i = 0; i < ladder.size(); ++i) {
        if (rungPasses(ladder[i]))
            continue;
        // Below the first rung, interpolate from an idle server.
        const double ra = i > 0 ? ladder[i - 1].rate : 0.0;
        const double rb = ladder[i].rate;
        const double ma = i > 0 ? missShare(ladder[i - 1]) : 0.0;
        const double mb = missShare(ladder[i]);
        const double t =
            mb > ma ? std::clamp((0.01 - ma) / (mb - ma), 0.0, 1.0) : 0.0;
        return ra + t * (rb - ra);
    }
    // Every rung passed: the top rate is a lower bound.
    return ladder.empty() ? 0.0 : ladder.back().rate;
}

std::vector<double>
concat(const std::vector<PhaseResult> &phases,
       std::vector<double> PhaseResult::*field)
{
    std::vector<double> all;
    for (const PhaseResult &p : phases)
        all.insert(all.end(), (p.*field).begin(), (p.*field).end());
    return all;
}

} // namespace

RunResult
runServeOpenLoop(const RunOptions &options)
{
    RunResult result;
    ::mkdir(".bench_build", 0755);
    const std::string socket_base = ".bench_build/pb-"
                                    + std::to_string(::getpid());

    // Set-up: generate the schedule (including every never-seen user
    // graph document), start the server, and warm it with each
    // distinct built-in spec, whose local runSimulate bytes become
    // the oracle. Repeated from a cleared cache; the last server
    // stays up for the measurement.
    std::vector<Phase> schedule;
    std::map<std::string, std::string> builtin_bytes;
    std::unique_ptr<ServerHandle> server;
    std::unique_ptr<Generator> gen;
    int rep = 0;
    auto setup = [&]() {
        gen.reset();
        server.reset();
        hpim::sim::MemoCache::instance().clear();
        schedule = serveSchedule(options.seed, options.seconds,
                                 options.trace);
        const std::string path =
            socket_base + "-" + std::to_string(rep++) + ".sock";
        server = std::make_unique<ServerHandle>(path);
        gen = std::make_unique<Generator>(path);
        Phase warm{"warm", 1000.0, {}};
        std::map<std::string, SimulateSpec> distinct;
        for (const Phase &phase : schedule) {
            for (const Arrival &a : phase.arrivals) {
                if (a.spec.graph.empty())
                    distinct.emplace(specKey(a.spec), a.spec);
            }
        }
        for (const auto &[key, spec] : distinct) {
            // Paced, so the warm-up never trips admission control.
            warm.arrivals.push_back(
                {5.0 * double(warm.arrivals.size()), spec});
            const std::string bytes =
                hpim::harness::jsonString(hpim::serve::runSimulate(spec));
            auto [it, fresh] = builtin_bytes.emplace(key, bytes);
            if (!fresh && it->second != bytes)
                throw BenchError("serve oracle is not reproducible");
        }
        PhaseResult warmed = gen->run(
            warm,
            [&](std::size_t i) {
                return &builtin_bytes.at(specKey(warm.arrivals[i].spec));
            },
            -1);
        if (warmed.failed != 0 || warmed.answered != warmed.sent)
            throw BenchError("serve warm-up failed: "
                             + (warmed.errors.empty()
                                    ? std::string("unanswered requests")
                                    : warmed.errors.front()));
    };
    Tracer tracer;
    // setup_s is an untraced metric; a traced run sets up once.
    const double setup_s = medianSetupSeconds(setup, options.trace ? 1 : 5);

    auto run_schedule = [&](bool traced, std::size_t phases) {
        std::vector<PhaseResult> results;
        if (traced)
            Tracer::install(&tracer);
        for (const Phase &phase : schedule) {
            // The ladder stops at its first failing rung.
            if (results.size() == phases
                || (results.size() > kFirstRung
                    && !rungPasses(results.back())))
                break;
            std::vector<std::string> keys;
            for (const Arrival &a : phase.arrivals)
                keys.push_back(a.spec.graph.empty() ? specKey(a.spec)
                                                    : std::string());
            results.push_back(gen->run(
                phase,
                [&](std::size_t i) -> const std::string * {
                    if (keys[i].empty())
                        return nullptr;
                    return &builtin_bytes.at(keys[i]);
                },
                phase.name == "high" ? options.corruptIndex : -1));
        }
        Tracer::install(nullptr);
        return results;
    };

    // Traced mode runs the low phase untraced as the overhead
    // baseline, then the whole schedule traced. Every run is checked
    // the same way.
    std::vector<PhaseResult> plain =
        run_schedule(false, options.trace ? 1 : schedule.size());
    std::vector<PhaseResult> traced;
    if (options.trace) {
        // The second pass must see never-seen documents again.
        hpim::sim::MemoCache::instance().clear();
        traced = run_schedule(true, schedule.size());
    }
    gen.reset();
    server.reset();

    // Deferred oracle: user-graph reports against local runSimulate.
    auto verify = [&](std::vector<PhaseResult> &phases) {
        for (std::size_t p = 0; p < phases.size(); ++p) {
            for (const auto &[i, got] : phases[p].deferred) {
                const std::string want = hpim::harness::jsonString(
                    hpim::serve::runSimulate(
                        schedule[p].arrivals[i].spec));
                if (digest(want) != got) {
                    ++phases[p].failed;
                    ++phases[p].mismatched;
                    phases[p].errors.push_back(
                        phases[p].name + ": user-graph request "
                        + std::to_string(i)
                        + " differs from local runSimulate");
                }
            }
        }
    };
    verify(plain);
    verify(traced);

    // error_ratio counts every phase but the ladder, whose top rungs
    // overload the server by design; an oracle mismatch in any phase
    // is a failure too.
    for (const std::vector<PhaseResult> *run : {&plain, &traced}) {
        for (const PhaseResult &phase : *run) {
            const bool counted = phase.name == "low" || phase.name == "high"
                                 || phase.name == "saturate";
            if (counted)
                result.attempted += phase.sent;
            const std::size_t failed =
                counted ? phase.failed : phase.mismatched;
            result.failed += failed;
            for (std::size_t e = 0;
                 e < phase.errors.size() && failed > 0
                 && result.errors.size() < 8;
                 ++e)
                result.errors.push_back(phase.errors[e]);
        }
    }

    const std::vector<PhaseResult> &main_run = options.trace ? traced
                                                              : plain;
    const PhaseResult &low = main_run.at(0);
    const PhaseResult &high = main_run.at(1);
    const PhaseResult &saturate = main_run.at(2);
    for (const PhaseResult &p : main_run) {
        result.notes.push_back(
            p.name + " @" + std::to_string(int(p.rate)) + " req/s: sent "
            + std::to_string(p.sent) + ", answered "
            + std::to_string(p.answered) + ", failed "
            + std::to_string(p.failed) + ", missed limit "
            + std::to_string(100.0 * missShare(p)) + "%, latency "
            + describe(summarize(p.latencyMs), "ms")
            + (p.backlogGrowing ? ", backlog growing" : "")
            + ", max queued " + std::to_string(int(p.maxQueued)));
    }
    if (!options.trace) {
        const Capacity cap = capacity(saturate);
        addEndToEnd(result, cap.requestsPerSec, cap.opsPerSec,
                    requirePercentile(saturate.latencyMs, 50,
                                      "saturated latency"),
                    windowedPercentile(saturate.latencyMs, 99, kTailWindow,
                                       "saturated latency"),
                    setup_s);
        result.notes.push_back(
            "throughput, sim ops and latency are of the closed-loop "
            "saturate phase (" + std::to_string(kSaturateOutstanding)
            + " outstanding); p99_ms is the median p99 of "
            + std::to_string(kTailWindow) + "-request windows");
        return result;
    }

    const std::vector<Span> spans = tracer.spans();
    const std::vector<SpanStats> stats = aggregate(spans, false);
    std::vector<Metric> layer;
    auto p50 = [](const std::vector<double> &v, const char *what) {
        return requirePercentile(v, 50, what);
    };
    layer.push_back({"serve.encode_us",
                     p50(concat(main_run, &PhaseResult::encodeUs),
                         "serve.encode_us"),
                     ""});
    layer.push_back({"serve.decode_us",
                     p50(concat(main_run, &PhaseResult::decodeUs),
                         "serve.decode_us"),
                     ""});
    const std::vector<double> queue = concat(main_run, &PhaseResult::queueMs);
    const std::vector<double> run = concat(main_run, &PhaseResult::runMs);
    layer.push_back({"serve.queue_ms.p50", p50(queue, "serve.queue_ms"), ""});
    layer.push_back({"serve.queue_ms.p99",
                     requirePercentile(queue, 99, "serve.queue_ms"), ""});
    layer.push_back({"serve.run_ms.p50", p50(run, "serve.run_ms"), ""});
    layer.push_back({"serve.run_ms.p99",
                     requirePercentile(run, 99, "serve.run_ms"), ""});
    layer.push_back({"serve.overhead_ms",
                     p50(low.overheadMs, "serve.overhead_ms"), ""});
    const ServerStats &first = main_run.front().statsBefore;
    const ServerStats &last = main_run.back().statsAfter;
    layer.push_back({"serve.rejected.overload",
                     last.rejectedOverload - first.rejectedOverload, ""});
    layer.push_back({"serve.deadline.queued",
                     last.deadlineQueued - first.deadlineQueued, ""});
    layer.push_back({"serve.deadline.running",
                     last.deadlineRunning - first.deadlineRunning, ""});
    addMemoMetrics(layer, last.memo, first.memo);
    double max_queued = 0.0;
    for (const PhaseResult &p : main_run)
        max_queued = std::max(max_queued, p.maxQueued);
    layer.push_back({"serve.queue.depth", max_queued, ""});
    layer.push_back({"serve.req_p50_ms.low", p50(low.latencyMs, "low"), ""});
    layer.push_back({"serve.req_p99_ms.low",
                     requirePercentile(low.latencyMs, 99, "low latency"),
                     ""});
    layer.push_back({"serve.req_p50_ms.high", p50(high.latencyMs, "high"),
                     ""});
    layer.push_back({"serve.req_p99_ms.high",
                     requirePercentile(high.latencyMs, 99, "high latency"),
                     ""});
    layer.push_back(
        {"serve.max_rate_rps",
         maxRate({main_run.begin() + kFirstRung, main_run.end()}), ""});
    layer.push_back({"loadgen.late_ms_p99",
                     requirePercentile(concat(main_run, &PhaseResult::lateMs),
                                       99, "loadgen lateness"),
                     ""});
    double traced_wall = 0.0;
    for (const PhaseResult &p : main_run)
        traced_wall += p.wallMs;
    // The generator is the one traced thread; the server's workers
    // are seen through serve.queue_ms / serve.run_ms.
    addSelfTimes(layer, stats, traced_wall, 1,
                 100.0
                     * (p50(low.latencyMs, "low")
                            / p50(plain[0].latencyMs, "low")
                        - 1.0),
                 result);
    result.metrics = perLayerMetrics(layer);
    writeSpans(tracer, "serve_open_loop", options.seed);
    return result;
}

} // namespace perfbench
