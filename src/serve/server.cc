#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "harness/failpoint.hh"
#include "harness/json.hh"
#include "harness/json_writer.hh"
#include "serve/io_retry.hh"
#include "serve/simulate.hh"
#include "sim/deadline.hh"
#include "sim/logging.hh"
#include "sim/memo_cache.hh"

namespace hpim::serve {

using Clock = std::chrono::steady_clock;

using hpim::harness::FailPoint;
using hpim::harness::fpCheck;
using hpim::harness::fpRecv;
using hpim::harness::fpSend;

namespace {

// Daemon-side socket framing injection sites (docs/RESILIENCE.md,
// "Host-IO fault injection"). Relaxed-load no-ops until armed.
FailPoint fpServeSend("serve.send");
FailPoint fpServeRecv("serve.recv");
// The trace file is written by obs, which cannot name FailPoint
// (link order); the site fires here at the call boundary.
FailPoint fpServeTraceExport("serve.trace.export");

double
elapsedMs(Clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(Clock::now()
                                                     - since)
        .count();
}

} // namespace

/** One client connection's IO state. All IO is non-blocking. */
struct Server::Connection
{
    int fd = -1;
    std::uint64_t id = 0;
    std::string rbuf;          ///< unparsed request bytes
    std::string wbuf;          ///< unsent response bytes
    std::size_t woff = 0;      ///< bytes of wbuf already written
    Clock::time_point lastProgress{};
    bool closeAfterFlush = false; ///< unrecoverable framing state
};

/** A worker's finished response, addressed by connection id (the
 *  connection may have died in the meantime; then it is dropped). */
struct Server::Completion
{
    std::uint64_t connId = 0;
    std::string payload;
};

struct Server::Instruments
{
    explicit Instruments(hpim::obs::MetricsRegistry &reg)
        : requests(reg.counter("serve.requests")),
          connections(reg.counter("serve.connections.accepted")),
          admitted(reg.counter("serve.admitted")),
          completed(reg.counter("serve.completed")),
          rejectedOverload(reg.counter("serve.rejected.overload")),
          rejectedShutdown(reg.counter("serve.rejected.shutdown")),
          badRequest(reg.counter("serve.rejected.bad_request")),
          frameTooLarge(reg.counter("serve.rejected.frame_too_large")),
          deadlineQueued(reg.counter("serve.deadline.queued")),
          deadlineRunning(reg.counter("serve.deadline.running")),
          internalErrors(reg.counter("serve.internal_errors")),
          ioTimeouts(reg.counter("serve.io_timeouts")),
          droppedResponses(reg.counter("serve.responses.dropped")),
          queueDepth(reg.gauge("serve.queue.depth")),
          connectionsOpen(reg.gauge("serve.connections.open")),
          drainMs(reg.gauge("serve.drain_ms")),
          queueMs(reg.histogram("serve.queue_ms")),
          runMs(reg.histogram("serve.run_ms"))
    {
    }

    hpim::obs::Counter &requests;
    hpim::obs::Counter &connections;
    hpim::obs::Counter &admitted;
    hpim::obs::Counter &completed;
    hpim::obs::Counter &rejectedOverload;
    hpim::obs::Counter &rejectedShutdown;
    hpim::obs::Counter &badRequest;
    hpim::obs::Counter &frameTooLarge;
    hpim::obs::Counter &deadlineQueued;
    hpim::obs::Counter &deadlineRunning;
    hpim::obs::Counter &internalErrors;
    hpim::obs::Counter &ioTimeouts;
    hpim::obs::Counter &droppedResponses;
    hpim::obs::Gauge &queueDepth;
    hpim::obs::Gauge &connectionsOpen;
    hpim::obs::Gauge &drainMs;
    hpim::obs::Histogram &queueMs;
    hpim::obs::Histogram &runMs;
};

Server::Server(ServerOptions options) : _options(std::move(options))
{
    fatal_if(_options.socketPath.empty(),
             "hpim_serve needs a socket path");
    fatal_if(_options.admissionLimit == 0,
             "admission limit must be >= 1");
    fatal_if(_options.maxFrameBytes < 64,
             "max frame size too small to hold any request");
    hpim::harness::configureFailPointsFromEnv();

    int pipe_fds[2];
    fatal_if(pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0,
             "pipe2: ", std::strerror(errno));
    _wake_read_fd = pipe_fds[0];
    _wake_write_fd = pipe_fds[1];

    bindAndListen();

    std::uint32_t workers = _options.workers;
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    // Never 0 threads: ThreadPool's inline mode would run
    // simulations on the IO thread and wedge the accept loop. The
    // queue bound sits above the admission limit so submit() of an
    // admitted request can never block the IO thread either.
    _pool = std::make_unique<hpim::harness::ThreadPool>(
        workers, _options.admissionLimit + workers + 8);

    _ins = std::make_unique<Instruments>(_metrics);

    if (!_options.traceFile.empty()) {
        _trace = std::make_unique<hpim::obs::TraceSession>();
        _trace->attach();
    }
}

Server::~Server()
{
    for (auto &[id, conn] : _conns)
        ::close(conn.fd);
    _conns.clear();
    closeListen();
    if (_wake_read_fd >= 0)
        ::close(_wake_read_fd);
    if (_wake_write_fd >= 0)
        ::close(_wake_write_fd);
    // A drain hard-stop must not outlive the server (tests run
    // several servers per process).
    if (_global_stop_armed)
        hpim::sim::disarmGlobalStop();
    if (_trace != nullptr) {
        _trace->detach();
        // The daemon already served its traffic; a trace that cannot
        // be written costs an artifact, never the exit status.
        try {
            fpCheck(fpServeTraceExport, "write", _options.traceFile);
            _trace->exportChromeTrace(_options.traceFile);
            std::fprintf(stderr,
                         "[serve] wrote trace %s (%zu events)\n",
                         _options.traceFile.c_str(),
                         _trace->eventCount());
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "[serve] trace export of %s failed: %s\n",
                         _options.traceFile.c_str(), e.what());
        }
    }
}

void
Server::bindAndListen()
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    fatal_if(_options.socketPath.size() >= sizeof(addr.sun_path),
             "socket path '", _options.socketPath,
             "' exceeds the AF_UNIX limit of ",
             sizeof(addr.sun_path) - 1, " bytes");
    std::strncpy(addr.sun_path, _options.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    _listen_fd = ::socket(AF_UNIX,
                          SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                          0);
    fatal_if(_listen_fd < 0, "socket: ", std::strerror(errno));

    if (::bind(_listen_fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr))
        != 0) {
        fatal_if(errno != EADDRINUSE, "bind '", _options.socketPath,
                 "': ", std::strerror(errno));
        // The path exists. Probe it: a live daemon accepts the
        // connect and we must refuse to replace it; a dead one left
        // a stale file we can safely unlink.
        int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        fatal_if(probe < 0, "socket: ", std::strerror(errno));
        int connected = ::connect(
            probe, reinterpret_cast<sockaddr *>(&addr), sizeof(addr));
        ::close(probe);
        fatal_if(connected == 0, "another daemon is already serving "
                                 "on '",
                 _options.socketPath, "'");
        fatal_if(::unlink(_options.socketPath.c_str()) != 0,
                 "cannot remove stale socket '", _options.socketPath,
                 "': ", std::strerror(errno));
        fatal_if(::bind(_listen_fd,
                        reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr))
                     != 0,
                 "bind '", _options.socketPath,
                 "': ", std::strerror(errno));
    }
    fatal_if(::listen(_listen_fd, 64) != 0,
             "listen: ", std::strerror(errno));
}

void
Server::closeListen()
{
    if (_listen_fd >= 0) {
        ::close(_listen_fd);
        _listen_fd = -1;
        ::unlink(_options.socketPath.c_str());
    }
}

void
Server::requestStop()
{
    _stop_requested.store(true, std::memory_order_release);
    // Wake the poll loop. Async-signal-safe; a full pipe is fine
    // (the loop is already due to wake).
    if (_wake_write_fd >= 0) {
        char byte = 1;
        [[maybe_unused]] ssize_t n =
            ::write(_wake_write_fd, &byte, 1);
    }
}

void
Server::wakeLoop()
{
    char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(_wake_write_fd, &byte, 1);
}

void
Server::acceptReady()
{
    while (_conns.size() < _options.maxConnections) {
        int fd = ::accept4(_listen_fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0)
            break; // EAGAIN or transient error; poll retries
        Connection conn;
        conn.fd = fd;
        conn.id = _next_conn_id++;
        conn.lastProgress = Clock::now();
        _conns.emplace(conn.id, std::move(conn));
        _ins->connections.add();
        _ins->connectionsOpen.set(
            static_cast<double>(_conns.size()));
    }
}

void
Server::readReady(Connection &conn)
{
    char chunk[65536];
    bool eof = false;
    while (true) {
        ssize_t n;
        try {
            n = retryIntr([&] {
                return fpRecv(fpServeRecv, conn.fd, chunk,
                              sizeof chunk);
            });
        } catch (const std::bad_alloc &) {
            eof = true; // injected alloc failure: one peer, not us
            break;
        }
        if (n > 0) {
            conn.rbuf.append(chunk, static_cast<std::size_t>(n));
            conn.lastProgress = Clock::now();
            if (static_cast<std::size_t>(n) < sizeof chunk)
                break;
            continue;
        }
        if (n == 0) {
            eof = true;
            break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        // ECONNRESET and friends -- or an EINTR storm that exhausted
        // the retry bound. Either way this one connection is torn
        // down; the daemon keeps serving.
        eof = true;
        break;
    }

    std::size_t consumed = 0;
    while (!conn.closeAfterFlush) {
        FrameSplit split = splitFrame(
            std::string_view(conn.rbuf).substr(consumed),
            _options.maxFrameBytes);
        if (split.status == FrameSplit::Status::NeedMore)
            break;
        if (split.status == FrameSplit::Status::Invalid) {
            _ins->frameTooLarge.add();
            // The stream cannot be resynchronized after a bogus
            // length; answer with the typed error and hang up once
            // it is flushed.
            queueResponse(conn,
                          encodeError(
                              0, ErrorCode::FrameTooLarge,
                              "announced frame of "
                                  + std::to_string(split.announced)
                                  + " bytes exceeds the "
                                  + std::to_string(
                                      _options.maxFrameBytes)
                                  + "-byte limit"));
            conn.closeAfterFlush = true;
            break;
        }
        handleFrame(conn, std::string(split.payload));
        consumed += split.frameEnd;
    }
    if (consumed > 0)
        conn.rbuf.erase(0, consumed);

    if (eof)
        closeConnection(conn.id);
}

void
Server::writeReady(Connection &conn)
{
    while (conn.woff < conn.wbuf.size()) {
        // MSG_NOSIGNAL: a client that hung up must surface as EPIPE
        // here, not SIGPIPE the whole daemon.
        ssize_t n;
        try {
            n = retryIntr([&] {
                return fpSend(fpServeSend, conn.fd,
                              conn.wbuf.data() + conn.woff,
                              conn.wbuf.size() - conn.woff,
                              MSG_NOSIGNAL);
            });
        } catch (const std::bad_alloc &) {
            closeConnection(conn.id);
            return;
        }
        if (n > 0) {
            conn.woff += static_cast<std::size_t>(n);
            conn.lastProgress = Clock::now();
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return;
        // EPIPE and friends, or an exhausted EINTR retry bound:
        // per-connection teardown, never daemon death.
        closeConnection(conn.id);
        return;
    }
    conn.wbuf.clear();
    conn.woff = 0;
    if (conn.closeAfterFlush)
        closeConnection(conn.id);
}

void
Server::queueResponse(Connection &conn, std::string payload)
{
    appendFrame(conn.wbuf, payload);
}

void
Server::closeConnection(std::uint64_t conn_id)
{
    auto it = _conns.find(conn_id);
    if (it == _conns.end())
        return;
    ::close(it->second.fd);
    _conns.erase(it);
    _ins->connectionsOpen.set(static_cast<double>(_conns.size()));
}

std::string
Server::statsObjectJson() const
{
    auto counter = [](const hpim::obs::Counter &c) {
        return std::to_string(c.value());
    };
    hpim::sim::MemoCache::Stats memo =
        hpim::sim::MemoCache::instance().stats();
    std::string out = "{";
    out += "\"draining\":" + std::string(_draining ? "true" : "false");
    out += ",\"queued\":" + std::to_string(_queued.load());
    out += ",\"running\":" + std::to_string(_running.load());
    out += ",\"admission_limit\":"
           + std::to_string(_options.admissionLimit);
    out += ",\"connections\":" + std::to_string(_conns.size());
    out += ",\"requests\":" + counter(_ins->requests);
    out += ",\"admitted\":" + counter(_ins->admitted);
    out += ",\"completed\":" + counter(_ins->completed);
    out += ",\"rejected_overload\":" + counter(_ins->rejectedOverload);
    out += ",\"rejected_shutdown\":" + counter(_ins->rejectedShutdown);
    out += ",\"bad_request\":" + counter(_ins->badRequest);
    out += ",\"frame_too_large\":" + counter(_ins->frameTooLarge);
    out += ",\"deadline_queued\":" + counter(_ins->deadlineQueued);
    out += ",\"deadline_running\":" + counter(_ins->deadlineRunning);
    out += ",\"internal_errors\":" + counter(_ins->internalErrors);
    out += ",\"io_timeouts\":" + counter(_ins->ioTimeouts);
    out += ",\"dropped_responses\":"
           + counter(_ins->droppedResponses);
    out += ",\"memo\":{\"hits\":" + std::to_string(memo.hits)
           + ",\"misses\":" + std::to_string(memo.misses)
           + ",\"partial_hits\":" + std::to_string(memo.partialHits)
           + ",\"insertions\":" + std::to_string(memo.insertions)
           + ",\"evictions\":" + std::to_string(memo.evictions)
           + ",\"entries\":" + std::to_string(memo.entries)
           + ",\"max_entries\":"
           + std::to_string(
                 hpim::sim::MemoCache::instance().maxEntries())
           + "}";
    out += "}";
    return out;
}

void
Server::handleFrame(Connection &conn, const std::string &payload)
{
    _ins->requests.add();
    Request request;
    try {
        request = parseRequest(payload);
    } catch (const ProtocolError &e) {
        _ins->badRequest.add();
        // Best-effort id echo so the client can match the error to
        // its request even when validation failed late.
        std::uint64_t id = 0;
        try {
            harness::json::Value root = harness::json::parse(payload);
            if (root.isObject())
                if (const harness::json::Value *idv = root.find("id"))
                    id = idv->asUInt64();
        } catch (...) {
        }
        queueResponse(conn, encodeError(id, ErrorCode::BadRequest,
                                        e.what()));
        return;
    }

    switch (request.kind) {
      case RequestKind::Ping:
        queueResponse(conn, encodePong(request.id));
        return;
      case RequestKind::Stats:
        queueResponse(conn,
                      encodeStats(request.id, statsObjectJson()));
        return;
      case RequestKind::Simulate:
        admitSimulate(conn, request);
        return;
    }
}

void
Server::admitSimulate(Connection &conn, const Request &request)
{
    if (_draining) {
        _ins->rejectedShutdown.add();
        queueResponse(conn,
                      encodeError(request.id, ErrorCode::ShuttingDown,
                                  "daemon is draining; retry against "
                                  "another instance"));
        return;
    }
    // The IO thread is the only admitter, so this check-then-add
    // cannot race another admission; workers only ever decrement.
    if (_queued.load(std::memory_order_relaxed)
        >= _options.admissionLimit) {
        _ins->rejectedOverload.add();
        queueResponse(
            conn,
            encodeError(request.id, ErrorCode::Overloaded,
                        "admission queue full ("
                            + std::to_string(_options.admissionLimit)
                            + " queued); retry with backoff"));
        return;
    }
    _ins->admitted.add();
    std::size_t depth =
        _queued.fetch_add(1, std::memory_order_relaxed) + 1;
    _ins->queueDepth.set(static_cast<double>(depth));

    // The deadline budget starts at admission: time spent waiting
    // for a worker burns it exactly like simulation time does.
    std::optional<hpim::sim::Deadline> deadline;
    if (request.deadlineMs > 0.0)
        deadline = hpim::sim::Deadline::afterMs(request.deadlineMs);
    const std::uint32_t scope_id = ++_next_scope;
    const std::uint64_t conn_id = conn.id;
    const std::uint64_t id = request.id;
    const SimulateSpec spec = request.sim;
    const Clock::time_point admitted_at = Clock::now();

    // The future is discarded: the lambda catches everything and
    // always produces exactly one completion.
    _pool->submit([this, conn_id, id, spec, deadline, scope_id,
                   admitted_at] {
        std::size_t remaining =
            _queued.fetch_sub(1, std::memory_order_relaxed) - 1;
        _ins->queueDepth.set(static_cast<double>(remaining));
        _running.fetch_add(1, std::memory_order_relaxed);
        const double queue_ms = elapsedMs(admitted_at);

        std::string payload;
        if (deadline && deadline->expired()) {
            // Expired while queued: answer without occupying the
            // worker for any simulation work.
            _ins->deadlineQueued.add();
            payload = encodeError(
                id, ErrorCode::DeadlineExceeded,
                "deadline of "
                    + harness::json::numberToString(
                        deadline->budgetMs())
                    + " ms expired in the admission queue");
        } else {
            try {
                std::optional<hpim::sim::DeadlineScope> scope;
                if (deadline)
                    scope.emplace(*deadline);
                if (_run_start_hook)
                    _run_start_hook(id);
                std::optional<hpim::obs::TraceSession::Scope> tscope;
                if (_trace != nullptr) {
                    tscope.emplace(scope_id);
                    _trace->instant(
                        _trace->track("serve"), "request start", 0.0,
                        {{"id", static_cast<std::int64_t>(id)},
                         {"model", spec.model},
                         {"system", spec.system}});
                }
                const Clock::time_point started = Clock::now();
                hpim::rt::ExecutionReport report = runSimulate(spec);
                const double run_ms = elapsedMs(started);
                if (_trace != nullptr)
                    _trace->instant(
                        _trace->track("serve"), "request done", 0.0,
                        {{"id", static_cast<std::int64_t>(id)}});
                payload = encodeReport(id, report, queue_ms, run_ms);
                _ins->completed.add();
                _ins->queueMs.observe(queue_ms);
                _ins->runMs.observe(run_ms);
            } catch (const hpim::sim::DeadlineExceeded &e) {
                if (deadline && deadline->expired()) {
                    _ins->deadlineRunning.add();
                    payload = encodeError(
                        id, ErrorCode::DeadlineExceeded, e.what());
                } else {
                    // The global drain hard-stop unwound us, not
                    // the request's own budget.
                    _ins->rejectedShutdown.add();
                    payload = encodeError(
                        id, ErrorCode::ShuttingDown,
                        "drain grace expired; simulation aborted");
                }
            } catch (const std::exception &e) {
                _ins->internalErrors.add();
                payload =
                    encodeError(id, ErrorCode::Internal, e.what());
            }
        }

        {
            std::lock_guard<std::mutex> lock(_completions_mutex);
            _completions.push_back(
                Completion{conn_id, std::move(payload)});
        }
        _running.fetch_sub(1, std::memory_order_relaxed);
        wakeLoop();
    });
}

void
Server::drainCompletions()
{
    std::vector<Completion> done;
    {
        std::lock_guard<std::mutex> lock(_completions_mutex);
        done.swap(_completions);
    }
    for (Completion &completion : done) {
        auto it = _conns.find(completion.connId);
        if (it == _conns.end()) {
            _ins->droppedResponses.add();
            continue;
        }
        queueResponse(it->second, std::move(completion.payload));
    }
}

void
Server::enforceIoTimeouts()
{
    std::vector<std::uint64_t> expired;
    for (auto &[id, conn] : _conns) {
        const bool pending_io =
            !conn.rbuf.empty() || conn.woff < conn.wbuf.size();
        if (pending_io
            && elapsedMs(conn.lastProgress) > _options.ioTimeoutMs)
            expired.push_back(id);
    }
    for (std::uint64_t id : expired) {
        _ins->ioTimeouts.add();
        closeConnection(id);
    }
}

bool
Server::drainComplete()
{
    if (_queued.load(std::memory_order_relaxed) != 0
        || _running.load(std::memory_order_relaxed) != 0)
        return false;
    {
        std::lock_guard<std::mutex> lock(_completions_mutex);
        if (!_completions.empty())
            return false;
    }
    for (const auto &[id, conn] : _conns)
        if (conn.woff < conn.wbuf.size())
            return false;
    return true;
}

int
Server::pollTimeoutMs() const
{
    double next = -1.0;
    auto consider = [&next](double ms) {
        if (ms < 0.0)
            ms = 0.0;
        if (next < 0.0 || ms < next)
            next = ms;
    };
    for (const auto &[id, conn] : _conns) {
        const bool pending_io =
            !conn.rbuf.empty() || conn.woff < conn.wbuf.size();
        if (pending_io)
            consider(_options.ioTimeoutMs
                     - elapsedMs(conn.lastProgress));
    }
    if (_draining) {
        if (!_global_stop_armed
            && (_queued.load(std::memory_order_relaxed) != 0
                || _running.load(std::memory_order_relaxed) != 0))
            consider(_options.drainGraceMs
                     - elapsedMs(_drain_start));
        // Heartbeat: drain progress can depend on worker timing, so
        // never sleep unbounded while draining.
        consider(100.0);
    }
    if (next < 0.0)
        return -1;
    return static_cast<int>(std::min(next, 60'000.0)) + 1;
}

void
Server::run()
{
    inform("hpim_serve listening on ", _options.socketPath, " (",
           _pool->threadCount(), " workers, admission limit ",
           _options.admissionLimit, ")");

    std::vector<pollfd> fds;
    std::vector<std::uint64_t> fd_conn_ids;
    while (true) {
        if (_stop_requested.load(std::memory_order_acquire)
            && !_draining) {
            _draining = true;
            _drain_start = Clock::now();
            closeListen();
            inform("hpim_serve draining: ", _queued.load(), " queued, ",
                   _running.load(), " running, ", _conns.size(),
                   " connections");
        }
        if (_draining && !_global_stop_armed
            && (_queued.load(std::memory_order_relaxed) != 0
                || _running.load(std::memory_order_relaxed) != 0)
            && elapsedMs(_drain_start) > _options.drainGraceMs) {
            // Bound the drain: unwind whatever is still simulating
            // at its next phase boundary.
            hpim::sim::armGlobalStop();
            _global_stop_armed = true;
            warn("drain grace of ", _options.drainGraceMs,
                 " ms expired; aborting in-flight simulations");
        }

        drainCompletions();

        // Close connections whose fatal framing error is flushed and
        // enforce the stalled-IO timeouts.
        std::vector<std::uint64_t> flushed;
        for (auto &[id, conn] : _conns)
            if (conn.closeAfterFlush && conn.woff >= conn.wbuf.size())
                flushed.push_back(id);
        for (std::uint64_t id : flushed)
            closeConnection(id);
        enforceIoTimeouts();

        if (_draining && drainComplete())
            break;

        fds.clear();
        fd_conn_ids.clear();
        fds.push_back(pollfd{_wake_read_fd, POLLIN, 0});
        fd_conn_ids.push_back(0);
        if (_listen_fd >= 0
            && _conns.size() < _options.maxConnections) {
            fds.push_back(pollfd{_listen_fd, POLLIN, 0});
            fd_conn_ids.push_back(0);
        }
        for (auto &[id, conn] : _conns) {
            short events = 0;
            if (!conn.closeAfterFlush)
                events |= POLLIN;
            if (conn.woff < conn.wbuf.size())
                events |= POLLOUT;
            if (events == 0)
                continue;
            fds.push_back(pollfd{conn.fd, events, 0});
            fd_conn_ids.push_back(id);
        }

        int ready = retryIntr([&] {
            return ::poll(fds.data(), fds.size(), pollTimeoutMs());
        });
        if (ready < 0) {
            // A serving daemon must never abort after startup. The
            // plausible post-startup errno here is ENOMEM (EINTR is
            // retried above, EBADF/EINVAL would be our own bug);
            // back off briefly and re-enter the loop -- connection
            // timeouts still advance, so a persistent condition
            // degrades service instead of killing it.
            warn("poll: ", std::strerror(errno), "; retrying");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
            continue;
        }

        for (std::size_t i = 0; i < fds.size(); ++i) {
            if (fds[i].revents == 0)
                continue;
            if (fds[i].fd == _wake_read_fd) {
                char sink[256];
                while (::read(_wake_read_fd, sink, sizeof sink) > 0) {
                }
                continue;
            }
            if (fds[i].fd == _listen_fd) {
                acceptReady();
                continue;
            }
            auto it = _conns.find(fd_conn_ids[i]);
            if (it == _conns.end())
                continue; // closed earlier this iteration
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
                readReady(it->second);
                it = _conns.find(fd_conn_ids[i]);
                if (it == _conns.end())
                    continue;
            }
            if (fds[i].revents & POLLOUT)
                writeReady(it->second);
        }
    }

    _drain_ms = elapsedMs(_drain_start);
    _ins->drainMs.set(_drain_ms);
    if (_global_stop_armed) {
        hpim::sim::disarmGlobalStop();
        _global_stop_armed = false;
    }
    for (auto &[id, conn] : _conns)
        ::close(conn.fd);
    _conns.clear();
    inform("hpim_serve drained in ",
           harness::json::numberToString(_drain_ms), " ms (",
           _ins->completed.value(), " completed, ",
           _ins->rejectedOverload.value(), " overloaded, ",
           _ins->deadlineQueued.value()
               + _ins->deadlineRunning.value(),
           " deadline-expired, ", _ins->droppedResponses.value(),
           " dropped)");
}

} // namespace hpim::serve
