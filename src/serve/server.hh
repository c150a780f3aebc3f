/**
 * @file
 * The hpim_serve daemon core (docs/SERVING.md).
 *
 * One IO thread runs a poll(2) loop over a Unix-domain listen
 * socket, a self-pipe (signal + worker wakeups), and every client
 * connection; simulations execute on a harness::ThreadPool and
 * share the process-wide sim::MemoCache, so a hot configuration is
 * answered from memo at near-zero cost. Robustness invariants:
 *
 *  - *Bounded admission.* At most `admissionLimit` simulate
 *    requests may be queued for workers; the next one is rejected
 *    immediately with a typed `overloaded` error. Nothing in the
 *    daemon buffers without a bound: frames are capped by
 *    maxFrameBytes, connections by maxConnections, the worker queue
 *    by the admission limit.
 *  - *Deadlines.* A request's deadline_ms budget is enforced while
 *    it waits in the admission queue (an expired request returns
 *    `deadline_exceeded` without ever occupying a worker) and again
 *    at simulation phase boundaries via sim::DeadlineScope, so a
 *    too-slow simulation unwinds instead of running to completion.
 *  - *Slow-client isolation.* All socket IO is non-blocking; a
 *    connection that stalls mid-frame (read) or stops draining its
 *    responses (write) past ioTimeoutMs is closed. The accept loop
 *    never blocks on any client.
 *  - *Graceful drain.* SIGTERM/SIGINT (wired by the daemon binary
 *    to requestStop()) closes the listen socket, rejects new work
 *    with `shutting_down`, lets queued and running requests finish
 *    or deadline-out, flushes every response, and returns from
 *    run() -- the binary then exits 0. If in-flight work outlives
 *    drainGraceMs, sim::armGlobalStop() unwinds it at the next
 *    phase boundary, so drain time is bounded even for requests
 *    that asked for no deadline.
 *
 * Observability: serve.* metrics live in a registry owned by the
 * server (deliberately *not* attached process-wide -- an attached
 * registry suspends the memo cache and would interleave component
 * metrics across concurrent requests). A `stats` request snapshots
 * it together with the memo-cache hit counters. With a traceFile
 * set, a TraceSession is attached for the daemon's lifetime and
 * every request records under its own trace scope.
 */

#ifndef HPIM_SERVE_SERVER_HH
#define HPIM_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/thread_pool.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "serve/protocol.hh"

namespace hpim::serve {

/** Daemon tuning knobs; every bound has a sane default. */
struct ServerOptions
{
    /** Unix-domain socket path to listen on. Required. */
    std::string socketPath;
    /** Simulation worker threads; 0 = hardware concurrency. */
    std::uint32_t workers = 0;
    /** Max simulate requests queued for workers; the next one is
     *  rejected with `overloaded`. */
    std::size_t admissionLimit = 16;
    /** Cap on one frame's payload bytes. */
    std::size_t maxFrameBytes = defaultMaxFrameBytes;
    /** Close a connection stalled mid-frame or mid-response for
     *  longer than this. */
    double ioTimeoutMs = 10'000.0;
    /** After a stop request, arm the global sim stop once in-flight
     *  work has run this long, bounding drain time. */
    double drainGraceMs = 30'000.0;
    /** Max simultaneously open client connections; beyond it the
     *  daemon stops accepting until one closes. */
    std::size_t maxConnections = 64;
    /** Chrome/Perfetto trace output; empty = tracing off. Tracing
     *  suspends the memo cache (sim/memo_cache.hh). */
    std::string traceFile;
};

/** The daemon. Construct (binds + listens), then run(). */
class Server
{
  public:
    /**
     * Bind and listen on options.socketPath. A stale socket file
     * from a dead daemon is replaced; a *live* daemon on the same
     * path is a fatal() startup error. The socket is ready for
     * connect() as soon as the constructor returns.
     */
    explicit Server(ServerOptions options);

    /** Closes everything; removes the socket file. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Serve until requestStop(), then drain and return. Every
     * accepted request has been answered (or its connection died)
     * and every response flushed by the time this returns.
     */
    void run();

    /**
     * Begin graceful drain. Async-signal-safe (an atomic store and
     * one pipe write); callable from any thread or signal handler,
     * idempotent.
     */
    void requestStop();

    /** The bound socket path. */
    const std::string &socketPath() const
    {
        return _options.socketPath;
    }

    /** serve.* instruments (owned, never attached process-wide). */
    hpim::obs::MetricsRegistry &metrics() { return _metrics; }

    /** Wall-clock milliseconds the last drain took (after run()). */
    double drainMs() const { return _drain_ms; }

    /**
     * Test seam: @p hook runs on the worker thread each time a
     * simulate request enters its running phase -- after the
     * admission-queue deadline check passed, with the request's
     * sim::DeadlineScope installed -- and is passed the request id.
     * Blocking in it pins the request in that phase, so tests can
     * order daemon events without sleeping. Set it before run().
     */
    void
    setRunStartHook(std::function<void(std::uint64_t)> hook)
    {
        _run_start_hook = std::move(hook);
    }

  private:
    struct Connection;
    struct Completion;

    void bindAndListen();
    void closeListen();
    void acceptReady();
    void readReady(Connection &conn);
    void writeReady(Connection &conn);
    void handleFrame(Connection &conn, const std::string &payload);
    void admitSimulate(Connection &conn, const Request &request);
    std::string statsObjectJson() const;
    void queueResponse(Connection &conn, std::string payload);
    void closeConnection(std::uint64_t conn_id);
    void drainCompletions();
    void enforceIoTimeouts();
    bool drainComplete();
    int pollTimeoutMs() const;
    void wakeLoop();

    ServerOptions _options;
    int _listen_fd = -1;
    int _wake_read_fd = -1;
    int _wake_write_fd = -1;

    std::atomic<bool> _stop_requested{false};
    bool _draining = false;
    std::chrono::steady_clock::time_point _drain_start{};
    bool _global_stop_armed = false;
    double _drain_ms = 0.0;

    std::unique_ptr<hpim::harness::ThreadPool> _pool;
    std::atomic<std::size_t> _queued{0};  ///< admitted, not yet running
    std::atomic<std::size_t> _running{0}; ///< occupying a worker
    std::uint64_t _next_conn_id = 1;
    std::uint32_t _next_scope = 0; ///< per-request trace scope ids

    std::map<std::uint64_t, Connection> _conns;

    std::mutex _completions_mutex;
    std::vector<Completion> _completions;

    hpim::obs::MetricsRegistry _metrics;
    std::unique_ptr<hpim::obs::TraceSession> _trace;
    std::function<void(std::uint64_t)> _run_start_hook;

    // Cached instrument references (registration takes a lock;
    // updates are lock-free).
    struct Instruments;
    std::unique_ptr<Instruments> _ins;
};

} // namespace hpim::serve

#endif // HPIM_SERVE_SERVER_HH
