#include "service/daemon.h"

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <utility>

#include "benchmarks/suite.h"
#include "frontend/parser.h"
#include "interp/compile_actor.h"
#include "interp/runner.h"
#include "interp/verify.h"
#include "native/native_fault.h"
#include "support/diagnostics.h"
#include "support/fault.h"
#include "vectorizer/compile_service.h"

namespace macross::service {

using Clock = std::chrono::steady_clock;

namespace {

double microsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() -
                                                     t0)
        .count();
}

/** write(2) the whole buffer; MSG_NOSIGNAL so a vanished client is
 *  an error return, not a process-wide SIGPIPE. */
bool sendAll(int fd, const std::string& data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

/** One accepted client socket. */
struct Daemon::Connection {
    int fd = -1;
    std::int64_t id = 0;
    /** Serializes response lines (worker + reader threads write). */
    std::mutex writeMu;
    std::atomic<bool> open{true};

    void shutdownBoth()
    {
        bool was = open.exchange(false);
        if (was)
            ::shutdown(fd, SHUT_RDWR);
    }
};

/** One admitted run request, waiting in a queue or on a worker. */
struct Daemon::Job {
    std::shared_ptr<Connection> conn;
    Request req;
    std::string sourceKey;
    std::string artifactKey;
    Clock::time_point enqueued{};
};

/** One parsed program plus its memoized vectorizer compiles. */
struct Daemon::ProgramEntry {
    /** Guards svc (CompileService is not thread-safe) + verdicts. */
    std::mutex mu;
    std::string sourceKey;
    vectorizer::CompileService svc;
    /**
     * Verifier verdict per vectorizer options key: "" = every filter
     * passed the bytecode verifier; otherwise the rejection message
     * (the program+options pair is poisoned — repeat requests are
     * rejected without re-verifying).
     */
    std::map<std::string, std::string> verdicts;

    ProgramEntry(std::string key, graph::StreamPtr p)
        : sourceKey(std::move(key)), svc(std::move(p))
    {
    }
};

/** One tenant's persistent execution context. */
struct Daemon::TenantContext {
    /** One run at a time per tenant (tenants are sequential; the
     *  daemon's concurrency is across tenants). */
    std::mutex mu;
    /** Keeps the CompiledProgram the runner references alive. */
    std::shared_ptr<ProgramEntry> prog;
    std::string artifactKey;
    std::unique_ptr<interp::Runner> runner;
    /** Captured elements already reported (responses carry deltas). */
    std::size_t capturedSeen = 0;
    std::int64_t runs = 0;
};

Daemon::Daemon(DaemonOptions opts) : opts_(std::move(opts))
{
    fatalIf(opts_.socketPath.empty(),
            "daemon requires a socket path");
    fatalIf(opts_.workers < 1, "daemon requires at least one worker");
    fatalIf(opts_.runQueueCap < 1 || opts_.compileQueueCap < 1,
            "daemon queue capacities must be positive");
    if (opts_.admitBatch < 1)
        opts_.admitBatch = 1;
    // Resolve (and create) the shared object cache once, up front,
    // so every tenant compiles into the same hardened directory.
    opts_.native.cacheDir = native::resolveCacheDir(opts_.native);
}

Daemon::~Daemon()
{
    if (started_.load()) {
        requestShutdown();
        wait();
    }
}

void
Daemon::start()
{
    fatalIf(started_.exchange(true), "daemon started twice");

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    fatalIf(listenFd_ < 0, "socket(AF_UNIX): ", std::strerror(errno));

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    fatalIf(opts_.socketPath.size() >= sizeof(addr.sun_path),
            "socket path too long: ", opts_.socketPath);
    std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    int rc = ::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr));
    if (rc != 0 && errno == EADDRINUSE) {
        // A socket file already exists. Probe it: a live daemon
        // accepts the connect and we refuse to fight it; a stale file
        // from a dead daemon refuses, and is safe to replace.
        int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        bool live =
            probe >= 0 &&
            ::connect(probe, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)) == 0;
        if (probe >= 0)
            ::close(probe);
        fatalIf(live, "another daemon is already serving ",
                opts_.socketPath);
        ::unlink(opts_.socketPath.c_str());
        rc = ::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr));
    }
    fatalIf(rc != 0, "bind(", opts_.socketPath,
            "): ", std::strerror(errno));
    // Client credentials are whoever can connect() — restrict the
    // socket file itself to the owning user.
    ::chmod(opts_.socketPath.c_str(), 0600);
    fatalIf(::listen(listenFd_, 64) != 0,
            "listen(", opts_.socketPath,
            "): ", std::strerror(errno));

    if (opts_.verbose)
        std::fprintf(stderr, "macrossd: serving %s (%d workers)\n",
                     opts_.socketPath.c_str(), opts_.workers);

    acceptThread_ = std::thread([this] { acceptLoop(); });
    for (int i = 0; i < opts_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

void
Daemon::requestShutdown()
{
    if (stop_.exchange(true))
        return;
    // Wake accept(): shutdown() on a listening socket makes the
    // blocked accept return on Linux; the loop checks stop_.
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    closeAllConnections();
    queueCv_.notify_all();
    std::lock_guard<std::mutex> lk(waitMu_);
    waitCv_.notify_all();
}

void
Daemon::wait()
{
    {
        std::unique_lock<std::mutex> lk(waitMu_);
        waitCv_.wait(lk, [this] { return stop_.load(); });
        if (done_)
            return;  // Another wait() already joined everything.
        done_ = true;
    }
    if (acceptThread_.joinable())
        acceptThread_.join();
    queueCv_.notify_all();
    for (std::thread& w : workers_)
        if (w.joinable())
            w.join();
    closeAllConnections();
    std::vector<std::thread> readers;
    {
        std::lock_guard<std::mutex> lk(connMu_);
        readers.swap(readers_);
    }
    for (std::thread& r : readers)
        if (r.joinable())
            r.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    ::unlink(opts_.socketPath.c_str());
    if (opts_.verbose)
        std::fprintf(stderr, "macrossd: shut down cleanly\n");
}

void
Daemon::run()
{
    start();
    wait();
}

void
Daemon::closeAllConnections()
{
    std::lock_guard<std::mutex> lk(connMu_);
    for (auto& [id, conn] : conns_)
        conn->shutdownBoth();
}

void
Daemon::acceptLoop()
{
    while (!stop_.load()) {
        int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;  // Listening socket shut down.
        }
        if (stop_.load()) {
            ::close(fd);
            break;
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        {
            std::lock_guard<std::mutex> lk(connMu_);
            if (static_cast<int>(conns_.size()) >=
                opts_.maxConnections) {
                stats_.connectionsRefused.fetch_add(1);
                std::string line =
                    makeError("", kind::kOverloaded,
                              "connection limit reached")
                        .dump() +
                    "\n";
                sendAll(fd, line);
                ::close(fd);
                continue;
            }
            conn->id = ++nextConnId_;
            conns_[conn->id] = conn;
            stats_.connectionsAccepted.fetch_add(1);
            readers_.emplace_back(
                [this, conn] { readerLoop(conn); });
        }
        if (opts_.verbose)
            std::fprintf(stderr, "macrossd: connection #%lld\n",
                         static_cast<long long>(conn->id));
    }
}

void
Daemon::readerLoop(std::shared_ptr<Connection> conn)
{
    std::string buf;
    char chunk[4096];
    while (!stop_.load()) {
        ssize_t n = ::read(conn->fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (;;) {
            std::size_t nl = buf.find('\n', start);
            if (nl == std::string::npos)
                break;
            std::string line = buf.substr(start, nl - start);
            start = nl + 1;
            if (!line.empty())
                handleLine(conn, line);
        }
        buf.erase(0, start);
        if (buf.size() > opts_.maxRequestBytes) {
            sendLine(conn,
                     makeError("", kind::kBadRequest,
                               "request line exceeds " +
                                   std::to_string(
                                       opts_.maxRequestBytes) +
                                   " bytes"));
            break;
        }
    }
    conn->shutdownBoth();
    ::close(conn->fd);
    {
        std::lock_guard<std::mutex> lk(connMu_);
        conns_.erase(conn->id);
    }
    // Per-connection tenants die with the connection; named tenants
    // persist across connections by design.
    std::string key = "conn#" + std::to_string(conn->id);
    std::lock_guard<std::mutex> lk(stateMu_);
    tenants_.erase(key);
}

void
Daemon::sendLine(const std::shared_ptr<Connection>& conn,
                 const json::Value& v)
{
    if (!conn->open.load())
        return;
    std::string line = v.dump() + "\n";
    std::lock_guard<std::mutex> lk(conn->writeMu);
    if (!sendAll(conn->fd, line))
        conn->open.store(false);
}

void
Daemon::handleLine(const std::shared_ptr<Connection>& conn,
                   const std::string& line)
{
    stats_.requests.fetch_add(1);
    Request req;
    try {
        req = Request::fromJson(json::parse(line));
    } catch (const FatalError& e) {
        stats_.badRequests.fetch_add(1);
        sendLine(conn, makeError("", kind::kBadRequest, e.what()));
        return;
    }

    switch (req.op) {
    case RequestOp::Ping: {
        json::Value v = json::Value::object();
        v["op"] = "pong";
        v["id"] = req.id;
        v["ok"] = true;
        v["version"] = kProtocolVersion;
        sendLine(conn, v);
        return;
    }
    case RequestOp::Stats: {
        json::Value v = statsJson();
        v["id"] = req.id;
        sendLine(conn, v);
        return;
    }
    case RequestOp::Shutdown: {
        json::Value v = json::Value::object();
        v["op"] = "ok";
        v["id"] = req.id;
        v["ok"] = true;
        sendLine(conn, v);
        requestShutdown();
        return;
    }
    case RequestOp::Run:
        break;
    }

    stats_.runRequests.fetch_add(1);
    if (stop_.load()) {
        sendLine(conn, makeError(req.id, kind::kShuttingDown,
                                 "daemon is shutting down"));
        return;
    }

    // Admission policy checks, answered on the reader thread so a
    // bad request never occupies a queue slot.
    auto reject = [&](const std::string& msg) {
        stats_.badRequests.fetch_add(1);
        sendLine(conn, makeError(req.id, kind::kBadRequest, msg));
    };
    if (req.bench.empty() == req.source.empty()) {
        reject("exactly one of 'bench' or 'source' is required");
        return;
    }
    if (req.iters > opts_.maxIters) {
        reject("iters " + std::to_string(req.iters) +
               " exceeds the per-request ceiling " +
               std::to_string(opts_.maxIters));
        return;
    }
    if (req.config.threads != 1) {
        reject("the daemon runs the serial native engine; "
               "config.threads must be 1");
        return;
    }
    if (!req.injectFault.empty()) {
        if (!opts_.allowFaultInjection) {
            reject("fault injection is disabled on this daemon");
            return;
        }
        if (req.injectFault != "native-crash") {
            reject("unknown injectFault '" + req.injectFault +
                   "' (want native-crash)");
            return;
        }
    }
    if (req.tenant.empty())
        req.tenant = "conn#" + std::to_string(conn->id);

    enqueueRun(conn, std::move(req));
}

void
Daemon::enqueueRun(const std::shared_ptr<Connection>& conn,
                   Request req)
{
    auto job = std::make_unique<Job>();
    job->sourceKey =
        !req.bench.empty()
            ? "bench:" + req.bench
            : "src:" + hex64(native::fnv1a64(req.source));
    job->artifactKey = job->sourceKey + "|" + req.config.key();
    job->conn = conn;
    job->req = std::move(req);
    job->enqueued = Clock::now();

    bool warm;
    {
        std::lock_guard<std::mutex> lk(stateMu_);
        warm = warmArtifacts_.count(job->artifactKey) > 0;
    }
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        auto& q = warm ? runQueue_ : compileQueue_;
        std::size_t cap = static_cast<std::size_t>(
            warm ? opts_.runQueueCap : opts_.compileQueueCap);
        if (q.size() >= cap) {
            stats_.overloaded.fetch_add(1);
            json::Value err = makeError(
                job->req.id, kind::kOverloaded,
                std::string(warm ? "run" : "compile") +
                    " queue full (" + std::to_string(q.size()) +
                    " queued); retry later");
            err["queue"] = warm ? "run" : "compile";
            sendLine(conn, err);
            return;
        }
        q.push_back(std::move(job));
    }
    queueCv_.notify_one();
}

void
Daemon::workerLoop()
{
    for (;;) {
        std::vector<std::unique_ptr<Job>> batch;
        {
            std::unique_lock<std::mutex> lk(queueMu_);
            queueCv_.wait(lk, [this] {
                return stop_.load() || !runQueue_.empty() ||
                       !compileQueue_.empty();
            });
            if (stop_.load()) {
                // Drain: every queued job gets a typed answer, never
                // a silently dropped request.
                while (!runQueue_.empty() || !compileQueue_.empty()) {
                    auto& q = !runQueue_.empty() ? runQueue_
                                                 : compileQueue_;
                    std::unique_ptr<Job> j = std::move(q.front());
                    q.pop_front();
                    lk.unlock();
                    sendLine(j->conn,
                             makeError(j->req.id,
                                       kind::kShuttingDown,
                                       "daemon is shutting down"));
                    lk.lock();
                }
                return;
            }
            // Admission batching: take up to admitBatch jobs in one
            // lock acquisition, run queue first so steady-state
            // traffic is not starved by compile storms.
            while (static_cast<int>(batch.size()) <
                   opts_.admitBatch) {
                if (!runQueue_.empty()) {
                    batch.push_back(std::move(runQueue_.front()));
                    runQueue_.pop_front();
                } else if (!compileQueue_.empty()) {
                    batch.push_back(
                        std::move(compileQueue_.front()));
                    compileQueue_.pop_front();
                } else {
                    break;
                }
            }
            stats_.batchesAdmitted.fetch_add(1);
            stats_.jobsAdmitted.fetch_add(
                static_cast<std::int64_t>(batch.size()));
        }
        for (std::unique_ptr<Job>& job : batch) {
            // Chaos hook: tests stall a worker here to fill the
            // admission queues deterministically.
            support::FaultInjector::fire("service.worker.job");
            sendLine(job->conn, processRun(*job));
        }
    }
}

json::Value
Daemon::verifyCompiled(ProgramEntry& entry,
                       const std::string& options_key,
                       const Request& req)
{
    // Called with entry.mu held, compiled program already built.
    auto it = entry.verdicts.find(options_key);
    if (it == entry.verdicts.end()) {
        const vectorizer::CompiledProgram& p = entry.svc.compile(
            req.config.simdizeOptions(), req.config.simd);
        std::string verdict;
        for (const graph::Actor& a : p.graph.actors) {
            if (!a.isFilter())
                continue;
            interp::bytecode::CompileOptions copts;
            copts.saguIn =
                !a.inputs.empty() &&
                p.graph.tape(a.inputs[0]).transpose.readSide;
            copts.saguOut =
                !a.outputs.empty() &&
                p.graph.tape(a.outputs[0]).transpose.writeSide;
            try {
                interp::bytecode::CompiledActor ca =
                    interp::bytecode::compileActor(*a.def, copts);
                auto errs = interp::bytecode::verifyActor(ca, *a.def);
                for (const auto& e : errs) {
                    verdict += verdict.empty() ? "" : "; ";
                    verdict +=
                        "actor '" + a.name + "': " +
                        interp::bytecode::toString(e);
                }
            } catch (const std::exception& e) {
                verdict += verdict.empty() ? "" : "; ";
                verdict += "actor '" + a.name +
                           "' failed bytecode compilation: " +
                           e.what();
            }
            if (!verdict.empty())
                break;
        }
        it = entry.verdicts.emplace(options_key, verdict).first;
    }
    if (it->second.empty())
        return json::Value();  // Null = verified clean.
    stats_.verifyRejected.fetch_add(1);
    return makeError(req.id, kind::kVerifyRejected,
                     "bytecode verifier rejected the program: " +
                         it->second);
}

json::Value
Daemon::processRun(Job& job)
{
    const Request& req = job.req;
    Clock::time_point t0 = Clock::now();
    double queueMicros = std::chrono::duration<double, std::micro>(
                             t0 - job.enqueued)
                             .count();

    try {
        // 1. Program entry (parse once per distinct source).
        std::shared_ptr<ProgramEntry> entry;
        {
            std::lock_guard<std::mutex> lk(stateMu_);
            auto it = programs_.find(job.sourceKey);
            if (it != programs_.end())
                entry = it->second;
        }
        if (!entry) {
            graph::StreamPtr program;
            try {
                program = !req.bench.empty()
                              ? benchmarks::benchmarkByName(req.bench)
                              : frontend::parseProgram(req.source);
            } catch (const FatalError& e) {
                stats_.badRequests.fetch_add(1);
                return makeError(req.id, kind::kBadRequest,
                                 e.what());
            }
            auto fresh = std::make_shared<ProgramEntry>(
                job.sourceKey, std::move(program));
            std::lock_guard<std::mutex> lk(stateMu_);
            entry =
                programs_.emplace(job.sourceKey, fresh).first->second;
        }

        // 2. Vectorizer compile + trust boundary, serialized per
        // program (CompileService memoizes, so repeats are lookups).
        vectorizer::SimdizeOptions sopts;
        try {
            sopts = req.config.simdizeOptions();
        } catch (const FatalError& e) {
            stats_.badRequests.fetch_add(1);
            return makeError(req.id, kind::kBadRequest, e.what());
        }
        std::string optionsKey = vectorizer::CompileService::
            optionsKey(sopts, req.config.simd);
        const vectorizer::CompiledProgram* compiled = nullptr;
        {
            std::lock_guard<std::mutex> lk(entry->mu);
            json::Value rejected =
                verifyCompiled(*entry, optionsKey, req);
            if (!rejected.isNull())
                return rejected;
            compiled = &entry->svc.compile(sopts, req.config.simd);
        }

        // 3. Engine configuration: the request picks the transform
        // and SIMD point; the daemon owns host-compiler policy and
        // the shared cache directory.
        interp::EngineConfig ec = req.config.engineConfig();
        ec.engine = interp::ExecEngine::Native;
        ec.degrade = interp::DegradeMode::Off;
        ec.native.cacheDir = opts_.native.cacheDir;
        if (!opts_.native.compiler.empty())
            ec.native.compiler = opts_.native.compiler;
        if (opts_.native.compileTimeoutMs > 0)
            ec.native.compileTimeoutMs =
                opts_.native.compileTimeoutMs;
        if (opts_.native.maxLaneWidthOverride > 0)
            ec.native.maxLaneWidthOverride =
                opts_.native.maxLaneWidthOverride;

        // 4. Tenant context.
        std::shared_ptr<TenantContext> ctx;
        {
            std::lock_guard<std::mutex> lk(stateMu_);
            std::shared_ptr<TenantContext>& slot =
                tenants_[req.tenant];
            if (!slot)
                slot = std::make_shared<TenantContext>();
            ctx = slot;
        }

        std::lock_guard<std::mutex> tenantLk(ctx->mu);
        bool fresh = !ctx->runner ||
                     ctx->artifactKey != job.artifactKey;
        try {
            if (fresh) {
                ctx->runner.reset();
                ctx->prog = entry;
                ctx->artifactKey = job.artifactKey;
                ctx->capturedSeen = 0;
                auto runner = std::make_unique<interp::Runner>(
                    compiled->graph, compiled->schedule, nullptr,
                    ec);
                stats_.compilesInFlight.fetch_add(1);
                try {
                    runner->runInit();
                } catch (...) {
                    stats_.compilesInFlight.fetch_sub(1);
                    throw;
                }
                stats_.compilesInFlight.fetch_sub(1);
                ctx->runner = std::move(runner);
                ctx->capturedSeen = ctx->runner->captured().size();
                if (const native::NativeStats* ns =
                        ctx->runner->nativeStats()) {
                    if (ns->cacheHit)
                        stats_.cacheHits.fetch_add(1);
                    else
                        stats_.compiles.fetch_add(1);
                    if (ns->coalesced)
                        stats_.coalesced.fetch_add(1);
                }
            }

            // Per-request chaos hook: crash THIS worker thread's
            // native steady batch, inside the signal guard. The armed
            // action is gated on the thread id so co-resident
            // tenants probing the same global site are untouched.
            struct FaultArm {
                bool armed = false;
                std::atomic<bool> fired{false};
                ~FaultArm()
                {
                    if (armed)
                        support::FaultInjector::instance().disarm(
                            "native.steady.crash");
                }
            } arm;
            if (req.injectFault == "native-crash") {
                // The signal guard leaves the crash by siglongjmp,
                // past the injector's copy of this action, so the
                // closure stays trivially copyable (std::function
                // stores it inline; a heap copy would leak). Only the
                // target thread, inside this call, touches `fired`.
                auto target = std::this_thread::get_id();
                support::FaultInjector::instance().arm(
                    "native.steady.crash",
                    [target, fired = &arm.fired](std::int64_t*) {
                        if (std::this_thread::get_id() != target)
                            return;
                        if (fired->exchange(true))
                            return;
                        raise(SIGSEGV);
                    });
                arm.armed = true;
            }

            ctx->runner->runSteady(req.iters);
            if (ctx->runner->degradedFromNative())
                stats_.degradations.fetch_add(1);
        } catch (const native::NativeFaultError& e) {
            // Contained: this tenant's context is discarded (the
            // cache entry is already quarantined by the native
            // layer); the daemon and co-resident tenants are fine.
            ctx->runner.reset();
            ctx->artifactKey.clear();
            stats_.faults.fetch_add(1);
            json::Value err =
                makeError(req.id, kind::kFault, e.what());
            err["fault"] = e.record().toJson();
            return err;
        }

        // 5. Result: the steady-state delta this request produced.
        const std::vector<std::uint32_t>& cap =
            ctx->runner->captured().lanes();
        std::uint64_t checksum =
            checksumLanes(cap, ctx->capturedSeen);
        std::size_t firstNew = ctx->capturedSeen;
        std::size_t elements = cap.size() - firstNew;
        ctx->capturedSeen = cap.size();
        ++ctx->runs;

        {
            std::lock_guard<std::mutex> lk(stateMu_);
            warmArtifacts_.insert(job.artifactKey);
        }
        stats_.runsCompleted.fetch_add(1);
        stats_.elementsProduced.fetch_add(
            static_cast<std::int64_t>(elements));

        json::Value v = json::Value::object();
        v["op"] = "result";
        v["id"] = req.id;
        v["ok"] = true;
        v["tenant"] = req.tenant;
        v["elements"] = static_cast<std::int64_t>(elements);
        v["checksum"] = hex64(checksum);
        v["tenantRuns"] = ctx->runs;
        if (req.wantOutput) {
            json::Value out = json::Value::array();
            for (std::uint32_t w : flattenLanes(cap, firstNew))
                out.push(static_cast<std::int64_t>(w));
            v["output"] = std::move(out);
        }
        if (const native::NativeStats* ns =
                ctx->runner->nativeStats()) {
            json::Value nat = json::Value::object();
            nat["cacheHit"] = ns->cacheHit;
            nat["coalesced"] = ns->coalesced;
            nat["compileMillis"] = ns->compileMillis;
            nat["steadyWallMicros"] = ns->steadyWallMicros;
            nat["simdLanes"] = ns->simdLanes;
            nat["simdFallback"] = ns->simdFallback;
            v["native"] = std::move(nat);
        }
        v["queueMicros"] = queueMicros;
        v["serviceMicros"] = microsSince(t0);
        return v;
    } catch (const PanicError& e) {
        return makeError(req.id, kind::kInternal, e.what());
    } catch (const FatalError& e) {
        stats_.badRequests.fetch_add(1);
        return makeError(req.id, kind::kBadRequest, e.what());
    } catch (const std::exception& e) {
        return makeError(req.id, kind::kInternal, e.what());
    }
}

json::Value
Daemon::statsJson() const
{
    json::Value v = json::Value::object();
    v["op"] = "stats";
    v["ok"] = true;
    v["version"] = kProtocolVersion;
    json::Value c = json::Value::object();
    const DaemonStats& s = stats_;
    c["requests"] = s.requests.load();
    c["runRequests"] = s.runRequests.load();
    c["runsCompleted"] = s.runsCompleted.load();
    c["elementsProduced"] = s.elementsProduced.load();
    c["badRequests"] = s.badRequests.load();
    c["verifyRejected"] = s.verifyRejected.load();
    c["overloaded"] = s.overloaded.load();
    c["faults"] = s.faults.load();
    c["degradations"] = s.degradations.load();
    c["compiles"] = s.compiles.load();
    c["cacheHits"] = s.cacheHits.load();
    c["coalesced"] = s.coalesced.load();
    c["compilesInFlight"] = s.compilesInFlight.load();
    c["batchesAdmitted"] = s.batchesAdmitted.load();
    c["jobsAdmitted"] = s.jobsAdmitted.load();
    c["connectionsAccepted"] = s.connectionsAccepted.load();
    c["connectionsRefused"] = s.connectionsRefused.load();
    {
        std::lock_guard<std::mutex> lk(queueMu_);
        c["runQueueDepth"] =
            static_cast<std::int64_t>(runQueue_.size());
        c["compileQueueDepth"] =
            static_cast<std::int64_t>(compileQueue_.size());
    }
    {
        std::lock_guard<std::mutex> lk(stateMu_);
        c["programs"] = static_cast<std::int64_t>(programs_.size());
        c["tenants"] = static_cast<std::int64_t>(tenants_.size());
        c["warmArtifacts"] =
            static_cast<std::int64_t>(warmArtifacts_.size());
    }
    v["counters"] = std::move(c);
    return v;
}

} // namespace macross::service
