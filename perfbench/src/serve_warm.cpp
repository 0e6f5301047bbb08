/**
 * @file
 * serve_warm: macrossd serving warm tenants.
 *
 * The daemon runs in this process with 2 workers and is driven closed
 * loop over 2 client connections: each connection sends its next
 * request only after the previous response arrived. Four tenants:
 * two on FMRadio (sharing one artifact), one on BeamFormer, and one
 * sending examples/programs/equalizer.str as inline source.
 *
 * Every tenant sends a fixed plan of kRequestsPerTenant requests per
 * round. The plan is a fixed multiset of iteration counts (mostly
 * 1-3, one request in kLargeEvery much larger) whose order, and the
 * interleaving of the two tenants on each connection, the seed draws.
 * A round starts a fresh daemon on the warm on-disk cache, sends each
 * tenant's first request as an untimed warm-up, then times the rest.
 * Rounds repeat until the run's seconds are spent, so every round
 * ends with the same capture history on every commit.
 *
 * setup_s is the median over kSetupRepeats cold starts (empty cache)
 * of the time from daemon start to every tenant's first response.
 *
 * Output check: the lane checksum is additive, so per tenant and
 * round the response checksums and element counts must add up to a
 * bytecode-VM run of the same total iteration count.
 */
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <latch>
#include <map>
#include <sstream>
#include <thread>

#include "bench.h"
#include "benchmarks/suite.h"
#include "codegen/emit_cpp.h"
#include "frontend/parser.h"
#include "interp/runner.h"
#include "lanes.h"
#include "service/client.h"
#include "service/daemon.h"
#include "stats.h"
#include "support/diagnostics.h"
#include "tuner/tune_config.h"
#include "vectorizer/compile_service.h"

namespace perfbench {
namespace {

using namespace macross;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
constexpr int kSetupRepeats = 3;
constexpr int kRequestsPerTenant = 600;
/**
 * The request mix. Small requests average 2 iterations, the fixed size
 * service_bench sends (about 31 elements, some 6 us of native compute
 * at 0.2 us/element). One request in kLargeEvery is 32-64 iterations,
 * 100-200 us of native compute, so that a minority of requests spends
 * a sizeable share of its latency in the emitted kernel. The share and
 * the large sizes are this benchmark's choice, not measured traffic.
 */
constexpr int kLargeEvery = 20;
const int kSmallIters[] = {1, 2, 3};
const int kLargeIters[] = {32, 48, 64};

struct Tenant {
    std::string key;
    std::string label;   ///< Program name in metrics.
    std::string bench;   ///< Built-in benchmark, or
    std::string source;  ///< inline .str source.
    int conn = 0;
    std::vector<int> iters;  ///< Per-round plan; [0] is the warm-up.
    std::int64_t totalIters = 0;
    LaneSum refWarmup;  ///< VM output of iters[0] iterations.
    LaneSum refRound;   ///< VM output of totalIters iterations.
};

/** One response, as the benchmark needs it. */
struct Reply {
    bool ok = false;
    std::string error;
    std::int64_t elements = 0;
    std::uint64_t checksum = 0;
    double wireUs = 0.0;
    double queueUs = 0.0;
    double serviceUs = 0.0;
    double steadyWallUs = 0.0;  ///< Tenant runner's cumulative total.
    double compileMs = 0.0;
    double computeUs = 0.0;  ///< This request's share of steadyWallUs.
    int tenant = 0;
    bool timed = false;
};

double
number(const json::Value& v, const char* key)
{
    const json::Value* f = v.find(key);
    return f && f->isNumber() ? f->asDouble() : 0.0;
}

Reply
parseReply(const json::Value& v)
{
    Reply r;
    const json::Value* ok = v.find("ok");
    r.ok = ok && ok->kind() == json::Value::Kind::Bool && ok->asBool();
    if (!r.ok) {
        const json::Value* kind = v.find("kind");
        r.error = kind && kind->kind() == json::Value::Kind::String
                      ? kind->asString()
                      : "malformed";
        return r;
    }
    r.elements = static_cast<std::int64_t>(number(v, "elements"));
    const json::Value* sum = v.find("checksum");
    std::optional<std::uint64_t> c;
    if (sum && sum->kind() == json::Value::Kind::String)
        c = parseHex64(sum->asString());
    if (!c) {
        r.ok = false;
        r.error = "bad checksum field";
        return r;
    }
    r.checksum = *c;
    r.queueUs = number(v, "queueMicros");
    r.serviceUs = number(v, "serviceMicros");
    if (const json::Value* nat = v.find("native")) {
        r.steadyWallUs = number(*nat, "steadyWallMicros");
        r.compileMs = number(*nat, "compileMillis");
    }
    return r;
}

service::Request
makeRequest(const Tenant& t, int iters, const std::string& id)
{
    service::Request req;
    req.op = service::RequestOp::Run;
    req.id = id;
    req.tenant = t.key;
    req.bench = t.bench;
    req.source = t.source;
    req.iters = iters;
    req.config = tuner::TuneConfig{};
    return req;
}

/** What one daemon lifetime (a set-up or a round) produced. */
struct Session {
    std::vector<Reply> replies;  ///< In completion order per connection.
    double setupS = 0.0;  ///< Daemon start to the last warm-up reply.
    double timedUs = 0.0;  ///< Wall time of the timed requests.
    json::Value stats;     ///< Daemon `stats` at the end.
    bool transportFailed = false;
};

/**
 * Start a daemon on @p cacheDir, send every tenant's warm-up request,
 * then (when @p seqs is non-null) the timed requests of each
 * connection, closed loop; stop the daemon.
 */
Session
runSession(const std::vector<Tenant>& tenants,
           const std::vector<std::vector<int>>* seqs,
           const std::string& cacheDir, Spans& spans, int round)
{
    Session out;
    service::DaemonOptions dopts;
    dopts.socketPath =
        "perfbench-" + std::to_string(::getpid()) + ".sock";
    dopts.workers = kWorkers;
    dopts.native.cacheDir = cacheDir;

    const Clock::time_point start = Clock::now();
    service::Daemon daemon(dopts);
    {
        Span s(spans, "daemon.start");
        daemon.start();
    }
    const std::string socket = daemon.options().socketPath;

    std::vector<std::vector<Reply>> per(kConnections);
    std::vector<Clock::time_point> warmDone(kConnections, start);
    std::vector<Clock::time_point> timedDone(kConnections, start);
    // Written by the connection threads: one byte each (vector<bool>
    // packs flags into shared words).
    std::vector<char> broken(kConnections, 0);
    std::latch warmed(kConnections);
    std::latch go(1);
    Clock::time_point timedStart{};
    // Each tenant's replies arrive in order on its one connection, so
    // a request's native compute is the change in its runner's
    // cumulative steady wall time.
    std::vector<double> lastSteady(tenants.size(), 0.0);

    auto call = [&](service::Client& client, int conn, int ti, int iters,
                    bool timed, std::int64_t n) {
        const Tenant& t = tenants[static_cast<std::size_t>(ti)];
        const std::string id =
            "r" + std::to_string(round) + "-" + t.key + "-" +
            std::to_string(n);
        const std::int64_t reqId = spans.on() ? spans.nextId() : 0;
        const Clock::time_point s = Clock::now();
        json::Value resp = client.call(makeRequest(t, iters, id));
        const Clock::time_point e = Clock::now();
        Reply r = parseReply(resp);
        r.tenant = ti;
        r.timed = timed;
        r.wireUs = microsBetween(s, e);
        if (r.ok) {
            double& last = lastSteady[static_cast<std::size_t>(ti)];
            r.computeUs = r.steadyWallUs - last;
            last = r.steadyWallUs;
        }
        if (spans.on()) {
            const double s0 = spans.micros(s), e0 = spans.micros(e);
            spans.add("client.run", t.key, s0, e0, 0, reqId, reqId);
            if (r.ok) {
                // The daemon reports durations, not instants: lay the
                // queue wait and the service time out inside the
                // request, with transport split evenly around them.
                const double transport =
                    std::max(0.0, r.wireUs - r.queueUs - r.serviceUs);
                const double q0 = s0 + transport / 2;
                const double sv0 = q0 + r.queueUs;
                spans.add("daemon.queue", t.key, q0, sv0, reqId, reqId);
                const std::int64_t svc =
                    spans.add("daemon.service", t.key, sv0,
                              sv0 + r.serviceUs, reqId, reqId);
                spans.add("native.steady", t.key,
                          sv0 + r.serviceUs - r.computeUs,
                          sv0 + r.serviceUs, svc, reqId);
            }
        }
        per[static_cast<std::size_t>(conn)].push_back(r);
    };

    std::vector<std::thread> threads;
    for (int conn = 0; conn < kConnections; ++conn) {
        threads.emplace_back([&, conn] {
            bool counted = false;
            try {
                service::Client client(socket);
                std::map<int, std::size_t> next;
                for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
                    if (tenants[ti].conn != conn)
                        continue;
                    call(client, conn, static_cast<int>(ti),
                         tenants[ti].iters[0], false, 0);
                    next[static_cast<int>(ti)] = 1;
                }
                warmDone[conn] = Clock::now();
                warmed.count_down();
                counted = true;
                if (!seqs)
                    return;
                go.wait();
                for (int ti : (*seqs)[static_cast<std::size_t>(conn)]) {
                    std::size_t& k = next[ti];
                    call(client, conn, ti,
                         tenants[static_cast<std::size_t>(ti)].iters[k],
                         true, static_cast<std::int64_t>(k));
                    ++k;
                }
                timedDone[conn] = Clock::now();
            } catch (const std::exception& e) {
                std::fprintf(stderr, "perfbench: connection %d: %s\n", conn,
                             e.what());
                broken[conn] = true;
                if (!counted)
                    warmed.count_down();
                timedDone[conn] = Clock::now();
            }
        });
    }
    warmed.wait();
    out.setupS = 0.0;
    for (const Clock::time_point& t : warmDone)
        out.setupS = std::max(out.setupS,
                              std::chrono::duration<double>(t - start)
                                  .count());
    timedStart = Clock::now();
    go.count_down();
    for (std::thread& t : threads)
        t.join();
    Clock::time_point timedEnd = timedStart;
    for (const Clock::time_point& t : timedDone)
        timedEnd = std::max(timedEnd, t);
    out.timedUs = seqs ? microsBetween(timedStart, timedEnd) : 0.0;

    try {
        service::Client statsClient(socket);
        out.stats = statsClient.stats();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: stats: %s\n", e.what());
    }
    daemon.requestShutdown();
    daemon.wait();

    for (std::size_t c = 0; c < per.size(); ++c) {
        out.transportFailed = out.transportFailed || broken[c];
        out.replies.insert(out.replies.end(), per[c].begin(), per[c].end());
    }
    return out;
}

std::int64_t
counter(const json::Value& stats, const char* name)
{
    const json::Value* c = stats.find("counters");
    const json::Value* v = c ? c->find(name) : nullptr;
    return v && v->isNumber() ? v->asInt() : 0;
}

/**
 * Check one session's replies against the VM references: per tenant,
 * the summed lane checksums must match. Returns the failed
 * operations (error replies, plus every reply of a mismatched tenant).
 */
std::int64_t
checkSession(const std::vector<Tenant>& tenants, const Session& s,
             bool warmupOnly)
{
    std::int64_t failed = 0;
    std::vector<LaneSum> sums(tenants.size());
    std::vector<std::int64_t> replies(tenants.size(), 0);
    std::vector<bool> errored(tenants.size(), false);
    for (const Reply& r : s.replies) {
        const std::size_t ti = static_cast<std::size_t>(r.tenant);
        ++replies[ti];
        if (!r.ok) {
            ++failed;
            errored[ti] = true;
            std::fprintf(stderr, "perfbench: %s: error reply '%s'\n",
                         tenants[ti].key.c_str(), r.error.c_str());
            continue;
        }
        sums[ti].add(r.checksum, r.elements);
    }
    for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
        const LaneSum& want =
            warmupOnly ? tenants[ti].refWarmup : tenants[ti].refRound;
        const std::int64_t expectReplies =
            warmupOnly ? 1 : static_cast<std::int64_t>(tenants[ti].iters.size());
        if (replies[ti] != expectReplies) {
            failed += expectReplies - replies[ti];
            continue;
        }
        if (!errored[ti] && !(sums[ti] == want)) {
            std::fprintf(stderr,
                         "perfbench: %s: output checksum %016llx/%lld "
                         "elements, bytecode VM gives %016llx/%lld\n",
                         tenants[ti].key.c_str(),
                         static_cast<unsigned long long>(sums[ti].checksum),
                         static_cast<long long>(sums[ti].elements),
                         static_cast<unsigned long long>(want.checksum),
                         static_cast<long long>(want.elements));
            failed += replies[ti];
        }
    }
    return failed;
}

/** Build the tenants and their seeded request plans. */
std::vector<Tenant>
makeTenants(const Options& opt, Rng& rng)
{
    std::ifstream in(opt.equalizerPath);
    fatalIf(!in, "perfbench: cannot read ", opt.equalizerPath);
    std::stringstream ss;
    ss << in.rdbuf();

    auto tenant = [](std::string key, std::string label, std::string bench,
                     std::string source, int conn) {
        Tenant t;
        t.key = std::move(key);
        t.label = std::move(label);
        t.bench = std::move(bench);
        t.source = std::move(source);
        t.conn = conn;
        return t;
    };
    std::vector<Tenant> tenants = {
        tenant("fm-a", "FMRadio", "FMRadio", "", 0),
        tenant("beam", "BeamFormer", "BeamFormer", "", 0),
        tenant("fm-b", "FMRadio", "FMRadio", "", 1),
        tenant("eq", "equalizer", "", ss.str(), 1),
    };
    for (Tenant& t : tenants) {
        for (int i = 0; i < kRequestsPerTenant; ++i) {
            const int n = (i + 1) % kLargeEvery == 0
                              ? kLargeIters[(i / kLargeEvery) % 3]
                              : kSmallIters[i % 3];
            t.iters.push_back(n);
            t.totalIters += n;
        }
        rng.shuffle(t.iters);
    }
    return tenants;
}

/** Per connection, the seeded interleaving of its tenants' timed
 *  requests (tenant indexes). */
std::vector<std::vector<int>>
makeSequences(const std::vector<Tenant>& tenants, Rng& rng)
{
    std::vector<std::vector<int>> seqs(kConnections);
    for (std::size_t ti = 0; ti < tenants.size(); ++ti) {
        for (std::size_t k = 1; k < tenants[ti].iters.size(); ++k)
            seqs[static_cast<std::size_t>(tenants[ti].conn)].push_back(
                static_cast<int>(ti));
    }
    for (std::vector<int>& s : seqs)
        rng.shuffle(s);
    return seqs;
}

/** Frontend and emitter totals of the traced run. */
struct FrontTotals {
    double parseMs = 0.0;
    double emitMs = 0.0;
    double emittedKb = 0.0;
};

/**
 * Compute each tenant's VM references with the daemon's own compile
 * path (CompileService under the default TuneConfig). In the traced
 * run this also times the frontend, vectorizer and emitter on the
 * tenants' programs.
 */
FrontTotals
computeReferences(std::vector<Tenant>& tenants, Spans& spans)
{
    FrontTotals ft;
    std::map<std::string, std::unique_ptr<vectorizer::CompileService>> svcs;
    const tuner::TuneConfig config;
    for (Tenant& t : tenants) {
        auto& svc = svcs[t.label];
        const bool first = !svc;
        if (first) {
            graph::StreamPtr program;
            if (t.source.empty()) {
                program = benchmarks::benchmarkByName(t.bench);
            } else {
                const Clock::time_point t0 = Clock::now();
                Span s(spans, "parseProgram", t.label);
                program = frontend::parseProgram(t.source);
                ft.parseMs += microsBetween(t0, Clock::now()) / 1000.0;
            }
            svc = std::make_unique<vectorizer::CompileService>(program);
        }
        const vectorizer::CompiledProgram* p = nullptr;
        {
            Span s(spans, first ? "macroSimdize" : "macroSimdize.memo",
                   t.label);
            p = &svc->compile(config.simdizeOptions(), config.simd);
        }
        if (first && spans.on()) {
            codegen::EmitOptions eo;
            eo.mode = codegen::EmitMode::Library;
            eo.simd = config.engineConfig().simd;
            const Clock::time_point t0 = Clock::now();
            Span s(spans, "emitCpp", t.label);
            const std::string src =
                codegen::emitCpp(p->graph, p->schedule, eo);
            ft.emitMs += microsBetween(t0, Clock::now()) / 1000.0;
            ft.emittedKb += static_cast<double>(src.size()) / 1024.0;
        }
        Span s(spans, "vmReference", t.key);
        interp::Runner vm(p->graph, p->schedule);
        vm.runInit();
        const std::size_t initElems = vm.captured().size();
        vm.runSteady(t.iters[0]);
        t.refWarmup = laneSum(vm.captured(), initElems);
        vm.runSteady(static_cast<int>(t.totalIters - t.iters[0]));
        t.refRound = laneSum(vm.captured(), initElems);
    }
    return ft;
}

} // namespace

RunResult
runServeWarm(const Options& opt, Spans& spans)
{
    RunResult res;
    Rng rng(opt.seed);
    std::vector<Tenant> tenants = makeTenants(opt, rng);
    const std::vector<std::vector<int>> seqs = makeSequences(tenants, rng);

    // ---- Cold set-ups: fresh daemon, empty cache, first replies. ---
    std::vector<double> setups;
    std::vector<Session> setupSessions;
    std::string warmCache;
    for (int k = 0; k < kSetupRepeats; ++k) {
        warmCache = opt.cacheDir + "/setup-" + std::to_string(k);
        Span s(spans, "setup", "cold " + std::to_string(k));
        setupSessions.push_back(
            runSession(tenants, nullptr, warmCache, spans, -1 - k));
        setups.push_back(setupSessions.back().setupS);
    }
    const double setupS = summarize(setups).p50;

    // ---- Bytecode-VM references (untimed). ---------------------------
    const FrontTotals ft = computeReferences(tenants, spans);
    for (const Session& s : setupSessions) {
        res.attempted += static_cast<std::int64_t>(tenants.size());
        res.failed += checkSession(tenants, s, true);
    }

    // ---- Measurement: rounds of fixed plans on the warm cache. -----
    // Each round is checked and summarized as it ends and its replies
    // dropped, so the benchmark's own memory does not grow with the
    // number of rounds a faster system fits in.
    std::vector<double> roundEps, roundP50, roundP99, roundRps;
    std::vector<double> transport, queue, handler, compute;
    std::map<std::string, std::pair<double, double>> perProgram;
    std::int64_t batches = 0, admitted = 0, overloaded = 0;
    std::int64_t timedRequests = 0, capturedAtEnd = 0;
    double tailPct = 50.0;  // Which percentile each round's tail is.
    int rounds = 0;
    const Clock::time_point measureStart = Clock::now();
    while (rounds == 0 || secondsSince(measureStart) < opt.seconds) {
        Session s;
        {
            Span span(spans, "round", std::to_string(rounds));
            s = runSession(tenants, &seqs, warmCache, spans, rounds);
        }
        ++rounds;
        for (const Tenant& t : tenants)
            res.attempted += static_cast<std::int64_t>(t.iters.size());
        res.failed += checkSession(tenants, s, false);

        std::vector<double> wire;
        double elements = 0.0;
        capturedAtEnd = 0;
        for (const Reply& r : s.replies) {
            capturedAtEnd += r.elements;
            if (!r.ok || !r.timed)
                continue;
            wire.push_back(r.wireUs);
            elements += static_cast<double>(r.elements);
            if (spans.on()) {
                transport.push_back(r.wireUs - r.queueUs - r.serviceUs);
                queue.push_back(r.queueUs);
                handler.push_back(r.serviceUs - r.computeUs);
                compute.push_back(r.computeUs);
                auto& pp = perProgram[tenants[static_cast<std::size_t>(
                                              r.tenant)]
                                          .label];
                pp.first += r.computeUs;
                pp.second += static_cast<double>(r.elements);
            }
        }
        timedRequests += static_cast<std::int64_t>(wire.size());
        const Summary lat = summarize(wire);
        if (s.timedUs > 0) {
            roundEps.push_back(elements / (s.timedUs * 1e-6));
            roundRps.push_back(static_cast<double>(wire.size()) /
                               (s.timedUs * 1e-6));
        }
        roundP50.push_back(lat.p50);
        roundP99.push_back(lat.tail);
        tailPct = lat.tailPct;
        batches += counter(s.stats, "batchesAdmitted");
        admitted += counter(s.stats, "jobsAdmitted");
        overloaded += counter(s.stats, "overloaded");
        if (s.transportFailed)
            break;
    }
    const double measuredS = secondsSince(measureStart);
    const double peakRss = peakRssMiB();

    // ---- End-to-end metrics: medians over rounds. ---------------------
    // A round takes some 0.4 s on four threads, long and wide enough to
    // average the full-speed and slowed states stats.h describes, so
    // the median is as steady here as the full-speed quartile.
    const Summary eps = summarize(roundEps);
    const Summary p50 = summarize(roundP50);
    const Summary p99 = summarize(roundP99);
    std::printf("serve_warm: %d workers, %d connections closed loop, 4 "
                "tenants x %d requests per round, %d rounds in %.2f s, "
                "%lld timed requests\n",
                kWorkers, kConnections, kRequestsPerTenant, rounds,
                measuredS, static_cast<long long>(timedRequests));
    std::printf("  per round (median [q1, q3] over %zu rounds of %lld "
                "timed requests):\n",
                p50.n,
                static_cast<long long>(timedRequests / std::max(rounds, 1)));
    std::printf("    %.1f req/s, %.0f elements/s [%.0f, %.0f]\n",
                summarize(roundRps).p50, eps.p50, eps.q1, eps.q3);
    std::printf("    request latency p50 %.2f us [%.2f, %.2f], p%g %.2f us "
                "[%.2f, %.2f]\n",
                p50.p50, p50.q1, p50.q3, tailPct, p99.p50, p99.q1, p99.q3);
    std::printf("  set-up (cold, daemon start to 4 first replies): %s s\n",
                [&] {
                    std::string out;
                    for (double x : setups)
                        out += (out.empty() ? "" : ", ") + std::to_string(x);
                    return out;
                }()
                    .c_str());

    res.endToEnd = {
        {"setup_s", setupS, "s"},
        {"throughput_eps", eps.p50, "elements/s"},
        {"latency_p50_us", p50.p50, "us"},
        {"latency_tail_us", p99.p50, "us"},
        {"peak_rss_mb", peakRss, "MiB"},
    };
    if (!spans.on())
        return res;

    // ---- Per-layer metrics (traced run). ------------------------------
    for (const Session& s : setupSessions)
        overloaded += counter(s.stats, "overloaded");
    const Session& cold = setupSessions.back();
    double compileMs = 0.0, loadInitMs = 0.0;
    for (const Reply& r : cold.replies) {
        if (!r.ok)
            continue;
        compileMs += r.compileMs;
        loadInitMs += (r.serviceUs - r.steadyWallUs) / 1000.0 - r.compileMs;
    }

    std::vector<Metric>& L = res.perLayer;
    auto quantiles = [&](const char* name, const std::vector<double>& v) {
        const Summary s = summarize(v);
        L.push_back({std::string("service.") + name + "_us_p50", s.p50, "us"});
        L.push_back({std::string("service.") + name + "_us_p99", s.tail, "us"});
    };
    quantiles("transport", transport);
    quantiles("queue", queue);
    quantiles("handler", handler);
    quantiles("compute", compute);
    L.push_back({"service.admit_batch_mean",
                 batches ? static_cast<double>(admitted) / batches : 0.0,
                 "jobs"});
    L.push_back({"service.compiles",
                 static_cast<double>(counter(cold.stats, "compiles")),
                 "count"});
    L.push_back({"service.cache_hits",
                 static_cast<double>(counter(cold.stats, "cacheHits")),
                 "count"});
    L.push_back({"service.coalesced",
                 static_cast<double>(counter(cold.stats, "coalesced")),
                 "count"});
    L.push_back({"service.overloaded", static_cast<double>(overloaded),
                 "count"});
    L.push_back({"runner.captured_elems", static_cast<double>(capturedAtEnd),
                 "count"});
    L.push_back({"native.host_compile_ms", compileMs, "ms"});
    L.push_back({"native.load_init_ms", loadInitMs, "ms"});
    for (const auto& [label, pp] : perProgram) {
        L.push_back({"native.steady_ns_per_elem." + label,
                     pp.second > 0 ? pp.first * 1000.0 / pp.second : 0.0,
                     "ns"});
    }
    L.push_back({"codegen.emit_ms", ft.emitMs, "ms"});
    L.push_back({"codegen.emitted_kb", ft.emittedKb, "KiB"});
    L.push_back({"vectorizer.compile_ms", spans.totalMs("macroSimdize"),
                 "ms"});
    L.push_back({"frontend.parse_ms", ft.parseMs, "ms"});
    return res;
}

} // namespace perfbench
