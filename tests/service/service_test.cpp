/**
 * @file
 * Integration tests for macrossd: the daemon runs in-process on a
 * temp socket with a hermetic cache directory, real clients connect
 * over AF_UNIX, and every assertion is end-to-end through the wire
 * protocol.
 *
 * The load-bearing properties:
 *  - N concurrent tenants produce output bit-identical to a serial
 *    Runner over the same artifact (the multi-tenant contract);
 *  - N identical concurrent submissions coalesce into ONE host
 *    compile (single-flight, asserted via the stats counters);
 *  - a full admission queue is a typed "overloaded" response, and
 *    the daemon stays healthy afterwards (explicit backpressure);
 *  - a tenant crashing in emitted code gets a structured fault
 *    response while co-resident tenants complete unperturbed, and
 *    the crashed tenant can immediately submit again (containment).
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/suite.h"
#include "interp/runner.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/protocol.h"
#include "support/diagnostics.h"
#include "support/fault.h"
#include "tuner/tune_config.h"
#include "vectorizer/compile_service.h"

namespace macross::service {
namespace {

/** Unique socket + cache dir per fixture instantiation. */
std::string freshDir(const std::string& tag)
{
    static std::atomic<int> n{0};
    return ::testing::TempDir() + "macross_svc_" + tag + "_" +
           std::to_string(::getpid()) + "_" +
           std::to_string(n.fetch_add(1));
}

DaemonOptions testOptions(const std::string& tag)
{
    DaemonOptions o;
    o.socketPath = freshDir(tag) + ".sock";
    o.native.cacheDir = freshDir(tag + "_cache");
    return o;
}

tuner::TuneConfig testConfig()
{
    tuner::TuneConfig c;
    c.laneWidth = 4;
    return c;
}

/** The serial oracle: one Runner over the same artifact and cache,
 *  returning the steady-state delta's raw lanes. */
std::vector<std::uint32_t>
serialLanes(const std::string& bench, const tuner::TuneConfig& cfg,
            int iters, const std::string& cache_dir)
{
    vectorizer::CompileService svc(
        benchmarks::benchmarkByName(bench));
    const vectorizer::CompiledProgram& p =
        svc.compile(cfg.simdizeOptions(), cfg.simd);
    interp::EngineConfig ec = cfg.engineConfig();
    ec.degrade = interp::DegradeMode::Off;
    ec.native.cacheDir = cache_dir;
    interp::Runner r(p.graph, p.schedule, nullptr, ec);
    r.runInit();
    std::size_t seen = r.captured().size();
    r.runSteady(iters);
    return flattenLanes(r.captured().lanes(), seen);
}

Request runRequest(const std::string& bench, int iters,
                   const std::string& tenant,
                   const std::string& id = "r")
{
    Request req;
    req.op = RequestOp::Run;
    req.id = id;
    req.bench = bench;
    req.iters = iters;
    req.tenant = tenant;
    req.wantOutput = true;
    req.config = testConfig();
    return req;
}

std::vector<std::uint32_t> lanesOf(const json::Value& resp)
{
    std::vector<std::uint32_t> out;
    const json::Value* arr = resp.find("output");
    if (!arr)
        return out;
    for (const json::Value& v : arr->items())
        out.push_back(static_cast<std::uint32_t>(v.asInt()));
    return out;
}

std::int64_t counter(const json::Value& stats, const char* name)
{
    const json::Value* c = stats.find("counters");
    if (!c)
        return -1;
    const json::Value* v = c->find(name);
    return v ? v->asInt() : -1;
}

TEST(Service, PingStatsAndBadRequests)
{
    Daemon daemon(testOptions("ping"));
    daemon.start();
    Client client(daemon.options().socketPath);

    json::Value pong = client.ping();
    EXPECT_EQ(pong.find("op")->asString(), "pong");
    EXPECT_TRUE(pong.find("ok")->asBool());
    EXPECT_EQ(pong.find("version")->asInt(), kProtocolVersion);

    // A non-object line is a typed bad-request, not a dead daemon.
    json::Value bad = client.call(json::Value("garbage"));
    EXPECT_EQ(bad.find("kind")->asString(), kind::kBadRequest);

    // Unknown benchmark.
    json::Value resp =
        client.call(runRequest("NoSuchBenchmark", 1, "t"));
    EXPECT_FALSE(resp.find("ok")->asBool());
    EXPECT_EQ(resp.find("kind")->asString(), kind::kBadRequest);

    // bench and source are mutually exclusive.
    Request both = runRequest("FMRadio", 1, "t");
    both.source = "float->float filter F { work push 1 pop 1 { "
                  "push(pop()); } }";
    resp = client.call(both);
    EXPECT_EQ(resp.find("kind")->asString(), kind::kBadRequest);

    // The daemon runs the serial native engine only.
    Request threads = runRequest("FMRadio", 1, "t");
    threads.config.threads = 2;
    resp = client.call(threads);
    EXPECT_EQ(resp.find("kind")->asString(), kind::kBadRequest);

    // Fault injection is rejected unless explicitly allowed.
    Request inject = runRequest("FMRadio", 1, "t");
    inject.injectFault = "native-crash";
    resp = client.call(inject);
    EXPECT_EQ(resp.find("kind")->asString(), kind::kBadRequest);

    json::Value stats = client.stats();
    EXPECT_GE(counter(stats, "badRequests"), 4);
    EXPECT_EQ(counter(stats, "runsCompleted"), 0);

    daemon.requestShutdown();
    daemon.wait();
}

TEST(Service, ConcurrentTenantsBitIdenticalWithSerialRunner)
{
    DaemonOptions opts = testOptions("tenants");
    opts.workers = 4;
    std::string cacheDir = opts.native.cacheDir;
    Daemon daemon(std::move(opts));
    daemon.start();

    const std::vector<std::string> benches = {
        "FMRadio", "BeamFormer", "FilterBank", "DCT"};
    const int itersPerRequest = 3;
    const int requestsPerTenant = 2;

    // 4 tenants, each on its own connection + thread, each running
    // its own benchmark twice; the runner persists between requests,
    // so the two deltas concatenated must equal one serial run of
    // 2 * iters.
    std::vector<std::vector<std::uint32_t>> got(benches.size());
    std::vector<std::string> errors(benches.size());
    std::vector<std::thread> tenants;
    for (std::size_t i = 0; i < benches.size(); ++i) {
        tenants.emplace_back([&, i] {
            try {
                Client c(daemon.options().socketPath);
                for (int r = 0; r < requestsPerTenant; ++r) {
                    json::Value resp = c.call(runRequest(
                        benches[i], itersPerRequest,
                        "tenant-" + benches[i],
                        benches[i] + "-" + std::to_string(r)));
                    if (!resp.find("ok")->asBool()) {
                        errors[i] = resp.dump();
                        return;
                    }
                    std::vector<std::uint32_t> lanes =
                        lanesOf(resp);
                    got[i].insert(got[i].end(), lanes.begin(),
                                  lanes.end());
                }
            } catch (const std::exception& e) {
                errors[i] = e.what();
            }
        });
    }
    for (std::thread& t : tenants)
        t.join();

    for (std::size_t i = 0; i < benches.size(); ++i) {
        ASSERT_TRUE(errors[i].empty())
            << benches[i] << ": " << errors[i];
        std::vector<std::uint32_t> want = serialLanes(
            benches[i], testConfig(),
            itersPerRequest * requestsPerTenant, cacheDir);
        EXPECT_EQ(got[i], want)
            << benches[i]
            << ": daemon output is not bit-identical to the serial "
               "Runner";
    }

    Client c(daemon.options().socketPath);
    json::Value stats = c.stats();
    EXPECT_EQ(counter(stats, "runsCompleted"),
              static_cast<std::int64_t>(benches.size()) *
                  requestsPerTenant);
    EXPECT_EQ(counter(stats, "faults"), 0);

    daemon.requestShutdown();
    daemon.wait();
}

TEST(Service, CoalescesIdenticalConcurrentCompiles)
{
    DaemonOptions opts = testOptions("coalesce");
    opts.workers = 6;
    opts.compileQueueCap = 8;
    opts.admitBatch = 1;  // One job per worker: maximal concurrency.
    Daemon daemon(std::move(opts));
    daemon.start();

    // Six tenants submit the SAME (program, config) artifact at
    // once, before anything is warm. Single-flight must collapse
    // them into exactly one host compile.
    const int n = 6;
    std::vector<std::string> checksums(n);
    std::vector<std::string> errors(n);
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            try {
                Client c(daemon.options().socketPath);
                json::Value resp = c.call(
                    runRequest("FMRadio", 2,
                               "tenant-" + std::to_string(i)));
                if (!resp.find("ok")->asBool())
                    errors[i] = resp.dump();
                else
                    checksums[i] =
                        resp.find("checksum")->asString();
            } catch (const std::exception& e) {
                errors[i] = e.what();
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    for (int i = 0; i < n; ++i)
        ASSERT_TRUE(errors[i].empty()) << errors[i];
    for (int i = 1; i < n; ++i)
        EXPECT_EQ(checksums[i], checksums[0]);

    Client c(daemon.options().socketPath);
    json::Value stats = c.stats();
    EXPECT_EQ(counter(stats, "compiles"), 1)
        << "N identical concurrent submissions must pay exactly one "
           "host compile";
    EXPECT_EQ(counter(stats, "cacheHits"), n - 1);
    EXPECT_EQ(counter(stats, "runsCompleted"), n);

    daemon.requestShutdown();
    daemon.wait();
}

TEST(Service, FullQueueIsTypedOverloadedAndDaemonRecovers)
{
    DaemonOptions opts = testOptions("backpressure");
    opts.workers = 1;
    opts.runQueueCap = 1;
    opts.admitBatch = 1;
    Daemon daemon(std::move(opts));
    daemon.start();

    // Warm the artifact so the burst below takes the run queue.
    {
        Client c(daemon.options().socketPath);
        json::Value resp = c.call(runRequest("FMRadio", 1, "warm"));
        ASSERT_TRUE(resp.find("ok")->asBool()) << resp.dump();
    }

    // Stall the single worker (in-process chaos hook), then burst 8
    // requests: capacity 1 means most must be refused with a typed
    // "overloaded" — explicit backpressure, not unbounded queueing.
    support::FaultInjector::instance().arm(
        "service.worker.job",
        [](std::int64_t*) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(300));
        });
    const int n = 8;
    std::atomic<int> succeeded{0};
    std::atomic<int> overloaded{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
            Client c(daemon.options().socketPath);
            json::Value resp = c.call(runRequest(
                "FMRadio", 1, "burst-" + std::to_string(i)));
            if (resp.find("ok")->asBool()) {
                succeeded.fetch_add(1);
            } else if (resp.find("kind")->asString() ==
                       kind::kOverloaded) {
                overloaded.fetch_add(1);
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    support::FaultInjector::instance().reset();

    EXPECT_EQ(succeeded.load() + overloaded.load(), n)
        << "every request must get a typed answer";
    EXPECT_GE(overloaded.load(), 1);
    EXPECT_GE(succeeded.load(), 1);

    // The daemon is healthy after shedding load.
    Client c(daemon.options().socketPath);
    json::Value resp = c.call(runRequest("FMRadio", 1, "after"));
    EXPECT_TRUE(resp.find("ok")->asBool()) << resp.dump();
    json::Value stats = c.stats();
    EXPECT_GE(counter(stats, "overloaded"), 1);

    daemon.requestShutdown();
    daemon.wait();
}

TEST(Service, CrashingTenantIsContainedAndCanRetry)
{
    DaemonOptions opts = testOptions("crash");
    opts.workers = 4;
    opts.admitBatch = 1;
    opts.allowFaultInjection = true;
    std::string cacheDir = opts.native.cacheDir;
    Daemon daemon(std::move(opts));
    daemon.start();

    // Warm the artifact first so the co-residents take the fast
    // path and the crash hits a warm cache entry (the interesting
    // case: quarantine + recompile, not a cold miss).
    {
        Client c(daemon.options().socketPath);
        json::Value resp = c.call(runRequest("FMRadio", 1, "warm"));
        ASSERT_TRUE(resp.find("ok")->asBool()) << resp.dump();
    }
    std::vector<std::uint32_t> want =
        serialLanes("FMRadio", testConfig(), 4, cacheDir);

    // Tenant A crashes in emitted code; B, C, D run concurrently
    // and must complete with bit-identical output.
    json::Value crashResp;
    std::vector<std::vector<std::uint32_t>> good(3);
    std::vector<std::string> errors(3);
    std::thread crasher([&] {
        Client c(daemon.options().socketPath);
        Request req = runRequest("FMRadio", 4, "tenant-A", "crash");
        req.injectFault = "native-crash";
        crashResp = c.call(req);
    });
    std::vector<std::thread> residents;
    for (int i = 0; i < 3; ++i) {
        residents.emplace_back([&, i] {
            try {
                Client c(daemon.options().socketPath);
                json::Value resp = c.call(runRequest(
                    "FMRadio", 4, "tenant-" + std::to_string(i)));
                if (!resp.find("ok")->asBool())
                    errors[i] = resp.dump();
                else
                    good[i] = lanesOf(resp);
            } catch (const std::exception& e) {
                errors[i] = e.what();
            }
        });
    }
    crasher.join();
    for (std::thread& t : residents)
        t.join();

    // The crash is a structured per-request fault, not a dead
    // daemon.
    ASSERT_FALSE(crashResp.isNull());
    EXPECT_FALSE(crashResp.find("ok")->asBool());
    EXPECT_EQ(crashResp.find("kind")->asString(), kind::kFault);
    const json::Value* fault = crashResp.find("fault");
    ASSERT_NE(fault, nullptr);
    EXPECT_EQ(fault->find("kind")->asString(), "crash");

    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(errors[i].empty()) << errors[i];
        EXPECT_EQ(good[i], want)
            << "co-resident tenant " << i
            << " was perturbed by tenant-A's crash";
    }

    // Tenant A retries without the fault and succeeds: its context
    // was discarded, the quarantined entry recompiles fresh.
    Client c(daemon.options().socketPath);
    json::Value retry =
        c.call(runRequest("FMRadio", 4, "tenant-A", "retry"));
    ASSERT_TRUE(retry.find("ok")->asBool()) << retry.dump();
    EXPECT_EQ(lanesOf(retry), want);

    json::Value stats = c.stats();
    EXPECT_EQ(counter(stats, "faults"), 1);

    daemon.requestShutdown();
    daemon.wait();
}

TEST(Service, PersistentTenantContinuesSteadyState)
{
    DaemonOptions opts = testOptions("persist");
    std::string cacheDir = opts.native.cacheDir;
    Daemon daemon(std::move(opts));
    daemon.start();

    Client c(daemon.options().socketPath);
    std::vector<std::uint32_t> all;
    for (int r = 0; r < 3; ++r) {
        json::Value resp = c.call(
            runRequest("RunningExample", 2, "alice",
                       "run-" + std::to_string(r)));
        ASSERT_TRUE(resp.find("ok")->asBool()) << resp.dump();
        EXPECT_EQ(resp.find("tenantRuns")->asInt(), r + 1);
        std::vector<std::uint32_t> lanes = lanesOf(resp);
        all.insert(all.end(), lanes.begin(), lanes.end());
    }
    EXPECT_EQ(all, serialLanes("RunningExample", testConfig(), 6,
                               cacheDir))
        << "three daemon requests must continue one steady state";

    daemon.requestShutdown();
    daemon.wait();
}

TEST(Service, ShutdownRequestDrainsCleanly)
{
    DaemonOptions opts = testOptions("shutdown");
    std::string socket = opts.socketPath;
    Daemon daemon(std::move(opts));
    daemon.start();

    Client c(socket);
    ASSERT_TRUE(c.call(runRequest("RunningExample", 1, "t"))
                    .find("ok")
                    ->asBool());
    json::Value ack = c.shutdown();
    EXPECT_TRUE(ack.find("ok")->asBool());
    daemon.wait();

    // Socket file is gone; a fresh connect is refused.
    EXPECT_THROW(Client reject(socket), FatalError);
}

} // namespace
} // namespace macross::service
