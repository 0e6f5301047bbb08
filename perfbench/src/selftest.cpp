/**
 * @file
 * Tests of the benchmark's own code: order statistics, the additive
 * lane checksum, and the span recorder. run.py runs this after every
 * build and refuses to measure when it fails.
 */
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "lanes.h"
#include "spans.h"
#include "stats.h"
#include "support/json.h"

using namespace perfbench;
using macross::interp::Value;

namespace {

int failures = 0;

void
check(bool ok, const char* what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

Value
intValue(std::uint32_t bits)
{
    return Value::makeInt(static_cast<std::int32_t>(bits));
}

void
testQuantiles()
{
    // Matches Python's statistics.quantiles(..., method="inclusive").
    const std::vector<double> v = {7, 1, 3, 5, 9};
    const Summary s = summarize(v);
    check(s.n == 5, "summary counts samples");
    check(near(s.p50, 5) && near(s.q1, 3) && near(s.q3, 7),
          "median and quartiles of 1,3,5,7,9");
    check(near(quantileSorted({10, 20}, 0.25), 12.5),
          "quantiles interpolate linearly");
    check(summarize({}).n == 0 && summarize({}).p50 == 0.0,
          "empty sample summarizes to zeros");
    // Half the rounds slowed by a third: the full-speed quartiles still
    // read the fast rounds, where the median would not.
    const std::vector<double> times = {10, 10, 10, 13, 13, 13, 10, 13};
    check(near(fullSpeedTime(times), 10), "full-speed time is the fast one");
    std::vector<double> rates;
    for (double t : times)
        rates.push_back(1.0 / t);
    check(near(fullSpeedRate(rates), 0.1), "full-speed rate is the fast one");
}

void
testTailRule()
{
    check(tailPercentile(1000) == 99.0, "1000 samples support p99");
    check(tailPercentile(999) == 95.0, "999 samples do not support p99");
    check(tailPercentile(100000) == 99.0, "the tail stops at p99");
    check(tailPercentile(100) == 90.0, "100 samples support p90");
    check(tailPercentile(40) == 75.0, "40 samples support p75 only");
    check(tailPercentile(39) == 50.0, "39 samples support no tail");
    check(tailPercentile(5) == 50.0, "tiny samples fall back to p50");
    std::vector<double> ramp;
    for (int i = 1; i <= 1000; ++i)
        ramp.push_back(i);
    const Summary s = summarize(ramp);
    check(s.tailPct == 99.0 && near(s.tail, 990.01),
          "p99 of 1..1000 interpolates");
}

void
testGeomean()
{
    check(near(geomean({2, 8}), 4), "geomean of 2 and 8");
    check(geomean({}) == 0.0, "geomean of nothing is 0");
    check(geomean({1, 0}) == 0.0, "geomean refuses non-positive values");
}

void
testLaneSum()
{
    std::vector<Value> stream;
    for (std::uint32_t i = 0; i < 50; ++i)
        stream.push_back(intValue(0xfffffff0u + i * 977u));
    // Per-request deltas add up to the whole stream, wrap included.
    LaneSum parts;
    std::size_t at = 0;
    for (std::size_t len : {3u, 0u, 17u, 30u}) {
        std::vector<Value> piece(stream.begin() + at,
                                 stream.begin() + at + len);
        parts.add(macross::service::checksumLanes(piece),
                  static_cast<std::int64_t>(len));
        at += len;
    }
    check(at == stream.size(), "pieces cover the stream");
    check(parts == laneSum(stream), "response checksums are additive");
    check(laneSum(stream, 20).elements == 30, "laneSum skips a prefix");
    check(laneSum(stream, 99) == LaneSum{}, "laneSum past the end is 0");
    LaneSum other = parts;
    other.add(1, 0);
    check(!(other == parts), "a changed lane is a mismatch");

    const std::uint64_t x = 0x0123456789abcdefULL;
    check(parseHex64(macross::service::hex64(x)) == x,
          "hex64 round-trips");
    check(!parseHex64("0123") && !parseHex64("0123456789ABCDEF") &&
              !parseHex64("0123456789abcdeg"),
          "malformed checksums are refused");

    std::vector<Value> same = stream;
    check(samePrefix(stream, same, stream.size()), "equal streams match");
    same[10] = intValue(same[10].rawBits(0) ^ 1u);
    check(samePrefix(stream, same, 10) &&
              !samePrefix(stream, same, 11),
          "one flipped bit is caught at its index");
    check(!samePrefix(stream, same, 51), "a short stream does not match");
}

void
testSpans()
{
    Spans off(false);
    { Span s(off, "x"); }
    check(off.size() == 0 && off.add("y", "", 0, 1) == 0,
          "a disabled recorder records nothing");

    Spans on(true);
    std::int64_t parent = 0;
    {
        Span outer(on, "outer", "detail");
        parent = outer.id();
        on.add("child", "", 1.0, 3.5, parent, 42);
        on.add("child", "", 4.0, 5.0, parent, 42);
    }
    check(on.size() == 3, "three spans recorded");
    check(near(on.totalMs("child"), 0.0035), "durations sum by name");
    bool linked = false;
    for (const Spans::Record& r : on.records())
        linked = linked || (r.name == "child" && r.parent == parent &&
                            r.request == 42);
    check(linked, "children name their parent and request");

    const std::string path = "perfbench_selftest_trace.json";
    check(on.writeChromeTrace(path), "trace file written");
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    macross::json::Value doc = macross::json::parse(ss.str());
    const macross::json::Value* events = doc.find("traceEvents");
    check(events && events->size() == 3, "trace holds every span");
    if (events && events->size() == 3) {
        const macross::json::Value& e = events->at(0);
        check(e.find("ph")->asString() == "X" &&
                  near(e.find("dur")->asDouble(), 2.5),
              "trace events are complete events with durations");
    }
}

} // namespace

int
main()
{
    testQuantiles();
    testTailRule();
    testGeomean();
    testLaneSum();
    testSpans();
    if (failures) {
        std::fprintf(stderr, "perfbench selftest: %d failure(s)\n",
                     failures);
        return 1;
    }
    std::printf("perfbench selftest: ok\n");
    return 0;
}
