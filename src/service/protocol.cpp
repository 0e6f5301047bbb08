#include "service/protocol.h"

#include <cstdio>

#include "support/diagnostics.h"

namespace macross::service {

std::string toString(RequestOp op)
{
    switch (op) {
    case RequestOp::Run: return "run";
    case RequestOp::Stats: return "stats";
    case RequestOp::Ping: return "ping";
    case RequestOp::Shutdown: return "shutdown";
    }
    return "?";
}

namespace {

RequestOp opFromString(const std::string& s)
{
    if (s == "run") return RequestOp::Run;
    if (s == "stats") return RequestOp::Stats;
    if (s == "ping") return RequestOp::Ping;
    if (s == "shutdown") return RequestOp::Shutdown;
    fatal("unknown op '", s,
          "' (want run, stats, ping, or shutdown)");
}

std::string stringField(const json::Value& v, const char* name,
                        const std::string& fallback)
{
    const json::Value* f = v.find(name);
    if (!f || f->isNull())
        return fallback;
    if (f->kind() != json::Value::Kind::String)
        fatal("field '", name, "' must be a string");
    return f->asString();
}

std::int64_t intField(const json::Value& v, const char* name,
                      std::int64_t fallback)
{
    const json::Value* f = v.find(name);
    if (!f || f->isNull())
        return fallback;
    if (f->kind() != json::Value::Kind::Int)
        fatal("field '", name, "' must be an integer");
    return f->asInt();
}

bool boolField(const json::Value& v, const char* name, bool fallback)
{
    const json::Value* f = v.find(name);
    if (!f || f->isNull())
        return fallback;
    if (f->kind() != json::Value::Kind::Bool)
        fatal("field '", name, "' must be a boolean");
    return f->asBool();
}

} // namespace

json::Value Request::toJson() const
{
    json::Value v = json::Value::object();
    v["op"] = toString(op);
    if (!id.empty())
        v["id"] = id;
    if (op == RequestOp::Run) {
        if (!tenant.empty())
            v["tenant"] = tenant;
        if (!bench.empty())
            v["bench"] = bench;
        if (!source.empty())
            v["source"] = source;
        v["iters"] = iters;
        if (wantOutput)
            v["output"] = true;
        v["config"] = config.toJson();
        if (!injectFault.empty())
            v["injectFault"] = injectFault;
    }
    return v;
}

Request Request::fromJson(const json::Value& v)
{
    if (v.kind() != json::Value::Kind::Object)
        fatal("request must be a JSON object");
    Request r;
    r.op = opFromString(stringField(v, "op", "ping"));
    r.id = stringField(v, "id", "");
    if (r.op != RequestOp::Run)
        return r;
    r.tenant = stringField(v, "tenant", "");
    r.bench = stringField(v, "bench", "");
    r.source = stringField(v, "source", "");
    std::int64_t iters = intField(v, "iters", 1);
    if (iters < 1 || iters > INT32_MAX)
        fatal("field 'iters' out of range (want 1..", INT32_MAX,
              ", got ", iters, ")");
    r.iters = static_cast<int>(iters);
    r.wantOutput = boolField(v, "output", false);
    if (const json::Value* c = v.find("config")) {
        if (c->kind() != json::Value::Kind::Object)
            fatal("field 'config' must be an object");
        r.config = tuner::TuneConfig::fromJson(*c);
    }
    r.injectFault = stringField(v, "injectFault", "");
    return r;
}

json::Value makeError(const std::string& id, const std::string& kind,
                      const std::string& message)
{
    json::Value v = json::Value::object();
    v["op"] = "error";
    v["id"] = id;
    v["ok"] = false;
    v["kind"] = kind;
    v["message"] = message;
    return v;
}

std::uint64_t checksumLanes(const std::vector<interp::Value>& values,
                            std::size_t first)
{
    std::uint64_t sum = 0;
    for (std::size_t i = first; i < values.size(); ++i)
        for (int lane = 0; lane < values[i].lanes(); ++lane)
            sum += values[i].rawBits(lane);
    return sum;
}

std::vector<std::uint32_t>
flattenLanes(const std::vector<interp::Value>& values,
             std::size_t first)
{
    std::vector<std::uint32_t> out;
    for (std::size_t i = first; i < values.size(); ++i)
        for (int lane = 0; lane < values[i].lanes(); ++lane)
            out.push_back(values[i].rawBits(lane));
    return out;
}

std::uint64_t checksumLanes(const std::vector<std::uint32_t>& lanes,
                            std::size_t first)
{
    std::uint64_t sum = 0;
    for (std::size_t i = first; i < lanes.size(); ++i)
        sum += lanes[i];
    return sum;
}

std::vector<std::uint32_t>
flattenLanes(const std::vector<std::uint32_t>& lanes, std::size_t first)
{
    if (first >= lanes.size())
        return {};
    return {lanes.begin() + static_cast<std::ptrdiff_t>(first),
            lanes.end()};
}

std::string hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace macross::service
