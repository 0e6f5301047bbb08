/**
 * @file
 * Span recorder implementation.
 */
#include "spans.h"

#include <fstream>
#include <functional>
#include <thread>

#include "support/json.h"

namespace perfbench {

std::int64_t
Spans::nextId()
{
    std::lock_guard<std::mutex> lk(mu_);
    return nextId_++;
}

std::int64_t
Spans::add(const std::string& name, const std::string& detail,
           double startUs, double endUs, std::int64_t parent,
           std::int64_t request, std::int64_t id)
{
    if (!on_)
        return 0;
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t thread =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lk(mu_);
    if (id == 0)
        id = nextId_++;
    auto tid = tids_.emplace(thread, static_cast<int>(tids_.size()) + 1)
                   .first->second;
    if (records_.size() < kMaxStored)
        records_.push_back(
            {name, detail, startUs, endUs, id, parent, request, tid});
    else
        ++dropped_;
    totalUs_[name] += endUs - startUs;
    recorderNanos_ +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0)
            .count();
    return id;
}

double
Spans::totalMs(const std::string& name) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = totalUs_.find(name);
    return it == totalUs_.end() ? 0.0 : it->second / 1000.0;
}

std::size_t
Spans::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return records_.size() + dropped_;
}

double
Spans::recorderNanos() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return recorderNanos_;
}

std::vector<Spans::Record>
Spans::records() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return records_;
}

bool
Spans::writeChromeTrace(const std::string& path) const
{
    using macross::json::Value;
    std::lock_guard<std::mutex> lk(mu_);
    std::ofstream out(path);
    if (!out)
        return false;
    // One event per line keeps a large trace diffable and streamable.
    out << "{\"displayTimeUnit\":\"ms\",\"droppedSpans\":" << dropped_
        << ",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& r = records_[i];
        Value e = Value::object();
        e["name"] = r.name;
        e["cat"] = "perfbench";
        e["ph"] = "X";
        e["ts"] = r.startUs;
        e["dur"] = r.endUs - r.startUs;
        e["pid"] = 1;
        e["tid"] = r.tid;
        Value args = Value::object();
        args["id"] = r.id;
        args["parent"] = r.parent;
        if (r.request)
            args["request"] = r.request;
        if (!r.detail.empty())
            args["detail"] = r.detail;
        e["args"] = std::move(args);
        out << e.dump() << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
