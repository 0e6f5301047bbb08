/**
 * @file
 * The benchmark's span recorder.
 *
 * A span is one call into a layer of the system: a name, start and
 * end on one steady clock, the span that caused it, and the request
 * it belongs to. The recorder is thread-safe (one mutex; spans are
 * appended at their end), keeps spans in memory, and writes Chrome
 * trace-event JSON when the run ends. Per-name totals cover every
 * span; the file keeps the first kMaxStored, which covers set-up and
 * the first rounds, so a trace stays a few tens of megabytes. Spans
 * are recorded only in the traced run; when the recorder is off every
 * call is a no-op, so the untraced run pays one branch per call site.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
  public:
    using Clock = std::chrono::steady_clock;

    /** One finished span; times are microseconds since the origin. */
    struct Record {
        std::string name;
        std::string detail;  ///< Program, tenant or config.
        double startUs = 0.0;
        double endUs = 0.0;
        std::int64_t id = 0;
        std::int64_t parent = 0;   ///< 0 = root.
        std::int64_t request = 0;  ///< 0 = not part of a request.
        int tid = 0;
    };

    /** Spans kept for the trace file; later ones are only counted. */
    static constexpr std::size_t kMaxStored = 100000;

    explicit Spans(bool on) : on_(on), origin_(Clock::now()) {}

    bool on() const { return on_; }

    /** Microseconds from the origin to @p t. */
    double micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    /** A fresh span id (also used for request ids). */
    std::int64_t nextId();

    /**
     * Record a finished span [start, end] and return its id. Use
     * @p id to record a span whose id was taken earlier (so children
     * could name it as their parent); 0 allocates one.
     */
    std::int64_t add(const std::string& name, const std::string& detail,
                     double startUs, double endUs,
                     std::int64_t parent = 0, std::int64_t request = 0,
                     std::int64_t id = 0);

    /** Sum of durations of every span called @p name, in ms. */
    double totalMs(const std::string& name) const;

    /** Spans recorded so far (kept or not). */
    std::size_t size() const;

    /** Nanoseconds spent inside add() (the recorder's own cost). */
    double recorderNanos() const;

    /** Write every span as Chrome trace-event JSON to @p path. */
    bool writeChromeTrace(const std::string& path) const;

    /** Copy of the records (for tests). */
    std::vector<Record> records() const;

  private:
    const bool on_;
    const Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Record> records_;
    std::map<std::string, double> totalUs_;
    std::map<std::uint64_t, int> tids_;
    std::int64_t nextId_ = 1;
    std::size_t dropped_ = 0;
    double recorderNanos_ = 0.0;
};

/**
 * Scoped span: records [construction, destruction) when the recorder
 * is on. id() is valid from construction, so calls made inside the
 * scope can name it as their parent.
 */
class Span {
  public:
    Span(Spans& spans, const char* name, std::string detail = {},
         std::int64_t parent = 0, std::int64_t request = 0)
        : spans_(spans), name_(name), detail_(std::move(detail)),
          parent_(parent), request_(request)
    {
        if (spans_.on()) {
            id_ = spans_.nextId();
            start_ = Spans::Clock::now();
        }
    }

    ~Span()
    {
        if (spans_.on()) {
            spans_.add(name_, detail_, spans_.micros(start_),
                       spans_.micros(Spans::Clock::now()), parent_,
                       request_, id_);
        }
    }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    std::int64_t id() const { return id_; }

  private:
    Spans& spans_;
    const char* name_;
    std::string detail_;
    std::int64_t parent_;
    std::int64_t request_;
    std::int64_t id_ = 0;
    Spans::Clock::time_point start_{};
};

} // namespace perfbench
