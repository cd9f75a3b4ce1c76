/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span has a name, a start and end on the steady clock, the span
 * that caused it, and, for service requests, the request id that all
 * spans of one request share.  Spans are kept in memory and written
 * out once, as a Chrome trace-event file, when the benchmark ends.
 *
 * Spans are only recorded while the tracer is enabled; a Span always
 * measures its own duration, so untimed and timed code paths stay the
 * same whether or not the run is traced.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** One finished span.  Times are nanoseconds since the tracer's origin. */
struct SpanRecord {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint64_t request = 0; ///< 0 = not part of a service request
    const char *name = "";     ///< static string
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t thread = 0;

    double
    seconds() const
    {
        return static_cast<double>(end_ns - start_ns) * 1e-9;
    }
};

/** Thread-safe span sink. */
class Tracer {
  public:
    using Clock = std::chrono::steady_clock;

    explicit Tracer(bool enabled = false) : enabled_(enabled) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

    /** Nanoseconds from the tracer's origin to @p t. */
    std::int64_t
    to_ns(Clock::time_point t) const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   t - origin_)
            .count();
    }

    std::uint64_t
    next_id()
    {
        return next_id_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * The span that reads issued from other threads (loader, shard and
     * service workers) are attributed to: the innermost run or phase
     * span the benchmark has open.
     */
    std::uint64_t context() const
    {
        return context_.load(std::memory_order_relaxed);
    }
    void set_context(std::uint64_t id)
    {
        context_.store(id, std::memory_order_relaxed);
    }

    /** Record @p span if tracing is on. */
    void record(SpanRecord span);

    /** Copy of every recorded span. */
    std::vector<SpanRecord> spans() const;

    /** Durations (seconds) of every span named @p name. */
    std::vector<double> durations(std::string_view name) const;

    /** Write the spans as a Chrome trace-event JSON array. */
    bool write_chrome(const std::string &path) const;

  private:
    const Clock::time_point origin_ = Clock::now();
    std::atomic<bool> enabled_;
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::uint64_t> context_{0};
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_; // guarded by mu_
};

/** Small per-thread number for trace rows. */
std::uint32_t thread_number();

/**
 * Scoped span: measures from construction to close() (or destruction)
 * and records itself when the tracer is enabled.
 */
class Span {
  public:
    Span(Tracer &tracer, const char *name, std::uint64_t parent = 0)
        : tracer_(&tracer), start_(Tracer::Clock::now())
    {
        rec_.id = tracer.next_id();
        rec_.parent = parent;
        rec_.name = name;
    }

    ~Span()
    {
        if (open_) {
            close();
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec_.id; }

    /** End the span; @return its duration in seconds. */
    double close();

  private:
    Tracer *tracer_;
    Tracer::Clock::time_point start_;
    SpanRecord rec_;
    bool open_ = true;
};

} // namespace perfbench
