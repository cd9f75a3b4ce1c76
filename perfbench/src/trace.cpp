#include "trace.hpp"

#include <cstdio>

namespace perfbench {

std::uint32_t
thread_number()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine =
        next.fetch_add(1, std::memory_order_relaxed);
    return mine;
}

void
Tracer::record(SpanRecord span)
{
    if (!enabled()) {
        return;
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<double>
Tracer::durations(std::string_view name) const
{
    std::vector<double> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord &s : spans_) {
        if (name == s.name) {
            out.push_back(s.seconds());
        }
    }
    return out;
}

bool
Tracer::write_chrome(const std::string &path) const
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    std::fputs("[\n", out);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        std::fprintf(out,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":%llu,\"request\":%llu}}%s\n",
                     s.name, s.thread, static_cast<double>(s.start_ns) / 1e3,
                     static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]\n", out);
    return std::fclose(out) == 0;
}

double
Span::close()
{
    const auto end = Tracer::Clock::now();
    open_ = false;
    if (tracer_->enabled()) {
        rec_.start_ns = tracer_->to_ns(start_);
        rec_.end_ns = tracer_->to_ns(end);
        rec_.thread = thread_number();
        tracer_->record(rec_);
    }
    return std::chrono::duration<double>(end - start_).count();
}

} // namespace perfbench
