#include "timed_device.hpp"

namespace perfbench {

TimedDevice::Counts
TimedDevice::counts() const
{
    Counts c;
    c.reads = reads_.load(std::memory_order_relaxed);
    c.bytes = bytes_.load(std::memory_order_relaxed);
    c.inflight_max = inflight_max_.load(std::memory_order_relaxed);
    return c;
}

void
TimedDevice::reset_counts()
{
    reads_.store(0, std::memory_order_relaxed);
    bytes_.store(0, std::memory_order_relaxed);
    inflight_max_.store(0, std::memory_order_relaxed);
}

void
TimedDevice::do_read(std::uint64_t offset, std::uint64_t len, void *buffer)
{
    const std::uint64_t now =
        inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::uint64_t seen = inflight_max_.load(std::memory_order_relaxed);
    while (now > seen && !inflight_max_.compare_exchange_weak(
                             seen, now, std::memory_order_relaxed)) {
    }
    // A failed read throws out of here; the in-flight count is only a
    // high-water mark, so leaving it raised after an error is harmless.
    Span span(*tracer_, "storage.read", tracer_->context());
    inner_->peek(offset, len, buffer);
    span.close();
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    reads_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(len, std::memory_order_relaxed);
}

void
TimedDevice::do_write(std::uint64_t offset, std::uint64_t len,
                      const void *buffer)
{
    inner_->write(offset, len, buffer);
}

} // namespace perfbench
