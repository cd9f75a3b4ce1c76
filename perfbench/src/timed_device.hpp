/**
 * @file
 * Storage timing wrapper: an IoDevice over a storage::FileDevice.
 *
 * Reads forward to the wrapped device's unaccounted data path
 * (IoDevice::peek) and the wrapper is built with the wrapped device's
 * SsdModel, so the base-class accounting — bytes, requests, modeled
 * busy seconds — is exactly what a bare FileDevice reports.  On top of
 * that the wrapper counts every read that reaches the file (including
 * the unaccounted peeks of shard::ShardDevice), tracks the in-flight
 * high-water mark, and records one span per read while tracing.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "storage/file_device.hpp"
#include "trace.hpp"

namespace perfbench {

class TimedDevice final : public noswalker::storage::IoDevice {
  public:
    /** Counts of reads that reached the file. */
    struct Counts {
        std::uint64_t reads = 0;
        std::uint64_t bytes = 0;
        std::uint64_t inflight_max = 0;
    };

    TimedDevice(noswalker::storage::FileDevice &inner, Tracer &tracer)
        : IoDevice(inner.model()), inner_(&inner), tracer_(&tracer)
    {
    }

    std::uint64_t size() const override { return inner_->size(); }

    Counts counts() const;

    /** Zero the read counts (between phases). */
    void reset_counts();

  protected:
    void do_read(std::uint64_t offset, std::uint64_t len,
                 void *buffer) override;
    void do_write(std::uint64_t offset, std::uint64_t len,
                  const void *buffer) override;

  private:
    noswalker::storage::FileDevice *inner_;
    Tracer *tracer_;
    std::atomic<std::uint64_t> reads_{0};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> inflight_{0};
    std::atomic<std::uint64_t> inflight_max_{0};
};

} // namespace perfbench
