#include "layer_metrics.hpp"

#include <algorithm>

namespace perfbench {

namespace {

constexpr double kMiB = 1 << 20;

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
LayerMetrics::set(const std::string &name, double value,
                  const std::string &unit)
{
    for (Metric &m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

void
LayerMetrics::merge_median(const std::vector<LayerMetrics> &runs)
{
    if (runs.empty()) {
        return;
    }
    for (const Metric &first : runs.front().metrics_) {
        std::vector<double> values;
        for (const LayerMetrics &run : runs) {
            for (const Metric &m : run.metrics_) {
                if (m.name == first.name) {
                    values.push_back(m.value);
                }
            }
        }
        set(first.name, median(values), first.unit);
    }
}

void
LayerMetrics::append_to(Result &result) const
{
    for (const Metric &m : metrics_) {
        result.add(m.name, m.value, m.unit);
    }
}

void
add_graph_metrics(LayerMetrics &m, const Tracer &tracer)
{
    m.set("graph.generate_s", median(tracer.durations("graph.generate")),
          "s");
    m.set("graph.write_s", median(tracer.durations("graph.write")), "s");
    m.set("graph.open_s", median(tracer.durations("graph.open")), "s");
    m.set("graph.partition_s", median(tracer.durations("graph.partition")),
          "s");
}

void
add_core_metrics(LayerMetrics &m, const noswalker::engine::RunStats &s)
{
    const auto steps = static_cast<double>(s.steps);
    m.set("storage.modeled_busy_s", s.io_busy_seconds, "s");
    m.set("core.cpu_s", s.cpu_seconds, "s");
    m.set("core.io_wait_s", s.io_wait_seconds, "s");
    // Demanded loads are every consumed load except the speculative
    // ones demoted unprocessed.
    const double demanded =
        static_cast<double>(s.blocks_loaded + s.fine_loads) -
        static_cast<double>(s.prefetch_mispredicts);
    m.set("core.prefetch_hit_ratio",
          ratio(static_cast<double>(s.prefetch_hits), demanded), "ratio");
    m.set("core.mispredict_ratio",
          ratio(static_cast<double>(s.prefetch_mispredicts),
                static_cast<double>(s.prefetch_hits + s.prefetch_mispredicts)),
          "ratio");
    m.set("core.stalls_per_kstep",
          ratio(static_cast<double>(s.stalls) * 1000.0, steps), "1/kstep");
    m.set("core.blocks_loaded", static_cast<double>(s.blocks_loaded), "count");
    m.set("core.fine_loads", static_cast<double>(s.fine_loads), "count");
    m.set("core.presample_step_share",
          ratio(static_cast<double>(s.presample_steps), steps), "ratio");
    m.set("core.block_step_share",
          ratio(static_cast<double>(s.block_steps), steps), "ratio");
    // Scalar-loop batches against all stepping passes (scalar batches
    // plus cohort-kernel rotations).
    m.set("core.kernel_fallback_share",
          ratio(static_cast<double>(s.kernel_scalar_fallbacks),
                static_cast<double>(s.kernel_scalar_fallbacks +
                                    s.kernel_cohorts)),
          "ratio");
    m.set("core.plan_credit_share",
          ratio(static_cast<double>(s.plan_cache_credits),
                static_cast<double>(s.planned_loads)),
          "ratio");
    m.set("core.rejection_accept_ratio",
          ratio(static_cast<double>(s.rejection_trials - s.rejection_rejected),
                static_cast<double>(s.rejection_trials)),
          "ratio");
    m.set("core.peak_budget_mib", static_cast<double>(s.peak_memory) / kMiB,
          "MiB");
    m.set("core.presample_fill",
          ratio(static_cast<double>(s.presample_bytes_used),
                static_cast<double>(s.presample_bytes_total)),
          "ratio");
}

void
add_migration_metrics(LayerMetrics &m, const noswalker::engine::RunStats &s)
{
    m.set("shard.migrations_per_step",
          ratio(static_cast<double>(s.migrations),
                static_cast<double>(s.steps)),
          "1/step");
    m.set("shard.migration_batches", static_cast<double>(s.migration_batches),
          "count");
    m.set("shard.migration_wait_s", s.migration_wait_seconds, "s");
    m.set("shard.migration_overlap_s", s.migration_overlap_seconds, "s");
}

} // namespace perfbench
