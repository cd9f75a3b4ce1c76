/**
 * @file
 * Per-layer metrics of the traced run, derived from spans and from
 * the public counters each layer exposes (RunStats, ShardedEngine
 * accessors, WalkService::counters()).
 */
#pragma once

#include <string>
#include <vector>

#include "common.hpp"
#include "engine/run_stats.hpp"

namespace perfbench {

/** Ordered name → (value, unit) set. */
class LayerMetrics {
  public:
    /** Set (or overwrite) one metric. */
    void set(const std::string &name, double value, const std::string &unit);

    /** Set every metric of @p runs to its median across the runs. */
    void merge_median(const std::vector<LayerMetrics> &runs);

    /** Append every metric to @p result. */
    void append_to(Result &result) const;

  private:
    std::vector<Metric> metrics_;
};

/** graph.*: medians of the set-up spans, and the generation span. */
void add_graph_metrics(LayerMetrics &m, const Tracer &tracer);

/** storage.modeled_busy_s and core.*, from one run's RunStats. */
void add_core_metrics(LayerMetrics &m, const noswalker::engine::RunStats &s);

/** shard.migration*, from one run's RunStats. */
void add_migration_metrics(LayerMetrics &m,
                           const noswalker::engine::RunStats &s);

} // namespace perfbench
