/**
 * @file
 * Test-only walk driven straight through AsyncLoader + PrefetchPipeline
 * — the engine's load loop without the engine — so the loader's
 * threading mode and the pipeline's reorder window, which the engine
 * fixes, can be varied and compared.
 */
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/block_scheduler.hpp"
#include "core/prefetch_pipeline.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/async_loader.hpp"
#include "storage/block_buffer_pool.hpp"
#include "storage/block_reader.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"

namespace noswalker::testing_support {

/** What a pipeline_walk produced. */
struct PipelineWalk {
    std::vector<graph::VertexId> endpoints;
    std::uint64_t steps = 0;
    core::PrefetchPipeline::Stats pipeline;
};

/**
 * Walk @p walkers uniform walkers of @p length steps, each on its own
 * stream derive_stream(@p seed, id).  Every round obtains the
 * scheduler's hottest block, steps each walker parked there while it
 * stays inside the block, parks it at its next block, then speculates
 * on the next hottest blocks — the engine's order.
 *
 * @param background  run the loader on a background thread (else the
 *        loads execute synchronously inside the pipeline calls).
 * @param window  the pipeline's reorder window.
 * @param depth   speculative slots.
 */
inline PipelineWalk
pipeline_walk(const graph::GraphFile &file,
              const graph::BlockPartition &partition, bool background,
              std::size_t window, std::size_t depth, std::uint64_t walkers,
              std::uint32_t length, std::uint64_t seed = 42)
{
    util::MemoryBudget budget;
    storage::BlockReader reader(file, budget);
    storage::BlockBufferPool pool;
    storage::AsyncLoader loader(reader, background,
                                std::max<std::size_t>(depth, 1), &pool);
    core::PrefetchPipeline pipeline(loader, reader, pool, depth, nullptr,
                                    file.device().model().queue_latency,
                                    window);
    core::BlockScheduler scheduler(partition.num_blocks(), 4.0,
                                   file.edge_region_bytes(), 4096);

    struct Walker {
        graph::VertexId at = 0;
        std::uint32_t step = 0;
        std::uint64_t stream = 0;
    };
    std::vector<Walker> walks(walkers);
    std::vector<std::vector<std::uint64_t>> buckets(partition.num_blocks());
    PipelineWalk out;
    out.endpoints.resize(walkers);
    const auto park = [&](std::uint64_t id) {
        const Walker &w = walks[id];
        out.endpoints[id] = w.at;
        if (w.step < length && file.degree(w.at) > 0) {
            const std::uint32_t b = partition.block_of(w.at);
            buckets[b].push_back(id);
            scheduler.add_walker(b);
        }
    };
    for (std::uint64_t id = 0; id < walkers; ++id) {
        walks[id].at = static_cast<graph::VertexId>(
            (id * 7919) % file.num_vertices());
        walks[id].stream = util::derive_stream(seed, id);
        park(id);
    }

    std::vector<std::uint32_t> covered;
    for (;;) {
        pipeline.poll();
        const std::uint32_t target = scheduler.hottest();
        if (target == core::BlockScheduler::kNoBlock) {
            break;
        }
        storage::AsyncLoader::Request request;
        request.block = &partition.block(target);
        storage::AsyncLoader::Response response =
            pipeline.obtain(std::move(request));
        std::vector<std::uint64_t> bucket;
        bucket.swap(buckets[target]);
        scheduler.remove_walkers(target, bucket.size());
        for (const std::uint64_t id : bucket) {
            Walker &w = walks[id];
            while (w.step < length && response.block->contains(w.at) &&
                   file.degree(w.at) > 0) {
                util::Rng rng(util::splitmix_next(w.stream));
                w.at = response.buffer.view(file, w.at).sample_uniform(rng);
                ++w.step;
                ++out.steps;
            }
            park(id);
        }
        pipeline.recycle(std::move(response.buffer));
        pipeline.sweep(scheduler);

        covered.clear();
        pipeline.collect_covered(covered);
        for (const std::uint32_t next :
             scheduler.top_k_excluding(depth, covered)) {
            if (!pipeline.can_speculate()) {
                break;
            }
            pipeline.speculate(partition.block(next));
        }
    }
    pipeline.finish();
    out.pipeline = pipeline.stats();
    return out;
}

} // namespace noswalker::testing_support
