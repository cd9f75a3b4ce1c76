/**
 * @file
 * Block retention under an unlimited budget (DESIGN.md §16): an engine
 * that owns an unlimited budget keeps every processed block resident,
 * so each block is read at most once and pre-sampling is skipped.
 * Walk output stays bit-identical across step threads, prefetch depth,
 * step cohort and plan window.  Retention must never engage under a
 * finite budget, a shared budget or cache, or inside shard rounds.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/noswalker_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/mem_device.hpp"
#include "storage/shared_block_cache.hpp"
#include "util/memory_budget.hpp"

namespace noswalker {
namespace {

using testing_support::ConcurrentRecordingWalk;
using testing_support::RecordingNode2Vec;

constexpr std::uint64_t kWalkers = 2000;
constexpr std::uint32_t kLength = 16;

/** Out-degree ≥ 1 everywhere, so walkers reach every block. */
class ResidentBlocks : public testing::Test {
  protected:
    void
    SetUp() override
    {
        graph_ = graph::generate_uniform(8192, 8, 101);
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ = std::make_unique<graph::BlockPartition>(
            *file_, file_->edge_region_bytes() / 16);
    }

    core::EngineConfig
    config(std::uint64_t budget = 0) const
    {
        return core::EngineConfig::full(budget,
                                        partition_->max_block_bytes());
    }

    std::vector<std::uint32_t>
    visits_of(const ConcurrentRecordingWalk &app) const
    {
        std::vector<std::uint32_t> v(app.visits.size());
        for (std::size_t i = 0; i < v.size(); ++i) {
            v[i] = app.visits[i].load();
        }
        return v;
    }

    /** Signs of the out-of-core cycle: pre-samples served steps and
     *  some block was read more than once. */
    void
    expect_not_retained(const engine::RunStats &stats,
                        const char *where) const
    {
        EXPECT_GT(stats.presample_steps, 0u) << where;
        EXPECT_GT(stats.blocks_loaded, partition_->num_blocks()) << where;
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

TEST_F(ResidentBlocks, UnlimitedBudgetReadsEachBlockOnce)
{
    ASSERT_GE(partition_->num_blocks(), 8u);
    ConcurrentRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(*file_, *partition_,
                                                       config());
    const engine::RunStats stats = eng.run(app, kWalkers);
    EXPECT_EQ(stats.walkers, kWalkers);
    EXPECT_EQ(stats.steps, kWalkers * kLength);
    EXPECT_LE(stats.blocks_loaded, partition_->num_blocks());
    EXPECT_EQ(stats.presample_steps, 0u);
    EXPECT_EQ(stats.presample_bytes_total, 0u);
    EXPECT_EQ(stats.block_steps, stats.steps);
    // Every block got walkers here, so all of them stayed resident.
    ASSERT_EQ(stats.blocks_loaded, partition_->num_blocks());
    EXPECT_GE(stats.peak_memory,
              file_->index_bytes() + file_->edge_region_bytes());
}

TEST_F(ResidentBlocks, BasicWalkBitIdenticalAcrossThreadsDepthsCohortsWindows)
{
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    std::vector<engine::RunStats> stats;
    for (const unsigned threads : {1u, 4u}) {
        for (const unsigned depth : {0u, 1u, 4u}) {
            for (const unsigned cohort : {1u, 16u}) {
                for (const unsigned window : {0u, 4u}) {
                    ConcurrentRecordingWalk app(
                        kLength, file_->num_vertices(), kWalkers);
                    core::EngineConfig cfg = config();
                    cfg.step_threads = threads;
                    cfg.prefetch_depth = depth;
                    cfg.step_cohort = cohort;
                    cfg.plan_window = window;
                    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
                        *file_, *partition_, cfg);
                    stats.push_back(eng.run(app, kWalkers));
                    endpoints.push_back(app.endpoints);
                    visits.push_back(visits_of(app));
                    EXPECT_LE(stats.back().blocks_loaded,
                              partition_->num_blocks());
                    EXPECT_EQ(stats.back().presample_steps, 0u);
                }
            }
        }
    }
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(stats[t].steps, stats[0].steps) << "config " << t;
        EXPECT_EQ(stats[t].stalls, stats[0].stalls) << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
        EXPECT_EQ(visits[t], visits[0]) << "config " << t;
    }
}

TEST_F(ResidentBlocks, Node2VecBitIdenticalAcrossThreadsDepthsCohortsWindows)
{
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<engine::RunStats> stats;
    for (const unsigned threads : {1u, 4u}) {
        for (const unsigned depth : {0u, 1u, 4u}) {
            for (const unsigned cohort : {1u, 16u}) {
                for (const unsigned window : {0u, 4u}) {
                    RecordingNode2Vec app(2.0, 0.5, 10,
                                          file_->num_vertices(), 1);
                    core::EngineConfig cfg = config();
                    cfg.step_threads = threads;
                    cfg.prefetch_depth = depth;
                    cfg.step_cohort = cohort;
                    cfg.plan_window = window;
                    core::NosWalkerEngine<RecordingNode2Vec> eng(
                        *file_, *partition_, cfg);
                    stats.push_back(eng.run(app, app.total_walkers()));
                    endpoints.push_back(app.endpoints);
                    EXPECT_LE(stats.back().blocks_loaded,
                              partition_->num_blocks());
                    EXPECT_EQ(stats.back().presample_steps, 0u);
                }
            }
        }
    }
    EXPECT_GT(stats[0].rejection_trials, 0u);
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(stats[t].steps, stats[0].steps) << "config " << t;
        EXPECT_EQ(stats[t].rejection_trials, stats[0].rejection_trials)
            << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
    }
}

TEST_F(ResidentBlocks, RetentionChangesWhereBytesComeFromNotTheWalk)
{
    // Without pre-samples every step draws from the walker's own
    // stream over the true adjacency, wherever the bytes live.  So a
    // retaining run must match an out-of-core run with pre-sampling
    // off, step for step.
    const std::uint64_t tight =
        testing_support::tight_budget(*file_, *partition_);
    ASSERT_LT(tight, file_->file_bytes());
    ConcurrentRecordingWalk retained(kLength, file_->num_vertices(),
                                     kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> a(*file_, *partition_,
                                                     config());
    a.run(retained, kWalkers);

    ConcurrentRecordingWalk ooc(kLength, file_->num_vertices(), kWalkers);
    core::EngineConfig cfg = config(tight);
    cfg.presample = false;
    core::NosWalkerEngine<ConcurrentRecordingWalk> b(*file_, *partition_,
                                                     cfg);
    const engine::RunStats s = b.run(ooc, kWalkers);
    EXPECT_GT(s.blocks_loaded, partition_->num_blocks());
    EXPECT_EQ(ooc.endpoints, retained.endpoints);
    EXPECT_EQ(visits_of(ooc), visits_of(retained));
}

TEST_F(ResidentBlocks, NeverUnderATightBudget)
{
    const std::uint64_t tight =
        testing_support::tight_budget(*file_, *partition_);
    ASSERT_LT(tight, file_->file_bytes());
    ConcurrentRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(*file_, *partition_,
                                                       config(tight));
    const engine::RunStats stats = eng.run(app, kWalkers);
    expect_not_retained(stats, "tight budget");
    EXPECT_LE(stats.peak_memory, tight);
}

TEST_F(ResidentBlocks, NeverUnderASharedBudget)
{
    // The walk service attaches one unlimited pool to every worker
    // engine; a run must not keep blocks another tenant pays for.
    util::MemoryBudget shared(0);
    ConcurrentRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(*file_, *partition_,
                                                       config());
    eng.set_shared_budget(&shared);
    expect_not_retained(eng.run(app, kWalkers), "shared budget");
    EXPECT_EQ(shared.used(), 0u);
}

TEST_F(ResidentBlocks, NeverWithASharedCache)
{
    storage::SharedBlockCache cache(32ULL << 20);
    ConcurrentRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
    core::NosWalkerEngine<ConcurrentRecordingWalk> eng(*file_, *partition_,
                                                       config());
    eng.set_shared_cache(&cache);
    expect_not_retained(eng.run(app, kWalkers), "shared cache");
}

TEST_F(ResidentBlocks, NeverInShardRounds)
{
    for (const unsigned shards : {1u, 2u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::EngineConfig cfg = config();
        cfg.num_shards = shards;
        shard::ShardedEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, cfg);
        const engine::RunStats stats = eng.run(app, kWalkers);
        // Shard rounds run without pre-samples (§11): only re-reads
        // show the out-of-core cycle.
        EXPECT_EQ(stats.presample_steps, 0u);
        EXPECT_GT(stats.blocks_loaded, partition_->num_blocks())
            << shards << " shards";
    }
}

} // namespace
} // namespace noswalker
