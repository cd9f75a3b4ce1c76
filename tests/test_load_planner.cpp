/**
 * @file
 * LoadPlanner suite (DESIGN.md §13).
 *
 * Tentpole guarantee: walk output is bit-identical at every plan
 * window × step-thread count × shard count — the engine always
 * processes the scheduler's hottest block; planning only decides which
 * bytes arrive early — and plan_window = 0 is the greedy top-K
 * nomination byte for byte.
 *
 * Unit coverage: greedy passthrough, lowest-id tie-breaks, one-step
 * flow propagation reordering picks, cache-residency cost credits,
 * tenant-weight commit gating, the new RunStats counters' fold/scale
 * round trip, and the service surfacing per-tenant cache hit/miss
 * counters (satellite: SharedBlockCache accounting per tenant).
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/block_scheduler.hpp"
#include "core/load_planner.hpp"
#include "core/noswalker_engine.hpp"
#include "engine/run_stats.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "service/walk_service.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/mem_device.hpp"
#include "storage/shared_block_cache.hpp"

namespace noswalker {
namespace {

using testing_support::ConcurrentRecordingWalk;
using testing_support::RecordingNode2Vec;

/** Uniform-degree graph → every block has the same byte size, so the
 *  unit tests can stage exact score ties. */
class LoadPlannerUnitTest : public testing::Test {
  protected:
    void
    SetUp() override
    {
        graph_ = graph::generate_uniform(/*num_vertices=*/512,
                                         /*degree=*/8, /*seed=*/7);
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ = std::make_unique<graph::BlockPartition>(
            *file_, file_->edge_region_bytes() / 8);
        ASSERT_GE(partition_->num_blocks(), 6u);
        // The tie-break tests need exact score ties at equal heat.
        for (std::uint32_t b = 1; b < 6; ++b) {
            ASSERT_EQ(partition_->block(b).byte_size,
                      partition_->block(0).byte_size)
                << "uniform graph must partition into equal blocks";
        }
    }

    core::BlockScheduler
    scheduler() const
    {
        return core::BlockScheduler(partition_->num_blocks(), 4.0,
                                    file_->edge_region_bytes(), 4096);
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

TEST_F(LoadPlannerUnitTest, WindowZeroIsGreedyTopKPassthrough)
{
    core::BlockScheduler sched = scheduler();
    sched.add_walker(3);
    sched.add_walker(3);
    sched.add_walker(1);
    sched.add_walker(5);

    core::LoadPlanner planner(*partition_, {.window = 0});
    const auto greedy = sched.top_k_excluding(3, {});
    EXPECT_EQ(planner.plan(sched, nullptr, {}, 3), greedy);
    EXPECT_EQ(planner.stats().plan_rescores, 0u);
    EXPECT_EQ(planner.stats().plan_cache_credits, 0u);
}

TEST_F(LoadPlannerUnitTest, EqualScoresBreakTiesTowardLowestBlockId)
{
    core::BlockScheduler sched = scheduler();
    // Equal heat, equal bytes: pure ties at every rank.
    sched.add_walker(4);
    sched.add_walker(2);
    sched.add_walker(5);

    core::LoadPlanner planner(*partition_, {.window = 4});
    const std::vector<std::uint32_t> want = {2, 4, 5};
    EXPECT_EQ(planner.plan(sched, nullptr, {}, 3), want);
}

TEST_F(LoadPlannerUnitTest, FlowPropagationPromotesDownstreamBlock)
{
    core::BlockScheduler sched = scheduler();
    for (int i = 0; i < 10; ++i) {
        sched.add_walker(1);
    }
    for (int i = 0; i < 5; ++i) {
        sched.add_walker(2);
    }
    for (int i = 0; i < 4; ++i) {
        sched.add_walker(3);
    }

    // Without flow history the plan is heat order: 1, 2, 3.
    {
        core::LoadPlanner cold(*partition_, {.window = 2});
        const std::vector<std::uint32_t> want = {1, 2, 3};
        EXPECT_EQ(cold.plan(sched, nullptr, {}, 3), want);
        EXPECT_EQ(cold.stats().plan_rescores, 0u);
    }

    // Walkers overwhelmingly flow 1 → 3: after committing block 1, its
    // 10 expected walkers drain onto block 3 (expected 4 + 10 = 14),
    // lifting it over block 2.
    core::LoadPlanner planner(*partition_, {.window = 2});
    planner.record_flow(1, 3, 90);
    planner.record_exits(1, 10);
    const std::vector<std::uint32_t> want = {1, 3, 2};
    EXPECT_EQ(planner.plan(sched, nullptr, {}, 3), want);
    EXPECT_GE(planner.stats().plan_rescores, 1u);
}

TEST_F(LoadPlannerUnitTest, FreshInjectionsCarryNoFlow)
{
    core::LoadPlanner planner(*partition_, {.window = 2});
    // kNoBlock sources (fresh walkers) must not build a flow table.
    planner.record_flow(core::BlockScheduler::kNoBlock, 2, 100);
    planner.record_exits(core::BlockScheduler::kNoBlock, 50);
    core::BlockScheduler sched = scheduler();
    sched.add_walker(1);
    sched.add_walker(1);
    sched.add_walker(2);
    const std::vector<std::uint32_t> want = {1, 2};
    EXPECT_EQ(planner.plan(sched, nullptr, {}, 2), want);
    EXPECT_EQ(planner.stats().plan_rescores, 0u);
}

TEST_F(LoadPlannerUnitTest, CacheResidencyDiscountsCostAndCounts)
{
    core::BlockScheduler sched = scheduler();
    for (int i = 0; i < 10; ++i) {
        sched.add_walker(1);
    }
    for (int i = 0; i < 5; ++i) {
        sched.add_walker(2);
    }

    storage::SharedBlockCache cache(1ULL << 20);
    cache.insert(2, 0, std::vector<std::uint8_t>(64, 0xAB));
    ASSERT_TRUE(cache.resident(2));
    ASSERT_FALSE(cache.resident(1));

    // Resident block 2 stays in the plan — covering it keeps the
    // speculation queue aligned with the demand order, and its load
    // completes at submission with no device traffic — but the plan
    // banks a credit recording that the cache subsidized the slot.
    core::LoadPlanner planner(*partition_, {.window = 2});
    const std::vector<std::uint32_t> want = {1, 2};
    EXPECT_EQ(planner.plan(sched, &cache, {}, 2), want);
    EXPECT_EQ(planner.stats().plan_cache_credits, 1u);

    // Same landscape, no cache: same picks, nothing credited.
    core::LoadPlanner uncached(*partition_, {.window = 2});
    EXPECT_EQ(uncached.plan(sched, nullptr, {}, 2), want);
    EXPECT_EQ(uncached.stats().plan_cache_credits, 0u);
}

TEST_F(LoadPlannerUnitTest, FlowSuccessorEntersPoolAtZeroHeat)
{
    // Block 3 holds no parked walkers, so the greedy top-K can never
    // nominate it — but the recorded flow says block 1's drain lands
    // there, and the propagation lifts it into the plan.  This is the
    // lookahead greedy cannot express: covering the block a
    // concentrated walk is about to march into.
    core::BlockScheduler sched = scheduler();
    for (int i = 0; i < 10; ++i) {
        sched.add_walker(1);
    }
    ASSERT_EQ(sched.count(3), 0u);

    core::LoadPlanner planner(*partition_, {.window = 2});
    planner.record_flow(1, 3, 95);
    planner.record_exits(1, 5);
    const std::vector<std::uint32_t> want = {1, 3};
    EXPECT_EQ(planner.plan(sched, nullptr, {}, 2), want);
    EXPECT_GE(planner.stats().plan_rescores, 1u);

    // Greedy passthrough at the same state only sees the live bucket.
    core::LoadPlanner greedy(*partition_, {.window = 0});
    EXPECT_EQ(greedy.plan(sched, nullptr, {}, 2).size(), 1u);
}

TEST_F(LoadPlannerUnitTest, TenantWeightGatesCommittedSlots)
{
    core::BlockScheduler sched = scheduler();
    for (std::uint32_t b = 0; b < 6; ++b) {
        sched.add_walker(b);
    }

    core::LoadPlanner half(*partition_, {.window = 4,
                                         .tenant_weight = 0.5});
    EXPECT_EQ(half.plan(sched, nullptr, {}, 4).size(), 2u);

    // A weight never commits zero slots...
    core::LoadPlanner tiny(*partition_, {.window = 4,
                                         .tenant_weight = 0.01});
    EXPECT_EQ(tiny.plan(sched, nullptr, {}, 4).size(), 1u);

    // ...and out-of-range weights clamp to full weight.
    core::LoadPlanner full(*partition_, {.window = 4,
                                         .tenant_weight = 7.0});
    EXPECT_EQ(full.plan(sched, nullptr, {}, 4).size(), 4u);
    full.set_tenant_weight(-2.0);
    EXPECT_EQ(full.plan(sched, nullptr, {}, 4).size(), 4u);
}

TEST(RunStatsPlanner, CountersFoldAndScale)
{
    engine::RunStats a;
    a.planned_loads = 10;
    a.plan_rescores = 6;
    a.plan_cache_credits = 4;
    a.cache_miss_blocks = 8;
    engine::RunStats b;
    b.planned_loads = 2;
    b.plan_rescores = 1;
    b.plan_cache_credits = 3;
    b.cache_miss_blocks = 2;
    a += b;
    EXPECT_EQ(a.planned_loads, 12u);
    EXPECT_EQ(a.plan_rescores, 7u);
    EXPECT_EQ(a.plan_cache_credits, 7u);
    EXPECT_EQ(a.cache_miss_blocks, 10u);

    const engine::RunStats half = a.scaled(0.5);
    EXPECT_EQ(half.planned_loads, 6u);
    EXPECT_EQ(half.plan_rescores, 4u); // 3.5 rounds to 4
    EXPECT_EQ(half.plan_cache_credits, 4u);
    EXPECT_EQ(half.cache_miss_blocks, 5u);
}

/** Skewed out-of-core-ish graph for the engine-level guarantees. */
class LoadPlannerEngineTest : public testing::Test {
  protected:
    void
    SetUp() override
    {
        graph_ = graph::generate_rmat(
            {.scale = 9, .edge_factor = 8, .a = 0.57, .b = 0.19,
             .c = 0.19, .seed = 23, .symmetrize = true,
             .weighted = false});
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ = std::make_unique<graph::BlockPartition>(
            *file_, file_->edge_region_bytes() / 8);
    }

    core::EngineConfig
    config(unsigned window, unsigned threads) const
    {
        core::EngineConfig cfg = core::EngineConfig::full(
            0, partition_->max_block_bytes());
        cfg.prefetch_depth = 4;
        cfg.plan_window = window;
        cfg.step_threads = threads;
        return cfg;
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

TEST_F(LoadPlannerEngineTest, WalkIsBitIdenticalAcrossPlanWindows)
{
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    std::vector<std::uint64_t> steps;
    std::uint64_t planned = 0;
    for (const unsigned threads : {1u, 8u}) {
        for (const unsigned window : {0u, 2u, 8u}) {
            ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                        kWalkers);
            core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
                *file_, *partition_, config(window, threads));
            const auto stats = eng.run(app, kWalkers);
            endpoints.push_back(app.endpoints);
            std::vector<std::uint32_t> v(app.visits.size());
            for (std::size_t i = 0; i < v.size(); ++i) {
                v[i] = app.visits[i].load();
            }
            visits.push_back(std::move(v));
            steps.push_back(stats.steps);
            if (window == 0) {
                EXPECT_EQ(stats.planned_loads, 0u)
                    << "greedy path must not plan";
            } else {
                planned += stats.planned_loads;
            }
        }
    }
    EXPECT_GT(steps[0], 0u);
    EXPECT_GT(planned, 0u) << "planner never engaged";
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]) << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
        EXPECT_EQ(visits[t], visits[0]) << "config " << t;
    }
}

TEST_F(LoadPlannerEngineTest, Node2VecIsBitIdenticalAcrossPlanWindows)
{
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::uint64_t> steps;
    for (const unsigned window : {0u, 2u, 8u}) {
        RecordingNode2Vec app(2.0, 0.5, 12, file_->num_vertices(), 2);
        core::NosWalkerEngine<RecordingNode2Vec> eng(
            *file_, *partition_, config(window, /*threads=*/1));
        const auto stats = eng.run(app, app.total_walkers());
        if (window > 0) {
            EXPECT_GT(stats.planned_loads, 0u) << "window " << window;
        }
        endpoints.push_back(app.endpoints);
        steps.push_back(stats.steps);
    }
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]) << "window config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "window config " << t;
    }
}

TEST_F(LoadPlannerEngineTest, ShardedWalkBitIdenticalAcrossPlanWindows)
{
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;
    std::vector<std::vector<graph::VertexId>> endpoints;
    for (const unsigned shards : {1u, 2u}) {
        for (const unsigned window : {0u, 8u}) {
            ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                        kWalkers);
            core::EngineConfig cfg = config(window, /*threads=*/1);
            cfg.num_shards = shards;
            shard::ShardedEngine<ConcurrentRecordingWalk> eng(
                *file_, *partition_, cfg);
            eng.run(app, kWalkers);
            endpoints.push_back(app.endpoints);
        }
    }
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(endpoints[t], endpoints[0])
            << "shards/window config " << t;
    }
}

TEST_F(LoadPlannerEngineTest, SingleBufferModeBuildsNoPlanner)
{
    // A budget that leaves room for one block buffer only: nothing can
    // speculate, so an open window must change nothing — not the walk,
    // and not one non-timing counter.
    constexpr std::uint64_t kWalkers = 600;
    const std::uint64_t page = storage::BlockReader::kPageBytes;
    const std::uint64_t buffer =
        (partition_->max_block_bytes() / page + 2) * page;
    const std::uint64_t budget = file_->index_bytes() + 3 * buffer;
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<engine::RunStats> stats;
    for (const unsigned window : {0u, 4u}) {
        ConcurrentRecordingWalk app(16, file_->num_vertices(), kWalkers);
        core::EngineConfig cfg = config(window, /*threads=*/1);
        cfg.memory_budget = budget;
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, cfg);
        stats.push_back(eng.run(app, kWalkers));
        endpoints.push_back(app.endpoints);
    }
    const engine::RunStats &a = stats[0];
    const engine::RunStats &b = stats[1];
    ASSERT_FALSE(a.pipelined) << "budget must force single-buffer mode";
    ASSERT_FALSE(b.pipelined);
    EXPECT_EQ(endpoints[1], endpoints[0]);
    const auto counters = [](const engine::RunStats &s) {
        return std::vector<std::uint64_t>{
            s.walkers, s.steps, s.graph_bytes_read, s.graph_read_requests,
            s.edges_loaded, s.swap_bytes, s.blocks_loaded, s.fine_loads,
            s.cache_hit_blocks, s.cache_miss_blocks, s.prefetch_hits,
            s.prefetch_mispredicts, s.planned_loads, s.plan_rescores,
            s.plan_cache_credits, s.migrations, s.migration_batches,
            s.kernel_cohorts, s.kernel_prefetches,
            s.kernel_scalar_fallbacks, s.presample_steps, s.block_steps,
            s.stalls, s.rejection_trials, s.rejection_rejected,
            s.peak_memory, s.presample_bytes_used,
            s.presample_bytes_total};
    };
    EXPECT_EQ(counters(b), counters(a));
    // Modeled, so equal up to the rounding of the device's running
    // busy-time total the two runs are differenced from.
    EXPECT_NEAR(b.io_busy_seconds, a.io_busy_seconds,
                1e-9 * a.io_busy_seconds);
    EXPECT_EQ(b.planned_loads, 0u);
}

TEST_F(LoadPlannerEngineTest, ColdVsWarmCacheKeepsOutputStable)
{
    // Against a warm shared cache the planner credits residency (cheap
    // re-reads plan earlier) — but the walk itself must not move.
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;
    storage::SharedBlockCache cache(32ULL << 20);
    std::vector<std::vector<graph::VertexId>> endpoints;
    engine::RunStats cold;
    engine::RunStats warm;
    for (int pass = 0; pass < 2; ++pass) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        core::NosWalkerEngine<ConcurrentRecordingWalk> eng(
            *file_, *partition_, config(/*window=*/4, /*threads=*/1));
        eng.set_shared_cache(&cache);
        const auto stats = eng.run(app, kWalkers);
        endpoints.push_back(app.endpoints);
        (pass == 0 ? cold : warm) = stats;
    }
    EXPECT_EQ(endpoints[1], endpoints[0]);
    EXPECT_GT(cold.cache_miss_blocks, 0u) << "cold pass reads the device";
    EXPECT_GT(warm.cache_hit_blocks, 0u) << "warm pass hits the cache";
    EXPECT_GT(warm.plan_cache_credits, 0u)
        << "planner must credit warm residency";
    EXPECT_EQ(warm.cache_hit_blocks + warm.cache_miss_blocks,
              warm.blocks_loaded)
        << "every coarse load is a hit or a miss";
    EXPECT_LE(warm.cache_miss_blocks, cold.cache_miss_blocks);
}

TEST(LoadPlannerService, PerTenantStatsCarryCacheCounters)
{
    // Satellite: per-tenant SharedBlockCache accounting.  Two requests
    // from one tenant: the first warms the cache, the second hits it,
    // and both land in the tenant's aggregated RunStats.
    graph::CsrGraph g = graph::generate_rmat(
        {.scale = 9, .edge_factor = 8, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 21, .symmetrize = false, .weighted = false});
    storage::MemDevice device;
    graph::GraphFile::write(g, device);
    graph::GraphFile file(device);
    graph::BlockPartition partition(file,
                                    file.edge_region_bytes() / 8);

    service::ServiceConfig cfg;
    cfg.num_workers = 1;
    cfg.max_batch = 1;
    cfg.batch_window_seconds = 0.0;
    cfg.cache_bytes = 32ULL << 20;
    cfg.plan_window = 4;
    cfg.tenant_weights[9] = 0.5; // exercised, output-invariant
    service::WalkService service(file, partition, cfg);

    service::WalkRequest request;
    request.tenant = 9;
    request.seed = 77;
    request.kind = service::WalkKind::kEndpoints;
    request.length = 16;
    request.walks_per_start = 50;
    for (graph::VertexId v = 0; v < 8; ++v) {
        request.starts.push_back(v * 31 % file.num_vertices());
    }

    auto first = service.submit(request).get();
    ASSERT_EQ(first.status, service::WalkStatus::kOk);
    auto second = service.submit(request).get();
    ASSERT_EQ(second.status, service::WalkStatus::kOk);
    EXPECT_EQ(second.endpoints, first.endpoints)
        << "same request + seed must reproduce";

    const engine::RunStats tenant = service.tenant_stats(9);
    EXPECT_GT(tenant.cache_miss_blocks, 0u) << "cold run misses";
    EXPECT_GT(tenant.cache_hit_blocks, 0u) << "warm run hits";
    const engine::RunStats other = service.tenant_stats(1234);
    EXPECT_EQ(other.cache_hit_blocks, 0u);
    EXPECT_EQ(other.cache_miss_blocks, 0u);
}

} // namespace
} // namespace noswalker
