/**
 * @file
 * Correctness tests for the NosWalker engine itself.
 */
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "apps/basic_rw.hpp"
#include "apps/weighted_rw.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "storage/mem_device.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace noswalker::core {
namespace {

struct Fixture {
    graph::CsrGraph graph;
    storage::MemDevice device;
    std::unique_ptr<graph::GraphFile> file;
    std::unique_ptr<graph::BlockPartition> partition;

    Fixture(graph::CsrGraph g, std::uint64_t block_bytes)
        : graph(std::move(g))
    {
        graph::GraphFile::write(graph, device);
        file = std::make_unique<graph::GraphFile>(device);
        partition =
            std::make_unique<graph::BlockPartition>(*file, block_bytes);
    }
};

TEST(NosWalkerEngine, ExactStepCountOnCycle)
{
    Fixture s(graph::generate_cycle(100), 128);
    apps::BasicRandomWalk app(10, 100);
    EngineConfig cfg = EngineConfig::full(0, 128);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 50);
    EXPECT_EQ(stats.steps, 500u);
    EXPECT_EQ(stats.walkers, 50u);
    EXPECT_GT(stats.graph_bytes_read, 0u);
}

TEST(NosWalkerEngine, TransitionsFollowRealEdges)
{
    Fixture s(graph::generate_rmat({.scale = 9,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 21,
                                  .symmetrize = false,
                                  .weighted = false}),
            4096);
    testing_support::RecordingWalk app(8, s.graph.num_vertices());
    // Small budget to force genuinely out-of-core behaviour.
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.25);
    EngineConfig cfg = EngineConfig::full(budget, 4096);
    NosWalkerEngine<testing_support::RecordingWalk> eng(*s.file,
                                                        *s.partition, cfg);
    const auto stats = eng.run(app, 300);
    EXPECT_EQ(stats.steps, app.transitions.size());
    for (const auto &[from, to] : app.transitions) {
        ASSERT_TRUE(s.graph.has_edge(from, to))
            << from << "->" << to << " is not an edge";
    }
}

TEST(NosWalkerEngine, EveryWalkerTakesExactlyLStepsOnRegularGraph)
{
    Fixture s(graph::generate_uniform(2000, 12, 5), 4096);
    testing_support::RecordingWalk app(7, 2000);
    EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(*s.file, *s.partition), 4096);
    NosWalkerEngine<testing_support::RecordingWalk> eng(*s.file,
                                                        *s.partition, cfg);
    const auto stats = eng.run(app, 500);
    EXPECT_EQ(stats.walkers, 500u);
    EXPECT_EQ(stats.steps, 500u * 7);
    EXPECT_EQ(app.steps_per_walker.size(), 500u);
    for (const auto &[id, steps] : app.steps_per_walker) {
        EXPECT_EQ(steps, 7u) << "walker " << id;
    }
}

TEST(NosWalkerEngine, EndpointDistributionUniformOnComplete)
{
    Fixture s(graph::generate_complete(8), 1 << 20);
    // Record endpoints through the recording app.
    testing_support::RecordingWalk app(4, 8);
    EngineConfig cfg = EngineConfig::full(0, 1 << 20);
    cfg.seed = 99;
    NosWalkerEngine<testing_support::RecordingWalk> eng(*s.file,
                                                        *s.partition, cfg);
    eng.run(app, 4000);
    std::vector<int> counts(8, 0);
    for (const auto &[from, to] : app.transitions) {
        (void)from;
        ++counts[to];
    }
    const double n = static_cast<double>(app.transitions.size());
    double chi2 = 0.0;
    for (int c : counts) {
        // Uniform target over 7 out-neighbours averages to uniform
        // over all 8 vertices at stationarity; allow loose tolerance.
        const double expected = n / 8.0;
        chi2 += (c - expected) * (c - expected) / expected;
    }
    // 7 dof, alpha = 0.001 => 24.32; loose cap for mixing effects.
    EXPECT_LT(chi2, 40.0);
}

TEST(NosWalkerEngine, MemoryBudgetPeakRespected)
{
    Fixture s(graph::generate_rmat({.scale = 10,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 22,
                                  .symmetrize = false,
                                  .weighted = false}),
            8192);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition);
    EngineConfig cfg = EngineConfig::full(budget, 8192);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 1000);
    EXPECT_LE(stats.peak_memory, budget);
    EXPECT_GT(stats.peak_memory, 0u);
}

TEST(NosWalkerEngine, PresampleOffWalkersInheritThePoolShare)
{
    // Without a pre-sample pool the walker pool takes the walker share
    // plus exactly the share the pool would have claimed (DESIGN.md
    // §10), so a finite budget's high-water mark is the same with
    // pre-sampling on or off.  Depth 1 reserves no speculation slots,
    // so the peak is index + buffers + walker pool (+ pre-sample pool).
    Fixture s(graph::generate_uniform(4000, 8, 5), 4096);
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.25);
    constexpr std::uint64_t kWalkers = 20000;
    std::vector<std::uint64_t> peaks;
    for (const bool presample : {true, false}) {
        EngineConfig cfg = EngineConfig::full(budget, 4096);
        cfg.presample = presample;
        cfg.prefetch_depth = 1;
        apps::BasicRandomWalk app(3, 4000);
        NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition,
                                                   cfg);
        const auto stats = eng.run(app, kWalkers);
        EXPECT_EQ(stats.steps, 3 * kWalkers);
        EXPECT_LE(stats.peak_memory, budget);
        peaks.push_back(stats.peak_memory);
    }
    using Record = NosWalkerEngine<apps::BasicRandomWalk>::Record;
    // The walker cap is a whole number of records either way.
    EXPECT_NEAR(static_cast<double>(peaks[1]),
                static_cast<double>(peaks[0]), 2.0 * sizeof(Record));
}

TEST(NosWalkerEngine, UncappableBlockLeavesOtherPresampleBuffersIntact)
{
    // Block A: 64 hub vertices of degree 64.  Block B: 4000 vertices of
    // degree 1, each pointing into A, so B's pre-sample meta arrays
    // (~14 B per vertex) exceed the per-block cap and B never gets a
    // buffer.  Refilling B must skip B without evicting A's buffer:
    // B's walkers then step on through A's pre-samples.  Coarse loads
    // only (shrink_block off), so every load of B tries a refill.
    constexpr graph::VertexId kHubs = 64;
    constexpr graph::VertexId kLeaves = 4000;
    graph::GraphBuilder builder;
    util::SplitMix64 mix(9);
    for (graph::VertexId h = 0; h < kHubs; ++h) {
        for (int k = 0; k < 64; ++k) {
            builder.add_edge(h, static_cast<graph::VertexId>(
                                    mix.next() % (kHubs + kLeaves)));
        }
    }
    for (graph::VertexId l = kHubs; l < kHubs + kLeaves; ++l) {
        builder.add_edge(l, static_cast<graph::VertexId>(l % kHubs));
    }
    Fixture s(builder.build(), 16 * 1024);
    ASSERT_EQ(s.partition->num_blocks(), 2u);
    const std::uint64_t leaf_meta = 14ULL * kLeaves;

    EngineConfig cfg = EngineConfig::full(
        s.file->index_bytes() + 48 * 1024 + 200 * 1024, 16 * 1024);
    cfg.shrink_block = false;
    apps::BasicRandomWalk app(10, kHubs + kLeaves);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 8000);
    EXPECT_EQ(stats.steps, 80000u);
    // The scenario's premise: B's plan cannot fit the per-block cap
    // (a quarter of the pool).
    ASSERT_GT(stats.presample_bytes_total, 0u);
    ASSERT_LT(stats.presample_bytes_total / 4, leaf_meta);
    EXPECT_GT(stats.presample_steps, 0u);
}

TEST(NosWalkerEngine, InfeasibleBudgetThrows)
{
    Fixture s(graph::generate_rmat({.scale = 10,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 23,
                                  .symmetrize = false,
                                  .weighted = false}),
            1 << 20);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    EngineConfig cfg = EngineConfig::full(1024, 1 << 20);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    EXPECT_THROW(eng.run(app, 10), util::BudgetExceeded);
}

TEST(NosWalkerEngine, DeterministicForSeed)
{
    Fixture s(graph::generate_rmat({.scale = 8,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 24,
                                  .symmetrize = false,
                                  .weighted = false}),
            4096);
    // A finite budget keeps pre-sampling in the determinism check; an
    // unlimited one would retain blocks and skip it (DESIGN.md §16).
    EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(*s.file, *s.partition), 4096);
    cfg.loader_threads = 0; // synchronous: fully deterministic schedule
    testing_support::RecordingWalk app1(6, s.graph.num_vertices());
    testing_support::RecordingWalk app2(6, s.graph.num_vertices());
    NosWalkerEngine<testing_support::RecordingWalk> e1(*s.file,
                                                       *s.partition, cfg);
    NosWalkerEngine<testing_support::RecordingWalk> e2(*s.file,
                                                       *s.partition, cfg);
    const auto s1 = e1.run(app1, 200);
    const auto s2 = e2.run(app2, 200);
    EXPECT_GT(s1.presample_steps, 0u);
    EXPECT_EQ(s1.steps, s2.steps);
    EXPECT_EQ(s1.presample_steps, s2.presample_steps);
    EXPECT_EQ(s1.graph_bytes_read, s2.graph_bytes_read);
    EXPECT_EQ(app1.transitions, app2.transitions);
}

TEST(NosWalkerEngine, KnobCombinationsAllAgreeOnStepCount)
{
    Fixture s(graph::generate_uniform(1500, 10, 6), 4096);
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition);
    const std::uint64_t expected = 400u * 5;
    for (int mask = 0; mask < 8; ++mask) {
        EngineConfig cfg = EngineConfig::full(budget, 4096);
        cfg.walker_management = (mask & 1) != 0;
        cfg.shrink_block = (mask & 2) != 0;
        cfg.presample = (mask & 4) != 0;
        apps::BasicRandomWalk app(5, 1500);
        NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition,
                                                   cfg);
        const auto stats = eng.run(app, 400);
        EXPECT_EQ(stats.steps, expected) << "knob mask " << mask;
        EXPECT_EQ(stats.walkers, 400u) << "knob mask " << mask;
    }
}

TEST(NosWalkerEngine, PresampleStepsServeWalkers)
{
    Fixture s(graph::generate_rmat({.scale = 10,
                                  .edge_factor = 16,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 25,
                                  .symmetrize = false,
                                  .weighted = false}),
            8192);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(*s.file, *s.partition, 0.25), 8192);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 2000);
    EXPECT_GT(stats.presample_steps, 0u);
    EXPECT_GT(stats.block_steps, 0u);
    EXPECT_EQ(stats.presample_steps + stats.block_steps, stats.steps);
}

TEST(NosWalkerEngine, BaseImplementationChargesSwapTraffic)
{
    // Dead-end free so both configurations take identical step totals.
    Fixture s(graph::generate_uniform(2000, 16, 26), 8192);
    apps::BasicRandomWalk app(10, s.graph.num_vertices());
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.25);
    EngineConfig cfg = EngineConfig::base_implementation(budget, 8192);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    // Many walkers relative to the budget: swapping must occur.
    const auto stats = eng.run(app, 50000);
    EXPECT_GT(stats.swap_bytes, 0u);
    // Full NosWalker never swaps.
    EngineConfig full_cfg = EngineConfig::full(budget, 8192);
    apps::BasicRandomWalk app2(10, s.graph.num_vertices());
    NosWalkerEngine<apps::BasicRandomWalk> full_eng(*s.file, *s.partition,
                                                    full_cfg);
    const auto full_stats = full_eng.run(app2, 50000);
    EXPECT_EQ(full_stats.swap_bytes, 0u);
    EXPECT_EQ(full_stats.steps, stats.steps);
}

TEST(NosWalkerEngine, FineModeEngagesForSparseWalkers)
{
    Fixture s(graph::generate_rmat({.scale = 11,
                                  .edge_factor = 8,
                                  .a = 0.57,
                                  .b = 0.19,
                                  .c = 0.19,
                                  .seed = 27,
                                  .symmetrize = false,
                                  .weighted = false}),
            8192);
    apps::BasicRandomWalk app(64, s.graph.num_vertices());
    EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(*s.file, *s.partition, 0.25), 8192);
    cfg.max_walkers = 4; // very sparse: α·|Wa|·4KiB << S_G
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 8);
    EXPECT_GT(stats.fine_loads, 0u);
}

TEST(NosWalkerEngine, ZeroWalkersIsANoop)
{
    Fixture s(graph::generate_cycle(16), 64);
    apps::BasicRandomWalk app(5, 16);
    EngineConfig cfg = EngineConfig::full(0, 64);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 0);
    EXPECT_EQ(stats.steps, 0u);
    EXPECT_EQ(stats.walkers, 0u);
}

TEST(NosWalkerEngine, SynchronousLoaderMatchesThreadedStepCount)
{
    Fixture s(graph::generate_uniform(800, 8, 7), 4096);
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition);
    EngineConfig async_cfg = EngineConfig::full(budget, 4096);
    EngineConfig sync_cfg = async_cfg;
    sync_cfg.loader_threads = 0;
    apps::BasicRandomWalk a1(6, 800);
    apps::BasicRandomWalk a2(6, 800);
    NosWalkerEngine<apps::BasicRandomWalk> e1(*s.file, *s.partition,
                                              async_cfg);
    NosWalkerEngine<apps::BasicRandomWalk> e2(*s.file, *s.partition,
                                              sync_cfg);
    EXPECT_EQ(e1.run(a1, 300).steps, e2.run(a2, 300).steps);
}

TEST(NosWalkerEngine, DeadEndWalkersRetireEarly)
{
    // 0 -> 1, 1 has no out-edges.
    graph::CsrGraph g({0, 1, 1}, {1});
    Fixture s(std::move(g), 64);
    apps::BasicRandomWalk app(5, 1, /*random_start=*/false);
    EngineConfig cfg = EngineConfig::full(0, 64);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 10); // all start at vertex 0
    EXPECT_EQ(stats.walkers, 10u);
    EXPECT_EQ(stats.steps, 10u); // one step each, then dead end
}

TEST(NosWalkerEngine, WeightedWalkRunsOnAliasFile)
{
    auto g = graph::generate_rmat({.scale = 8,
                                   .edge_factor = 8,
                                   .a = 0.57,
                                   .b = 0.19,
                                   .c = 0.19,
                                   .seed = 28,
                                   .symmetrize = false,
                                   .weighted = true});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev, /*with_alias=*/true);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 8192);
    apps::WeightedRandomWalk app(10, file.num_vertices());
    graph::BlockPartition &partref = part;
    EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(file, partref), 8192);
    NosWalkerEngine<apps::WeightedRandomWalk> eng(file, part, cfg);
    const auto stats = eng.run(app, 500);
    EXPECT_GT(stats.steps, 0u);
    EXPECT_EQ(stats.walkers, 500u);
}

TEST(NosWalkerEngine, RunIsRepeatableOnSameEngineObject)
{
    Fixture s(graph::generate_cycle(32), 64);
    apps::BasicRandomWalk app(4, 32);
    EngineConfig cfg = EngineConfig::full(0, 64);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto s1 = eng.run(app, 20);
    const auto s2 = eng.run(app, 20);
    EXPECT_EQ(s1.steps, s2.steps);
    // Retained blocks (DESIGN.md §16) must not leak into the rerun.
    EXPECT_GT(s1.blocks_loaded, 0u);
    EXPECT_EQ(s1.blocks_loaded, s2.blocks_loaded);
}

TEST(NosWalkerEngine, ReusedEngineIsDeterministicWhenPresamplePoolOverflows)
{
    // Many small blocks against a pool a few buffers deep: fills evict
    // constantly, with ties at zero waiting walkers.  The victim must
    // not depend on the buffer map's bucket count, which a reused
    // engine carries over from its previous run.
    Fixture s(graph::generate_rmat({.scale = 11,
                                    .edge_factor = 8,
                                    .a = 0.57,
                                    .b = 0.19,
                                    .c = 0.19,
                                    .seed = 27,
                                    .symmetrize = false,
                                    .weighted = false}),
              2048);
    ASSERT_GE(s.partition->num_blocks(), 32u);
    const EngineConfig cfg = EngineConfig::full(
        testing_support::tight_budget(*s.file, *s.partition, 0.2), 2048);
    using Walk = testing_support::RecordingWalk;
    const auto run_once = [&](NosWalkerEngine<Walk> &eng) {
        Walk app(12, s.graph.num_vertices());
        const engine::RunStats stats = eng.run(app, 3000);
        EXPECT_GT(stats.presample_steps, 0u);
        return std::make_pair(stats, std::move(app.transitions));
    };
    NosWalkerEngine<Walk> fresh(*s.file, *s.partition, cfg);
    const auto expected = run_once(fresh);
    NosWalkerEngine<Walk> reused(*s.file, *s.partition, cfg);
    for (int r = 0; r < 3; ++r) {
        const auto got = run_once(reused);
        EXPECT_EQ(got.second, expected.second) << "run " << r;
        EXPECT_EQ(got.first.presample_steps, expected.first.presample_steps)
            << "run " << r;
        EXPECT_EQ(got.first.blocks_loaded, expected.first.blocks_loaded)
            << "run " << r;
    }
}

TEST(NosWalkerEngine, PresampleFirstPolicyStillCompletes)
{
    // use_loaded_block=false flips the source priority: pre-samples
    // are consumed eagerly with the loaded block as fallback.  The run
    // must complete with the same step totals.
    Fixture s(graph::generate_uniform(1500, 10, 61), 4096);
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition);
    EngineConfig cfg = EngineConfig::full(budget, 4096);
    cfg.use_loaded_block = false;
    apps::BasicRandomWalk app(6, 1500);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 300);
    EXPECT_EQ(stats.steps, 300u * 6);
    EXPECT_GT(stats.presample_steps, 0u);
}

TEST(NosWalkerEngine, SingleBufferModeUnderVeryTightBudget)
{
    // A budget just above the floor triggers the single-buffer
    // degradation; the run must still complete within budget.
    Fixture s(graph::generate_uniform(3000, 16, 62), 16384);
    const std::uint64_t budget =
        testing_support::tight_budget(*s.file, *s.partition, 0.05);
    EngineConfig cfg = EngineConfig::full(budget, 16384);
    apps::BasicRandomWalk app(8, 3000);
    NosWalkerEngine<apps::BasicRandomWalk> eng(*s.file, *s.partition, cfg);
    const auto stats = eng.run(app, 500);
    EXPECT_EQ(stats.steps, 500u * 8);
    EXPECT_LE(stats.peak_memory, budget);
}

TEST(EngineConfig, ValidationCatchesNonsense)
{
    EngineConfig cfg;
    cfg.block_bytes = 0;
    EXPECT_THROW(cfg.validate(), util::ConfigError);
    cfg = EngineConfig{};
    cfg.alpha = -1;
    EXPECT_THROW(cfg.validate(), util::ConfigError);
    cfg = EngineConfig{};
    cfg.presamples_per_vertex = 0;
    EXPECT_THROW(cfg.validate(), util::ConfigError);
    cfg = EngineConfig{};
    cfg.walker_memory_fraction = 1.5;
    EXPECT_THROW(cfg.validate(), util::ConfigError);
    cfg = EngineConfig{};
    cfg.presample_memory_fraction = 1.0;
    EXPECT_THROW(cfg.validate(), util::ConfigError);
    EXPECT_NO_THROW(EngineConfig{}.validate());
}

} // namespace
} // namespace noswalker::core
