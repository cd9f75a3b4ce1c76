/**
 * @file
 * The guarantee of the interleaved cohort step kernel (DESIGN.md §12),
 * the engine's only step loop: with pre-sampling off, walk output
 * equals the test-side replay oracle (replay_walks, which walks each
 * walker straight over the CSR graph) at every step-thread count ×
 * budget (tight, or unlimited with retained blocks) × shard count, for
 * first-order, walk-length-budgeted PPR, and second-order Node2Vec
 * workloads.  Lanes only change *when* each walker's cache lines are
 * requested, never which step it takes.  With pre-sampling on, the
 * output stays identical across step-thread counts.
 *
 * Also covered: AliasTable::sample_batch draw-for-draw equivalence
 * with sequential sample() (the kernel's batched-draw building block),
 * and the kernel telemetry counters' aggregation round-trip.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/noswalker_engine.hpp"
#include "engine/run_stats.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/mem_device.hpp"
#include "util/alias_table.hpp"
#include "util/rng.hpp"

namespace noswalker {
namespace {

using testing_support::ConcurrentRecordingWalk;
using testing_support::RecordingNode2Vec;
using testing_support::RecordingPpr;
using testing_support::ReplayTotals;

TEST(AliasTableBatch, SampleBatchMatchesSequentialDrawForDraw)
{
    for (const std::size_t outcomes : {1UL, 3UL, 17UL, 1000UL}) {
        std::vector<double> weights(outcomes);
        util::Rng wrng(911 + outcomes);
        for (double &w : weights) {
            w = wrng.next_double() * 10.0;
        }
        weights[0] += 1.0; // at least one strictly positive weight
        const util::AliasTable table(weights);

        for (const std::size_t n : {1UL, 5UL, 64UL, 257UL}) {
            const std::uint64_t seed = 1234 + outcomes * 1000 + n;
            util::Rng seq(seed);
            std::vector<std::uint32_t> expected(n);
            for (std::uint32_t &draw : expected) {
                draw = table.sample(seq);
            }

            util::Rng batch(seed);
            std::vector<std::uint32_t> got(n);
            table.sample_batch(batch, got.data(), n);
            EXPECT_EQ(got, expected)
                << outcomes << " outcomes, batch of " << n;
            // The generators must also agree *after* the draws, so a
            // caller can keep using the stream either way.
            EXPECT_EQ(batch(), seq());
        }
    }
}

TEST(RunStatsKernel, CountersAggregateAndScale)
{
    engine::RunStats a;
    a.kernel_cohorts = 10;
    a.kernel_prefetches = 1000;
    engine::RunStats b;
    b.kernel_cohorts = 6;
    b.kernel_prefetches = 200;

    a += b;
    EXPECT_EQ(a.kernel_cohorts, 16u);
    EXPECT_EQ(a.kernel_prefetches, 1200u);

    const engine::RunStats half = a.scaled(0.5);
    EXPECT_EQ(half.kernel_cohorts, 8u);
    EXPECT_EQ(half.kernel_prefetches, 600u);

    const std::string dump = a.to_string();
    EXPECT_NE(dump.find("kernel_cohorts=16"), std::string::npos);
    EXPECT_NE(dump.find("kernel_prefetches=1200"), std::string::npos);
}

class StepKernelTest : public testing::Test {
  protected:
    /** One engine configuration of the oracle matrix. */
    struct Setup {
        unsigned threads = 1;
        bool tight = true;
        unsigned shards = 1;
    };

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

    /** step_threads {1, 8} × {tight, unlimited} budget × shards {1, 2}. */
    static std::vector<Setup>
    matrix()
    {
        std::vector<Setup> out;
        for (const unsigned threads : {1u, 8u}) {
            for (const bool tight : {true, false}) {
                for (const unsigned shards : {1u, 2u}) {
                    out.push_back({threads, tight, shards});
                }
            }
        }
        return out;
    }

    core::EngineConfig
    config(const Setup &setup, bool presample) const
    {
        core::EngineConfig cfg = core::EngineConfig::full(
            setup.tight
                ? testing_support::tight_budget(*file_, *partition_)
                : 0,
            partition_->max_block_bytes());
        cfg.step_threads = setup.threads;
        cfg.num_shards = setup.shards;
        cfg.presample = presample;
        return cfg;
    }

    /** Run @p app on the plain engine, or the sharded one past 1 shard. */
    template <typename App>
    engine::RunStats
    run(App &app, std::uint64_t walkers, const core::EngineConfig &cfg)
    {
        if (cfg.num_shards > 1) {
            shard::ShardedEngine<App> eng(*file_, *partition_, cfg);
            return eng.run(app, walkers);
        }
        core::NosWalkerEngine<App> eng(*file_, *partition_, cfg);
        return eng.run(app, walkers);
    }

    static std::string
    describe(const Setup &setup)
    {
        return std::to_string(setup.threads) + " threads, " +
               (setup.tight ? "tight" : "unlimited") + " budget, " +
               std::to_string(setup.shards) + " shards";
    }

    /** The kernel stepped every span: no scalar fallback exists. */
    static void
    expect_kernel_only(const engine::RunStats &stats, const Setup &setup)
    {
        EXPECT_GT(stats.kernel_cohorts, 0u) << describe(setup);
        EXPECT_GT(stats.kernel_prefetches, 0u) << describe(setup);
        EXPECT_EQ(stats.kernel_scalar_fallbacks, 0u) << describe(setup);
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

template <typename App>
std::vector<std::uint32_t>
visits_of(const App &app)
{
    std::vector<std::uint32_t> v(app.visits.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = app.visits[i].load();
    }
    return v;
}

TEST_F(StepKernelTest, BasicWalkMatchesReplayOracle)
{
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    ConcurrentRecordingWalk oracle(kLength, file_->num_vertices(),
                                   kWalkers);
    const ReplayTotals want = testing_support::replay_walks(
        graph_, oracle, kWalkers, core::EngineConfig{}.seed);
    EXPECT_GT(want.steps, 0u);
    EXPECT_LE(want.steps, kWalkers * kLength);
    for (const Setup &setup : matrix()) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        const auto stats =
            run(app, kWalkers, config(setup, /*presample=*/false));
        expect_kernel_only(stats, setup);
        EXPECT_EQ(stats.steps, want.steps) << describe(setup);
        EXPECT_EQ(app.endpoints, oracle.endpoints) << describe(setup);
        EXPECT_EQ(visits_of(app), visits_of(oracle)) << describe(setup);
    }

    // Pre-sampled steps draw from shared reservoirs, so the oracle does
    // not apply; the output must still not depend on the thread count.
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    for (const unsigned threads : {1u, 8u}) {
        ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                    kWalkers);
        const auto stats =
            run(app, kWalkers, config({threads, true, 1}, true));
        EXPECT_GT(stats.presample_steps, 0u);
        endpoints.push_back(app.endpoints);
        visits.push_back(visits_of(app));
    }
    EXPECT_EQ(endpoints[1], endpoints[0]);
    EXPECT_EQ(visits[1], visits[0]);
}

TEST_F(StepKernelTest, PprMatchesReplayOracle)
{
    // A few query sources spread across the id range, so the walkers
    // hop blocks and exercise park/stall paths under the kernel.
    const graph::VertexId n = file_->num_vertices();
    const std::vector<graph::VertexId> sources{0, n / 3, n / 2, n - 1};
    constexpr std::uint64_t kWalksPerSource = 120;
    constexpr std::uint32_t kLength = 12;
    RecordingPpr oracle(sources, kWalksPerSource, kLength, n);
    const ReplayTotals want = testing_support::replay_walks(
        graph_, oracle, oracle.total_walkers(), core::EngineConfig{}.seed);
    EXPECT_GT(want.steps, 0u);
    for (const Setup &setup : matrix()) {
        RecordingPpr app(sources, kWalksPerSource, kLength, n);
        const auto stats = run(app, app.total_walkers(),
                               config(setup, /*presample=*/false));
        expect_kernel_only(stats, setup);
        EXPECT_EQ(stats.steps, want.steps) << describe(setup);
        EXPECT_EQ(app.endpoints, oracle.endpoints) << describe(setup);
        EXPECT_EQ(visits_of(app), visits_of(oracle)) << describe(setup);
    }

    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    for (const unsigned threads : {1u, 8u}) {
        RecordingPpr app(sources, kWalksPerSource, kLength, n);
        run(app, app.total_walkers(), config({threads, true, 1}, true));
        endpoints.push_back(app.endpoints);
        visits.push_back(visits_of(app));
    }
    EXPECT_EQ(endpoints[1], endpoints[0]);
    EXPECT_EQ(visits[1], visits[0]);
}

TEST_F(StepKernelTest, Node2VecMatchesReplayOracle)
{
    const graph::VertexId n = file_->num_vertices();
    RecordingNode2Vec oracle(2.0, 0.5, 12, n, 2);
    const ReplayTotals want = testing_support::replay_walks(
        graph_, oracle, oracle.total_walkers(), core::EngineConfig{}.seed);
    EXPECT_GT(want.rejection_trials, want.steps)
        << "some candidates must be rejected";
    for (const Setup &setup : matrix()) {
        RecordingNode2Vec app(2.0, 0.5, 12, n, 2);
        const auto stats = run(app, app.total_walkers(),
                               config(setup, /*presample=*/false));
        EXPECT_EQ(stats.kernel_scalar_fallbacks, 0u) << describe(setup);
        EXPECT_EQ(stats.steps, want.steps) << describe(setup);
        EXPECT_EQ(stats.rejection_trials, want.rejection_trials)
            << describe(setup);
        EXPECT_EQ(app.endpoints, oracle.endpoints) << describe(setup);
    }

    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::uint64_t> trials;
    for (const unsigned threads : {1u, 8u}) {
        RecordingNode2Vec app(2.0, 0.5, 12, n, 2);
        const auto stats = run(app, app.total_walkers(),
                               config({threads, true, 1}, true));
        endpoints.push_back(app.endpoints);
        trials.push_back(stats.rejection_trials);
    }
    EXPECT_EQ(endpoints[1], endpoints[0]);
    EXPECT_EQ(trials[1], trials[0]);
}

TEST_F(StepKernelTest, ShardedRunsMatchReplayOracle)
{
    // Finer shard splits than the matrix: walkers cross shard
    // boundaries often, so emigrant outcomes pass through the kernel.
    // The tight budget cannot hold 4 shards' floors; shard rounds
    // never retain blocks, so an unlimited one still walks out of core.
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;
    ConcurrentRecordingWalk oracle(kLength, file_->num_vertices(),
                                   kWalkers);
    const ReplayTotals want = testing_support::replay_walks(
        graph_, oracle, kWalkers, core::EngineConfig{}.seed);
    for (const unsigned shards : {4u, 8u}) {
        for (const unsigned threads : {1u, 8u}) {
            const Setup setup{threads, false, shards};
            ConcurrentRecordingWalk app(kLength, file_->num_vertices(),
                                        kWalkers);
            const auto stats =
                run(app, kWalkers, config(setup, /*presample=*/false));
            EXPECT_GT(stats.migrations, 0u) << describe(setup);
            expect_kernel_only(stats, setup);
            EXPECT_EQ(stats.steps, want.steps) << describe(setup);
            EXPECT_EQ(app.endpoints, oracle.endpoints) << describe(setup);
        }
    }
}

} // namespace
} // namespace noswalker
