/**
 * @file
 * Overlapped shard migration (DESIGN.md §11, "overlapped exchange").
 *
 * The load-bearing guarantee: where the engine's flush marks cut a
 * shard's emigrants never changes walk output.  Each shard routes its
 * emigrants, in outbox order, into per-destination outboxes, and the
 * next round's inbox[d] is the concatenation of outbox[0..N-1][d], so
 * every sharded run matches the 1-shard run (which migrates nothing)
 * bit for bit — verified across {2,4} shards × {1,8} step threads for
 * first-order and node2vec walks.
 *
 * Also covered: the modeled accounting (every flush event is priced
 * once, split between hidden overlap and residual wait), pairwise
 * conservation (the migration counter equals the cross-shard moves the
 * walks took, and every shard's seeded + immigrant walkers equal its
 * retired + emigrant ones), locality-aware seeding, and that shard
 * rounds never pre-sample.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "apps/node2vec.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "shard/shard_plan.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/mem_device.hpp"
#include "util/rng.hpp"

namespace noswalker {
namespace {

/** First-order uniform walk recording endpoints + visit counts; thread
 *  safe for concurrent shard stepping (per-walker slots, atomics). */
class OverlapRecordingWalk {
  public:
    using WalkerT = engine::Walker;

    OverlapRecordingWalk(std::uint32_t length,
                         graph::VertexId num_vertices,
                         std::uint64_t num_walkers)
        : endpoints(num_walkers, graph::kInvalidVertex),
          visits(num_vertices), length_(length),
          num_vertices_(num_vertices)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        util::SplitMix64 mix(n * 31 + 5);
        return WalkerT{
            n, static_cast<graph::VertexId>(mix.next() % num_vertices_),
            0};
    }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return view.sample_uniform(rng);
    }

    bool active(const WalkerT &w) const { return w.step < length_; }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &)
    {
        w.location = next;
        ++w.step;
        endpoints[w.id] = next;
        visits[next].fetch_add(1, std::memory_order_relaxed);
        return true;
    }

    std::vector<graph::VertexId> endpoints;
    std::vector<std::atomic<std::uint32_t>> visits;

  private:
    std::uint32_t length_;
    graph::VertexId num_vertices_;
};

static_assert(engine::RandomWalkApp<OverlapRecordingWalk>);

/** Node2Vec wrapper recording the endpoint of every accepted move. */
class OverlapRecordingNode2Vec {
  public:
    using WalkerT = apps::Node2Vec::WalkerT;

    OverlapRecordingNode2Vec(double p, double q, std::uint32_t length,
                             graph::VertexId num_vertices,
                             std::uint32_t walks_per_vertex)
        : inner_(p, q, length, num_vertices, walks_per_vertex)
    {
        endpoints.assign(inner_.total_walkers(), graph::kInvalidVertex);
    }

    std::uint64_t total_walkers() const { return inner_.total_walkers(); }

    WalkerT generate(std::uint64_t n) { return inner_.generate(n); }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &rng)
    {
        return inner_.action(w, next, rng);
    }

    bool has_candidate(const WalkerT &w) const
    {
        return inner_.has_candidate(w);
    }

    graph::VertexId candidate(const WalkerT &w) const
    {
        return inner_.candidate(w);
    }

    bool
    rejection(WalkerT &w, const graph::VertexView &view, util::Rng &rng)
    {
        const bool accepted = inner_.rejection(w, view, rng);
        if (accepted) {
            endpoints[w.id] = w.location;
        }
        return accepted;
    }

    std::vector<graph::VertexId> endpoints;

  private:
    apps::Node2Vec inner_;
};

static_assert(engine::SecondOrderApp<OverlapRecordingNode2Vec>);

class MigrationOverlapTest : public testing::Test {
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
    config(unsigned shards, unsigned threads) const
    {
        core::EngineConfig cfg =
            core::EngineConfig::full(0, partition_->max_block_bytes());
        cfg.num_shards = shards;
        cfg.step_threads = threads;
        return cfg;
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

TEST_F(MigrationOverlapTest, BasicWalkBitIdenticalToOneShardRun)
{
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    std::vector<std::uint64_t> steps;
    std::uint64_t migrations = 0;
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 8u}) {
            OverlapRecordingWalk app(kLength, file_->num_vertices(),
                                     kWalkers);
            shard::ShardedEngine<OverlapRecordingWalk> eng(
                *file_, *partition_, config(shards, threads));
            const auto stats = eng.run(app, kWalkers);
            endpoints.push_back(app.endpoints);
            std::vector<std::uint32_t> v(app.visits.size());
            for (std::size_t i = 0; i < v.size(); ++i) {
                v[i] = app.visits[i].load();
            }
            visits.push_back(std::move(v));
            steps.push_back(stats.steps);
            migrations += stats.migrations;
        }
    }
    EXPECT_GT(steps[0], 0u);
    EXPECT_GT(migrations, 0u) << "no sharded run migrated a walker";
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]) << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
        EXPECT_EQ(visits[t], visits[0]) << "config " << t;
    }
}

TEST_F(MigrationOverlapTest, Node2VecBitIdenticalToOneShardRun)
{
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::uint64_t> steps;
    std::vector<std::uint64_t> trials;
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 8u}) {
            OverlapRecordingNode2Vec app(2.0, 0.5, 12,
                                         file_->num_vertices(), 2);
            shard::ShardedEngine<OverlapRecordingNode2Vec> eng(
                *file_, *partition_, config(shards, threads));
            const auto stats = eng.run(app, app.total_walkers());
            endpoints.push_back(app.endpoints);
            steps.push_back(stats.steps);
            trials.push_back(stats.rejection_trials);
        }
    }
    EXPECT_GT(trials[0], 0u);
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]) << "config " << t;
        EXPECT_EQ(trials[t], trials[0]) << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
    }
}

TEST_F(MigrationOverlapTest, OverlapHidesWaitOnSlowDevice)
{
    // I/O-bound regime: the round span is long, so per-bucket flushes
    // have plenty of stepping to hide behind.
    storage::SsdModel slow = storage::SsdModel::p4618();
    slow.seq_bandwidth /= 2048.0;
    slow.iops /= 2048.0;
    storage::MemDevice slow_device(slow);
    graph::GraphFile::write(graph_, slow_device);
    graph::GraphFile slow_file(slow_device);
    graph::BlockPartition slow_partition(
        slow_file, slow_file.edge_region_bytes() / 8);

    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 16;
    OverlapRecordingWalk app(kLength, slow_file.num_vertices(), kWalkers);
    core::EngineConfig cfg =
        core::EngineConfig::full(0, slow_partition.max_block_bytes());
    cfg.num_shards = 4;
    cfg.step_threads = 2;
    shard::ShardedEngine<OverlapRecordingWalk> eng(slow_file,
                                                   slow_partition, cfg);
    const engine::RunStats stats = eng.run(app, kWalkers);
    ASSERT_GT(stats.migrations, 0u);

    // Every flush is priced exactly once: the part stepping hid plus
    // the residual wait is the full wire cost of the run's traffic
    // (flush_seconds is linear, so the per-event prices sum to the
    // price of the totals).
    EXPECT_GT(stats.migration_overlap_seconds, 0.0)
        << "per-bucket flushes hid nothing behind stepping";
    const double priced = eng.cost_model.flush_seconds(
        stats.migrations, stats.migration_batches, eng.num_shards());
    EXPECT_NEAR(stats.migration_wait_seconds +
                    stats.migration_overlap_seconds,
                priced, 1e-9 * priced);
}

TEST_F(MigrationOverlapTest, LocalitySeedingStartsWalkersOnOwnerShard)
{
    const shard::ShardPlan plan(*partition_, 4);
    for (graph::VertexId v = 0; v < file_->num_vertices(); v += 7) {
        EXPECT_EQ(plan.assign_walker(*partition_, v),
                  plan.shard_of_block(partition_->block_of(v)));
    }
    // Documented fallback spreads by index, no locality promise.
    for (std::uint64_t i = 0; i < 16; ++i) {
        EXPECT_EQ(plan.assign_walker_round_robin(i),
                  i % plan.num_shards());
    }

    // Zero-length walkers retire where they were seeded: locality
    // seeding means round 1 exists and nothing ever migrates.
    OverlapRecordingWalk app(0, file_->num_vertices(), 400);
    shard::ShardedEngine<OverlapRecordingWalk> eng(
        *file_, *partition_, config(4, 2));
    const auto stats = eng.run(app, 400);
    EXPECT_EQ(stats.migrations, 0u);
    EXPECT_EQ(stats.migration_wait_seconds, 0.0);
    EXPECT_EQ(eng.rounds(), 1u);
    EXPECT_EQ(stats.walkers, 400u);
}

/** First-order uniform walk that tallies, per (src, dst) shard pair,
 *  every move that leaves a walker active on a vertex another shard
 *  owns — exactly the moves that must emigrate the walker — and the
 *  shard each walker retires on. */
class FlowRecordingWalk {
  public:
    using WalkerT = engine::Walker;

    FlowRecordingWalk(std::uint32_t length, std::uint64_t num_walkers,
                      const shard::ShardPlan &plan,
                      const graph::BlockPartition &partition,
                      graph::VertexId num_vertices)
        : flows(plan.num_shards() * plan.num_shards()), length_(length),
          plan_(&plan), partition_(&partition),
          num_vertices_(num_vertices), prev_(num_walkers),
          location_(num_walkers), steps_(num_walkers, 0)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        util::SplitMix64 mix(n * 31 + 5);
        const auto start =
            static_cast<graph::VertexId>(mix.next() % num_vertices_);
        prev_[n] = start;
        location_[n] = start;
        return WalkerT{n, start, 0};
    }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return view.sample_uniform(rng);
    }

    bool active(const WalkerT &w) const { return w.step < length_; }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &)
    {
        prev_[w.id] = w.location;
        const unsigned src = shard_of(w.location);
        const unsigned dst = shard_of(next);
        w.location = next;
        ++w.step;
        location_[w.id] = next;
        steps_[w.id] = w.step;
        if (active(w) && src != dst) {
            flows[src * plan_->num_shards() + dst].fetch_add(
                1, std::memory_order_relaxed);
        }
        return true;
    }

    /** Shard walker @p id retired on, after the run: a finished
     *  walker retires where its last step was taken, one stuck at a
     *  dead end where it sits. */
    unsigned
    retired_on(std::uint64_t id) const
    {
        return shard_of(steps_[id] == length_ ? prev_[id]
                                              : location_[id]);
    }

    unsigned
    shard_of(graph::VertexId v) const
    {
        return plan_->assign_walker(*partition_, v);
    }

    /** flows[src * num_shards + dst]. */
    std::vector<std::atomic<std::uint64_t>> flows;

  private:
    std::uint32_t length_;
    const shard::ShardPlan *plan_;
    const graph::BlockPartition *partition_;
    graph::VertexId num_vertices_;
    std::vector<graph::VertexId> prev_;
    std::vector<graph::VertexId> location_;
    std::vector<std::uint32_t> steps_;
};

static_assert(engine::RandomWalkApp<FlowRecordingWalk>);

TEST_F(MigrationOverlapTest, PairwiseConservationCounters)
{
    // End to end: a 4-shard run's migration counter is the sum of the
    // per-(src, dst) cross-shard flows the walks themselves took, and
    // every shard balances — walkers seeded on it plus immigrants
    // equal walkers retired on it plus emigrants.
    constexpr std::uint64_t kWalkers = 500;
    constexpr std::uint32_t kLength = 20;
    for (const unsigned threads : {1u, 8u}) {
        shard::ShardedEngine<FlowRecordingWalk> eng(
            *file_, *partition_, config(4, threads));
        const unsigned n = eng.num_shards();
        ASSERT_EQ(n, 4u);
        FlowRecordingWalk app(kLength, kWalkers, eng.plan(), *partition_,
                              file_->num_vertices());
        std::vector<std::uint64_t> seeded(n, 0);
        for (std::uint64_t id = 0; id < kWalkers; ++id) {
            ++seeded[app.shard_of(app.generate(id).location)];
        }
        const auto stats = eng.run(app, kWalkers);
        ASSERT_EQ(stats.walkers, kWalkers);

        std::uint64_t flow_total = 0;
        std::vector<std::uint64_t> out(n, 0);
        std::vector<std::uint64_t> in(n, 0);
        for (unsigned s = 0; s < n; ++s) {
            EXPECT_EQ(app.flows[s * n + s].load(), 0u);
            for (unsigned d = 0; d < n; ++d) {
                const std::uint64_t f = app.flows[s * n + d].load();
                flow_total += f;
                out[s] += f;
                in[d] += f;
            }
        }
        EXPECT_GT(stats.migrations, 0u) << "threads " << threads;
        EXPECT_EQ(stats.migrations, flow_total) << "threads " << threads;
        EXPECT_LE(stats.migration_batches, stats.migrations);

        std::vector<std::uint64_t> retired(n, 0);
        for (std::uint64_t id = 0; id < kWalkers; ++id) {
            ++retired[app.retired_on(id)];
        }
        const std::vector<engine::RunStats> &per_shard = eng.shard_stats();
        ASSERT_EQ(per_shard.size(), n);
        for (unsigned s = 0; s < n; ++s) {
            EXPECT_EQ(per_shard[s].walkers, retired[s])
                << "shard " << s << ", threads " << threads;
            EXPECT_EQ(seeded[s] + in[s], retired[s] + out[s])
                << "shard " << s << ", threads " << threads;
        }
    }
}

class ShardPresampleTest : public MigrationOverlapTest {};

TEST_F(ShardPresampleTest, NeverInShardRounds)
{
    // Reservoir contents depend on the shard count, so the
    // cross-shard-count bit-identity contract of num_shards keeps
    // pre-sampling out of shard rounds even with presample on.
    OverlapRecordingWalk app(16, file_->num_vertices(), 400);
    core::EngineConfig cfg = config(2, 2);
    ASSERT_TRUE(cfg.presample);
    shard::ShardedEngine<OverlapRecordingWalk> eng(*file_, *partition_,
                                                   cfg);
    const auto stats = eng.run(app, 400);
    EXPECT_EQ(stats.presample_steps, 0u);
    EXPECT_EQ(stats.presample_bytes_total, 0u);
}

} // namespace
} // namespace noswalker
