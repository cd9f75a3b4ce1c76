/**
 * @file
 * The tentpole guarantee of the shard subsystem (DESIGN.md §11): walk
 * output is bit-identical across {1,2,4} shards × {1,8} step threads —
 * trajectories are pure functions of (seed, walker id, graph), and the
 * per-walker stream travels with the walker through every migration.
 *
 * Also covered: migration conservation (every walker retires exactly
 * once; none leak at close), migration counters that repeat across
 * reruns and step-thread counts, budget slicing, a throwing app that
 * leaves no charge on a shared budget, and the modeled multi-device
 * speedup on an I/O-bound run.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "apps/node2vec.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "shard/shard_plan.hpp"
#include "shard/sharded_engine.hpp"
#include "storage/mem_device.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"

namespace noswalker {
namespace {

/** First-order uniform walk recording endpoints + visit counts.
 *  Thread safe the way service apps are: per-walker endpoint slots,
 *  atomic visit counters — shards may step it concurrently. */
class ShardRecordingWalk {
  public:
    using WalkerT = engine::Walker;

    ShardRecordingWalk(std::uint32_t length, graph::VertexId num_vertices,
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

static_assert(engine::RandomWalkApp<ShardRecordingWalk>);

/** Node2Vec wrapper recording the endpoint of every accepted move. */
class ShardRecordingNode2Vec {
  public:
    using WalkerT = apps::Node2Vec::WalkerT;

    ShardRecordingNode2Vec(double p, double q, std::uint32_t length,
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

static_assert(engine::SecondOrderApp<ShardRecordingNode2Vec>);

class ShardedEngineTest : public testing::Test {
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

TEST_F(ShardedEngineTest, PlanIsContiguousAndByteBalanced)
{
    const shard::ShardPlan plan(*partition_, 4);
    ASSERT_EQ(plan.num_shards(), 4u);
    std::uint32_t next = 0;
    for (unsigned s = 0; s < plan.num_shards(); ++s) {
        const shard::ShardRange &range = plan.shard(s);
        EXPECT_EQ(range.first_block, next);
        EXPECT_GT(range.end_block, range.first_block);
        next = range.end_block;
        for (std::uint32_t b = range.first_block; b < range.end_block;
             ++b) {
            EXPECT_EQ(plan.shard_of_block(b), s);
        }
    }
    EXPECT_EQ(next, partition_->num_blocks());

    // More shards than blocks clamps, never throws.
    const shard::ShardPlan clamped(*partition_, 1000);
    EXPECT_EQ(clamped.num_shards(), partition_->num_blocks());
}

TEST_F(ShardedEngineTest, BasicWalkBitIdenticalAcrossShardsAndThreads)
{
    constexpr std::uint64_t kWalkers = 600;
    constexpr std::uint32_t kLength = 24;
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint32_t>> visits;
    std::vector<std::uint64_t> steps;
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 8u}) {
            ShardRecordingWalk app(kLength, file_->num_vertices(),
                                   kWalkers);
            shard::ShardedEngine<ShardRecordingWalk> eng(
                *file_, *partition_, config(shards, threads));
            const auto stats = eng.run(app, kWalkers);
            endpoints.push_back(app.endpoints);
            std::vector<std::uint32_t> v(app.visits.size());
            for (std::size_t i = 0; i < v.size(); ++i) {
                v[i] = app.visits[i].load();
            }
            visits.push_back(std::move(v));
            steps.push_back(stats.steps);
            if (shards == 1) {
                EXPECT_EQ(stats.migrations, 0u);
                EXPECT_EQ(stats.migration_wait_seconds, 0.0);
            }
        }
    }
    EXPECT_GT(steps[0], 0u);
    EXPECT_LE(steps[0], kWalkers * kLength);
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]) << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
        EXPECT_EQ(visits[t], visits[0]) << "config " << t;
    }
}

TEST_F(ShardedEngineTest, MatchesPlainEngineWithPresampleOff)
{
    // The 1-shard sharded path must reproduce the plain engine
    // exactly (shard rounds run with pre-sampling off, so compare
    // against a presample-off plain run).
    constexpr std::uint64_t kWalkers = 400;
    constexpr std::uint32_t kLength = 16;

    ShardRecordingWalk plain_app(kLength, file_->num_vertices(),
                                 kWalkers);
    core::EngineConfig plain_cfg = config(1, 1);
    plain_cfg.presample = false;
    core::NosWalkerEngine<ShardRecordingWalk> plain(*file_, *partition_,
                                                    plain_cfg);
    plain.run(plain_app, kWalkers);

    for (const unsigned shards : {1u, 4u}) {
        ShardRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
        shard::ShardedEngine<ShardRecordingWalk> eng(
            *file_, *partition_, config(shards, 2));
        eng.run(app, kWalkers);
        EXPECT_EQ(app.endpoints, plain_app.endpoints)
            << shards << " shards";
    }
}

TEST_F(ShardedEngineTest, Node2VecBitIdenticalAcrossShardsAndThreads)
{
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::uint64_t> steps;
    std::vector<std::uint64_t> trials;
    for (const unsigned shards : {1u, 2u, 4u}) {
        for (const unsigned threads : {1u, 8u}) {
            ShardRecordingNode2Vec app(2.0, 0.5, 12,
                                       file_->num_vertices(), 2);
            shard::ShardedEngine<ShardRecordingNode2Vec> eng(
                *file_, *partition_, config(shards, threads));
            const auto stats = eng.run(app, app.total_walkers());
            endpoints.push_back(app.endpoints);
            steps.push_back(stats.steps);
            trials.push_back(stats.rejection_trials);
        }
    }
    for (std::size_t t = 1; t < endpoints.size(); ++t) {
        EXPECT_EQ(steps[t], steps[0]) << "config " << t;
        EXPECT_EQ(trials[t], trials[0]) << "config " << t;
        EXPECT_EQ(endpoints[t], endpoints[0]) << "config " << t;
    }
}

TEST_F(ShardedEngineTest, MigrationConservationNoLeaksAtClose)
{
    constexpr std::uint64_t kWalkers = 500;
    constexpr std::uint32_t kLength = 20;
    ShardRecordingWalk app(kLength, file_->num_vertices(), kWalkers);
    shard::ShardedEngine<ShardRecordingWalk> eng(*file_, *partition_,
                                                 config(4, 2));
    const auto stats = eng.run(app, kWalkers);

    // Every generated walker retires exactly once, on some shard.
    EXPECT_EQ(stats.walkers, kWalkers);

    // An rmat graph at 4 shards crosses boundaries constantly; every
    // batch carries at least one walker.
    EXPECT_GT(stats.migrations, 0u);
    EXPECT_GT(stats.migration_batches, 0u);
    EXPECT_LE(stats.migration_batches, stats.migrations);
    EXPECT_GT(stats.migration_wait_seconds, 0.0);
    EXPECT_GT(eng.rounds(), 1u);

    // Per-shard totals cover exactly the global retirements/steps.
    std::uint64_t shard_walkers = 0;
    std::uint64_t shard_steps = 0;
    for (const engine::RunStats &s : eng.shard_stats()) {
        shard_walkers += s.walkers;
        shard_steps += s.steps;
    }
    EXPECT_EQ(shard_walkers, kWalkers);
    EXPECT_EQ(shard_steps, stats.steps);
}

TEST_F(ShardedEngineTest, TotalsSumEveryAdditiveShardCounter)
{
    // Each additive counter of the sharded total is the sum over the
    // per-shard totals: none may be dropped on the way up.
    const auto additive = [](const engine::RunStats &s) {
        return std::vector<std::uint64_t>{
            s.walkers, s.steps, s.graph_bytes_read, s.graph_read_requests,
            s.edges_loaded, s.swap_bytes, s.blocks_loaded, s.fine_loads,
            s.cache_hit_blocks, s.cache_miss_blocks, s.prefetch_hits,
            s.prefetch_mispredicts, s.planned_loads, s.plan_cache_credits,
            s.kernel_cohorts, s.kernel_prefetches,
            s.kernel_scalar_fallbacks, s.presample_steps, s.block_steps,
            s.stalls, s.rejection_trials, s.rejection_rejected};
    };
    apps::Node2Vec app(2.0, 0.5, 12, file_->num_vertices(), 1);
    shard::ShardedEngine<apps::Node2Vec> eng(*file_, *partition_,
                                             config(2, 2));
    const engine::RunStats total = eng.run(app, app.total_walkers());

    const std::vector<std::uint64_t> got = additive(total);
    std::vector<std::uint64_t> sum(got.size(), 0);
    for (const engine::RunStats &s : eng.shard_stats()) {
        const std::vector<std::uint64_t> part = additive(s);
        for (std::size_t i = 0; i < sum.size(); ++i) {
            sum[i] += part[i];
        }
    }
    EXPECT_EQ(got, sum);
    EXPECT_GT(total.kernel_cohorts, 0u);
    EXPECT_GT(total.kernel_prefetches, 0u);
    EXPECT_GT(total.rejection_trials, 0u);
}

TEST_F(ShardedEngineTest, SlicedBudgetMatchesUnbudgetedRun)
{
    constexpr std::uint64_t kWalkers = 300;
    constexpr std::uint32_t kLength = 12;

    ShardRecordingWalk free_app(kLength, file_->num_vertices(),
                                kWalkers);
    shard::ShardedEngine<ShardRecordingWalk> free_eng(
        *file_, *partition_, config(2, 2));
    free_eng.run(free_app, kWalkers);

    ShardRecordingWalk tight_app(kLength, file_->num_vertices(),
                                 kWalkers);
    core::EngineConfig tight = config(2, 2);
    // Each shard gets a genuinely bounded 1/N slice that still clears
    // the per-engine floor.
    tight.memory_budget =
        2 * testing_support::tight_budget(*file_, *partition_);
    shard::ShardedEngine<ShardRecordingWalk> tight_eng(
        *file_, *partition_, tight);
    const auto stats = tight_eng.run(tight_app, kWalkers);

    EXPECT_EQ(tight_app.endpoints, free_app.endpoints);
    EXPECT_GT(stats.peak_memory, 0u);
    EXPECT_LE(stats.peak_memory, tight.memory_budget);
}

TEST_F(ShardedEngineTest, ChargesTheSharedIndexOnce)
{
    // The shards read views of one index, so the engine's footprint is
    // that index once plus each shard's private slice, and the whole
    // stays inside the budget.
    constexpr std::uint64_t kWalkers = 300;
    ShardRecordingWalk app(12, file_->num_vertices(), kWalkers);
    core::EngineConfig cfg = config(2, 2);
    cfg.memory_budget =
        2 * testing_support::tight_budget(*file_, *partition_);
    shard::ShardedEngine<ShardRecordingWalk> eng(*file_, *partition_, cfg);
    const auto stats = eng.run(app, kWalkers);

    const std::uint64_t index = file_->index_bytes();
    const std::uint64_t slice =
        shard::shard_slice(cfg.memory_budget, index, 2);
    EXPECT_EQ(slice, (cfg.memory_budget - index) / 2);
    std::uint64_t private_peaks = 0;
    for (const engine::RunStats &s : eng.shard_stats()) {
        EXPECT_GT(s.peak_memory, 0u);
        EXPECT_LE(s.peak_memory, slice);
        private_peaks += s.peak_memory;
    }
    EXPECT_EQ(stats.peak_memory, index + private_peaks);
    EXPECT_LE(stats.peak_memory, cfg.memory_budget);
}

TEST_F(ShardedEngineTest, ShardFilesShareTheBaseIndexStorage)
{
    shard::ShardedEngine<ShardRecordingWalk> eng(*file_, *partition_,
                                                 config(4, 1));
    ASSERT_EQ(eng.num_shards(), 4u);
    for (unsigned s = 0; s < eng.num_shards(); ++s) {
        const graph::GraphFile &view = eng.shard_file(s);
        // Same index storage, private device.
        EXPECT_EQ(view.index_entry(0), file_->index_entry(0));
        EXPECT_EQ(view.index_bytes(), file_->index_bytes());
        EXPECT_NE(&view.device(), &file_->device());
    }
}

TEST_F(ShardedEngineTest, BudgetBelowTheIndexThrows)
{
    ShardRecordingWalk app(4, file_->num_vertices(), 10);
    core::EngineConfig cfg = config(2, 1);
    cfg.memory_budget = file_->index_bytes() - 1;
    shard::ShardedEngine<ShardRecordingWalk> eng(*file_, *partition_, cfg);
    EXPECT_THROW(eng.run(app, 10), util::BudgetExceeded);
}

TEST_F(ShardedEngineTest, RerunRepeatsAcrossPlacements)
{
    // Shard→thread placement inside the fork-join pool is dynamic;
    // repeated runs of one engine, at any step-thread count, must
    // still agree bit for bit — walk output and migration counters.
    constexpr std::uint64_t kWalkers = 300;
    std::vector<std::vector<graph::VertexId>> endpoints;
    std::vector<std::vector<std::uint64_t>> counters;
    // wait + overlap is the price of the round's flush events; the
    // split between the two follows measured CPU time, the sum not.
    std::vector<double> priced;
    for (const unsigned threads : {1u, 8u}) {
        shard::ShardedEngine<ShardRecordingWalk> eng(
            *file_, *partition_, config(4, threads));
        for (int rerun = 0; rerun < 2; ++rerun) {
            ShardRecordingWalk app(10, file_->num_vertices(), kWalkers);
            const auto stats = eng.run(app, kWalkers);
            endpoints.push_back(app.endpoints);
            counters.push_back({eng.rounds(), stats.migrations,
                                stats.migration_batches});
            priced.push_back(stats.migration_wait_seconds +
                             stats.migration_overlap_seconds);
        }
    }
    EXPECT_GT(counters[0][1], 0u) << "no walker migrated";
    for (std::size_t r = 1; r < endpoints.size(); ++r) {
        EXPECT_EQ(endpoints[r], endpoints[0]) << "run " << r;
        EXPECT_EQ(counters[r], counters[0]) << "run " << r;
        EXPECT_NEAR(priced[r], priced[0], 1e-9 * priced[0])
            << "run " << r;
    }
}

/** ShardRecordingWalk whose action throws on the fuse-th call (a fuse
 *  of 0 never fires). */
class ThrowingWalk : public ShardRecordingWalk {
  public:
    using ShardRecordingWalk::ShardRecordingWalk;

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &rng)
    {
        if (fuse.fetch_sub(1, std::memory_order_relaxed) == 1) {
            throw std::runtime_error("app failure");
        }
        return ShardRecordingWalk::action(w, next, rng);
    }

    std::atomic<std::int64_t> fuse{0};
};

static_assert(engine::RandomWalkApp<ThrowingWalk>);

class ThrowingAppTest : public ShardedEngineTest {};

TEST_F(ThrowingAppTest, PlainEngineLeavesTheSharedBudgetEmpty)
{
    constexpr std::uint64_t kWalkers = 300;
    constexpr std::uint32_t kLength = 10;
    const auto walk = [&](core::NosWalkerEngine<ThrowingWalk> &eng,
                          ThrowingWalk &app) {
        const auto stats = eng.run(app, kWalkers);
        return std::vector<std::uint64_t>{stats.steps, stats.walkers,
                                          stats.graph_bytes_read,
                                          stats.blocks_loaded};
    };
    util::MemoryBudget shared(0);
    core::NosWalkerEngine<ThrowingWalk> eng(*file_, *partition_,
                                            config(1, 2));
    eng.set_shared_budget(&shared);
    ThrowingWalk failing(kLength, file_->num_vertices(), kWalkers);
    failing.fuse = 1000;
    EXPECT_THROW(eng.run(failing, kWalkers), std::runtime_error);
    EXPECT_EQ(shared.used(), 0u);

    // The engine is reusable: a rerun matches a fresh engine.
    ThrowingWalk rerun(kLength, file_->num_vertices(), kWalkers);
    const auto rerun_stats = walk(eng, rerun);
    EXPECT_EQ(shared.used(), 0u);
    util::MemoryBudget fresh_budget(0);
    core::NosWalkerEngine<ThrowingWalk> fresh_eng(*file_, *partition_,
                                                  config(1, 2));
    fresh_eng.set_shared_budget(&fresh_budget);
    ThrowingWalk fresh(kLength, file_->num_vertices(), kWalkers);
    EXPECT_EQ(rerun_stats, walk(fresh_eng, fresh));
    EXPECT_EQ(rerun.endpoints, fresh.endpoints);
}

TEST_F(ThrowingAppTest, ShardedEngineLeavesTheSharedBudgetEmpty)
{
    constexpr std::uint64_t kWalkers = 300;
    constexpr std::uint32_t kLength = 10;
    const auto walk = [&](shard::ShardedEngine<ThrowingWalk> &eng,
                          ThrowingWalk &app) {
        const auto stats = eng.run(app, kWalkers);
        return std::vector<std::uint64_t>{
            stats.steps, stats.walkers, stats.migrations,
            stats.migration_batches, stats.graph_bytes_read,
            eng.rounds()};
    };
    util::MemoryBudget shared(0);
    shard::ShardedEngine<ThrowingWalk> eng(*file_, *partition_,
                                           config(2, 2));
    eng.set_shared_budget(&shared);
    ThrowingWalk failing(kLength, file_->num_vertices(), kWalkers);
    failing.fuse = 1000;
    EXPECT_THROW(eng.run(failing, kWalkers), std::runtime_error);
    EXPECT_EQ(shared.used(), 0u);

    ThrowingWalk rerun(kLength, file_->num_vertices(), kWalkers);
    const auto rerun_stats = walk(eng, rerun);
    EXPECT_EQ(shared.used(), 0u);
    EXPECT_GT(rerun_stats[2], 0u) << "no walker migrated";
    util::MemoryBudget fresh_budget(0);
    shard::ShardedEngine<ThrowingWalk> fresh_eng(*file_, *partition_,
                                                 config(2, 2));
    fresh_eng.set_shared_budget(&fresh_budget);
    ThrowingWalk fresh(kLength, file_->num_vertices(), kWalkers);
    EXPECT_EQ(rerun_stats, walk(fresh_eng, fresh));
    EXPECT_EQ(rerun.endpoints, fresh.endpoints);
}

TEST_F(ShardedEngineTest, ModeledSpeedupWithPrivateDevices)
{
    // On an I/O-bound run (device bandwidth scaled down to the paper's
    // regime) the per-round I/O maximum shrinks as shards split the
    // byte volume across private modeled devices.
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
    std::vector<double> modeled;
    std::vector<graph::VertexId> reference;
    for (const unsigned shards : {1u, 4u}) {
        ShardRecordingWalk app(kLength, slow_file.num_vertices(),
                               kWalkers);
        core::EngineConfig cfg = core::EngineConfig::full(
            0, slow_partition.max_block_bytes());
        cfg.num_shards = shards;
        shard::ShardedEngine<ShardRecordingWalk> eng(
            slow_file, slow_partition, cfg);
        const auto stats = eng.run(app, kWalkers);
        modeled.push_back(stats.modeled_seconds());
        if (reference.empty()) {
            reference = app.endpoints;
        } else {
            EXPECT_EQ(app.endpoints, reference);
        }
    }
    EXPECT_LT(modeled[1], modeled[0]);
}

} // namespace
} // namespace noswalker
