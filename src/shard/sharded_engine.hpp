/**
 * @file
 * Sharded scale-out engine: N NosWalker engines over one graph, each
 * owning a contiguous block range, a private modeled device, and a 1/N
 * slice of what the memory budget leaves after the one CSR index they
 * all share, stepping concurrently on a fork-join pool (DESIGN.md §11).
 *
 * Execution proceeds in rounds.  Each round, every shard with waiting
 * walkers runs its engine to local quiescence: walkers whose next
 * vertex another shard owns are handed back as emigrants instead of
 * parking.  Each shard's pool task routes its emigrants, in order, into
 * per-destination outboxes; after the fork-join, inbox[d] is the
 * concatenation of outbox[0..N-1][d] and feeds the next round.  The
 * run ends when no shard holds a walker.
 *
 * The engine marks its emigrant outbox at every block bucket's merge
 * point; the marks cut a shard's round emigrants into flush events, so
 * the wire time of a flush overlaps the remainder of the round, and
 * only the residual the stepping could not hide is charged as
 * migration_wait_seconds (the hidden part lands in
 * migration_overlap_seconds).  The marks only price the round: no
 * record crosses shards before the barrier, and the inboxes are the
 * same bytes whatever the marks are.
 *
 * Determinism: every walker carries its private SplitMix64 stream
 * (engine::Stepped) across migrations, streams are derived exactly as
 * the plain engine derives them, and pre-sampling — the one mechanism
 * whose output depends on load timing — is off for shard rounds.  A
 * trajectory is a pure function of (seed, walker id, graph): endpoints
 * and visit counts are bit-identical across {1, 2, N} shards, any
 * step-thread count, and any shard→thread placement.
 *
 * Modeled time: shards run concurrently, so each round contributes the
 * *maximum* of the per-shard I/O / CPU / wait phases; raw counters
 * sum.  Exchanges are priced per flush event by the same
 * MigrationCostModel the KnightKing baseline uses; the k-th of a
 * shard's K flush events gets a hiding window proportional to the
 * round span left after it ((K-1-k)/K), so a shard whose emigrants all
 * surface in one flush is charged the full exchange cost as wait.
 */
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/noswalker_engine.hpp"
#include "engine/app.hpp"
#include "engine/run_stats.hpp"
#include "engine/walker.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "shard/migration_cost.hpp"
#include "shard/shard_device.hpp"
#include "shard/shard_plan.hpp"
#include "util/memory_budget.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace noswalker::shard {

/**
 * Partitioned multi-engine walk executor with deterministic batched
 * walker migration.
 *
 * @tparam App  a RandomWalkApp whose state is safe to step from
 *              multiple shard threads at once (per-walker output
 *              slots, atomic shared counters — the same contract as
 *              multi-threaded stepping in the plain engine).
 */
template <engine::RandomWalkApp App>
class ShardedEngine {
  public:
    using WalkerT = typename App::WalkerT;
    using Record = engine::Stepped<WalkerT>;
    using Engine = core::NosWalkerEngine<App>;

    /** Wire cost of barrier exchanges; shared with the KnightKing
     *  baseline via shard/migration_cost.hpp.  Adjust before run(). */
    MigrationCostModel cost_model;

    /**
     * @param file  the on-disk graph (base byte store; each shard
     *              reads it through a private modeled device).
     * @param partition  1-D block partition of @p file.
     * @param config  engine configuration; num_shards picks the shard
     *                count (clamped to the block count); memory_budget
     *                pays the shared CSR index once and the rest is
     *                sliced 1/N per shard (shard_slice).
     */
    ShardedEngine(const graph::GraphFile &file,
                  const graph::BlockPartition &partition,
                  core::EngineConfig config)
        : file_(&file), partition_(&partition), config_(config),
          plan_(partition, std::max(1u, config.num_shards)),
          shard_pool_(plan_.num_shards() - 1),
          index_budget_(config.memory_budget)
    {
        config_.validate();
        build_shards();
    }

    /**
     * Share one budget across every shard engine (walk-service mode)
     * instead of the private 1/N slices; each run charges the shared
     * index to it once.  Pass nullptr to revert.
     */
    void
    set_shared_budget(util::MemoryBudget *budget)
    {
        shared_budget_ = budget;
        for (Shard &shard : shards_) {
            shard.engine->set_shared_budget(
                budget != nullptr ? budget : shard.budget.get());
        }
    }

    /** Serve coarse loads through a cache shared across shards. */
    void
    set_shared_cache(storage::SharedBlockCache *cache)
    {
        for (Shard &shard : shards_) {
            shard.engine->set_shared_cache(cache);
        }
    }

    /**
     * Step every shard's blocks on one external pool (the walk
     * service's).  The pool serializes concurrent engines, so shards
     * then interleave stepping instead of running it in parallel —
     * safe, and output-identical (per-walker streams).
     */
    void
    set_step_pool(util::ThreadPool *pool)
    {
        for (Shard &shard : shards_) {
            shard.engine->set_step_pool(pool);
        }
    }

    /** Shards actually planned (num_shards clamped to the blocks). */
    unsigned num_shards() const { return plan_.num_shards(); }

    /** The block assignment. */
    const ShardPlan &plan() const { return plan_; }

    /** Shard @p s's graph file: a view of the base file over the
     *  shard's private device. */
    const graph::GraphFile &
    shard_file(unsigned s) const
    {
        return *shards_[s].file;
    }

    /** Migration rounds of the last run. */
    std::uint64_t rounds() const { return rounds_; }

    /** Per-shard lifetime totals of the last run (bench reporting). */
    const std::vector<engine::RunStats> &
    shard_stats() const
    {
        return shard_totals_;
    }

    engine::RunStats
    run(App &app, std::uint64_t total_walkers)
    {
        return run(app, total_walkers, config_.seed);
    }

    /**
     * Execute @p total_walkers walkers of @p app to completion across
     * the shards, seeding streams from @p seed exactly as the plain
     * engine would.
     */
    engine::RunStats
    run(App &app, std::uint64_t total_walkers, std::uint64_t seed)
    {
        util::Timer wall;
        const unsigned n = plan_.num_shards();
        rounds_ = 0;
        shard_totals_.assign(n, engine::RunStats{});

        // The shards' files are views of one index: it is charged
        // here, once, never by the shard engines (shard_slice).
        const util::Reservation index(
            shared_budget_ != nullptr ? *shared_budget_ : index_budget_,
            file_->index_bytes(), "csr index");

        engine::RunStats total;
        total.engine = "ShardedNosWalker";
        total.pipelined = true;
        total.io_efficiency = core::kAsyncIoEfficiency;

        // Generate and route every walker up front: the router needs
        // each start vertex, and the record (walker + stream) must be
        // identical to what the plain engine would generate.  Seeding
        // is locality-aware: each walker starts on the shard that owns
        // its start vertex's block (ShardPlan::assign_walker), so
        // round 1 opens with zero migrations.
        std::vector<std::vector<Record>> inbox(n);
        for (std::uint64_t id = 0; id < total_walkers; ++id) {
            Record rec;
            rec.w = app.generate(id);
            rec.rng_state = util::derive_stream(seed, id);
            const unsigned owner = plan_.assign_walker(
                *partition_, engine::waiting_vertex(app, rec.w));
            inbox[owner].push_back(std::move(rec));
        }

        std::vector<engine::RunStats> round_stats(n);
        // outbox[s][d] and events[s] are written only by shard s's pool
        // task and read by the orchestrator after the fork-join.
        std::vector<std::vector<std::vector<Record>>> outbox(
            n, std::vector<std::vector<Record>>(n));
        std::vector<std::vector<FlushEvent>> events(n);

        const auto live = [&] {
            for (const std::vector<Record> &box : inbox) {
                if (!box.empty()) {
                    return true;
                }
            }
            return false;
        };

        while (live()) {
            ++rounds_;
            // Fork: each shard runs its engine to local quiescence and
            // routes its emigrants.  The pool's run() is the barrier.
            shard_pool_.run(n, [&](std::size_t s) {
                round_stats[s] = engine::RunStats{};
                events[s].clear();
                if (inbox[s].empty()) {
                    return;
                }
                std::vector<Record> records = std::move(inbox[s]);
                inbox[s].clear();
                std::vector<Record> emigrants;
                std::vector<std::size_t> marks;
                const ShardRange &range = plan_.shard(
                    static_cast<unsigned>(s));
                round_stats[s] = shards_[s].engine->run_records(
                    app, std::move(records), seed, range.first_block,
                    range.end_block, &emigrants, &marks);
                route_emigrants(app, emigrants, marks, outbox[s],
                                events[s]);
            });
            const double round_span =
                aggregate_round(total, round_stats);
            charge_round_exchange(total, events, round_span, n);

            // Barrier passed: deliver in (dst, src) order.  Per pair
            // the outbox holds the src shard's emigrants in outbox
            // order, so the inboxes never depend on thread timing.
            // The first non-empty part is adopted, not copied: with two
            // shards it is every inbox's only part, and copying it
            // raised the perfbench n2v-shard2 peak RSS from 58 to 67 MiB.
            for (unsigned d = 0; d < n; ++d) {
                for (unsigned s = 0; s < n; ++s) {
                    std::vector<Record> &part = outbox[s][d];
                    if (inbox[d].empty()) {
                        inbox[d] = std::move(part);
                    } else {
                        inbox[d].insert(
                            inbox[d].end(),
                            std::make_move_iterator(part.begin()),
                            std::make_move_iterator(part.end()));
                    }
                    part = std::vector<Record>();
                }
            }
        }

        finalize_totals(total);
        total.wall_seconds = wall.seconds();
        return total;
    }

  private:
    struct Shard {
        std::unique_ptr<ShardDevice> device;
        /** View of file_ over the private device, sharing its index. */
        std::unique_ptr<graph::GraphFile> file;
        /** Private slice (bypassed in shared-budget mode). */
        std::unique_ptr<util::MemoryBudget> budget;
        std::unique_ptr<Engine> engine;
    };

    void
    build_shards()
    {
        const unsigned n = plan_.num_shards();
        const std::uint64_t slice = shard_slice(
            config_.memory_budget, file_->index_bytes(), n);
        core::EngineConfig shard_config = config_;
        shard_config.num_shards = 1;
        // The budget is attached explicitly (slice or shared); the
        // engine-local cap is unused.
        shard_config.memory_budget = 0;
        shards_.reserve(n);
        for (unsigned s = 0; s < n; ++s) {
            Shard shard;
            shard.device = std::make_unique<ShardDevice>(
                file_->device(), file_->device().model());
            shard.file =
                std::make_unique<graph::GraphFile>(*file_, *shard.device);
            shard.budget = std::make_unique<util::MemoryBudget>(slice);
            shard.engine = std::make_unique<Engine>(
                *shard.file, *partition_, shard_config);
            shard.engine->set_shared_budget(shard.budget.get());
            shard.engine->set_charge_index(false);
            shards_.push_back(std::move(shard));
        }
    }

    /** One emigrant flush: the unit the cost model prices and
     *  windows (DESIGN.md §11). */
    struct FlushEvent {
        std::uint64_t records = 0;
        /** Destinations the flush reaches (one batch each). */
        std::uint64_t batches = 0;
    };

    /**
     * Cut one shard's round @p emigrants at the engine's flush
     * @p marks (plus the residue after the last mark) into flush
     * events, and move the records, in order, to the outbox of their
     * destination shard (ShardPlan::assign_walker).  Runs on the
     * shard's pool task.
     */
    void
    route_emigrants(App &app, std::vector<Record> &emigrants,
                    const std::vector<std::size_t> &marks,
                    std::vector<std::vector<Record>> &outbox,
                    std::vector<FlushEvent> &events)
    {
        const unsigned n = plan_.num_shards();
        std::vector<unsigned> dst(emigrants.size());
        std::vector<std::size_t> count(n, 0);
        std::vector<bool> reached(n);
        std::size_t begin = 0;
        const auto cut = [&](std::size_t end) {
            if (end <= begin) {
                return;
            }
            FlushEvent event;
            event.records = end - begin;
            std::fill(reached.begin(), reached.end(), false);
            for (std::size_t i = begin; i < end; ++i) {
                dst[i] = plan_.assign_walker(
                    *partition_,
                    engine::waiting_vertex(app, emigrants[i].w));
                ++count[dst[i]];
                if (!reached[dst[i]]) {
                    reached[dst[i]] = true;
                    ++event.batches;
                }
            }
            events.push_back(event);
            begin = end;
        };
        for (const std::size_t mark : marks) {
            cut(mark);
        }
        cut(emigrants.size());

        // Exact reservations: the outboxes become the next round's
        // inboxes, so growth slack here would stay resident for the
        // whole of that round.
        for (unsigned d = 0; d < n; ++d) {
            outbox[d].reserve(count[d]);
        }
        for (std::size_t i = 0; i < emigrants.size(); ++i) {
            outbox[dst[i]].push_back(std::move(emigrants[i]));
        }
    }

    /**
     * Price one round's flush events.  Each event costs
     * flush_seconds(records, batches, n); the k-th (0-indexed) of a
     * shard's K events gets a hiding window of (K-1-k)/K of the round
     * span — flushes early in the round have nearly the whole round
     * of stepping left to hide behind, the last one has none.
     * The hidden portion min(cost, window) lands in
     * migration_overlap_seconds; only the residual is charged as
     * migration_wait_seconds, so wait + overlap is always the full
     * flush_seconds of the round's events.
     */
    void
    charge_round_exchange(
        engine::RunStats &total,
        const std::vector<std::vector<FlushEvent>> &events,
        double round_span, unsigned n)
    {
        for (const std::vector<FlushEvent> &shard_events : events) {
            const std::size_t count = shard_events.size();
            for (std::size_t k = 0; k < count; ++k) {
                const FlushEvent &e = shard_events[k];
                total.migrations += e.records;
                total.migration_batches += e.batches;
                const double cost = cost_model.flush_seconds(
                    e.records, e.batches, n);
                const double window =
                    round_span * static_cast<double>(count - 1 - k) /
                    static_cast<double>(count);
                const double hidden = std::min(cost, window);
                total.migration_wait_seconds += cost - hidden;
                total.migration_overlap_seconds += hidden;
            }
        }
    }

    /**
     * Fold one round's time phases into @p total: they take the
     * per-round maximum (shards run those phases concurrently) and the
     * maxima sum across rounds.  Counters accumulate per shard in
     * shard_totals_ and reach @p total in finalize_totals().  Returns
     * the round span — the modeled seconds the round's stepping
     * occupies, max(io/eff, cpu) + wait, i.e. the budget overlapped
     * flushes can hide behind.
     */
    double
    aggregate_round(engine::RunStats &total,
                    const std::vector<engine::RunStats> &round_stats)
    {
        double cpu = 0.0;
        double io = 0.0;
        double wait = 0.0;
        for (std::size_t s = 0; s < round_stats.size(); ++s) {
            cpu = std::max(cpu, round_stats[s].cpu_seconds);
            io = std::max(io, round_stats[s].io_busy_seconds);
            wait = std::max(wait, round_stats[s].io_wait_seconds);
            shard_totals_[s] += round_stats[s];
        }
        total.cpu_seconds += cpu;
        total.io_busy_seconds += io;
        total.io_wait_seconds += wait;
        return std::max(io / core::kAsyncIoEfficiency, cpu) + wait;
    }

    void
    finalize_totals(engine::RunStats &total)
    {
        // Counters sum across shards through RunStats::operator+=, so
        // a new counter is folded without touching this code.  The
        // fields the sharded run sets by its own policy are kept: the
        // label and mode and the per-round time maxima
        // (aggregate_round).
        const engine::RunStats own = total;
        for (const engine::RunStats &s : shard_totals_) {
            total += s;
        }
        total.engine = own.engine;
        total.pipelined = own.pipelined;
        total.io_efficiency = own.io_efficiency;
        total.cpu_seconds = own.cpu_seconds;
        total.io_busy_seconds = own.io_busy_seconds;
        total.io_wait_seconds = own.io_wait_seconds;
        if (shared_budget_ != nullptr) {
            total.peak_memory = shared_budget_->peak();
            return;
        }
        // Private slices are held simultaneously: the footprint is
        // the index plus their sum (each slice's peak is monotone
        // across rounds).
        std::uint64_t peak = index_budget_.peak();
        for (const Shard &shard : shards_) {
            peak += shard.budget->peak();
        }
        total.peak_memory = peak;
    }

    const graph::GraphFile *file_;
    const graph::BlockPartition *partition_;
    core::EngineConfig config_;
    ShardPlan plan_;
    /** Fork-join pool for the shard round (distinct from the engines'
     *  step pools: nested run() on one pool would deadlock). */
    util::ThreadPool shard_pool_;
    std::vector<Shard> shards_;
    util::MemoryBudget *shared_budget_ = nullptr;
    /** The whole memory_budget; holds only the shared index charge
     *  (private-slice mode), so its peak is what the index adds. */
    util::MemoryBudget index_budget_;

    std::uint64_t rounds_ = 0;
    std::vector<engine::RunStats> shard_totals_;
};

} // namespace noswalker::shard
