/**
 * @file
 * Compact pre-sampled-edge buffer (§3.3.2 — §3.3.4).
 *
 * One buffer serves one coarse block's vertex range.  Layout mirrors
 * the paper's Figure 8: a meta array of (idx, cnt) per vertex and a
 * flat edges array holding each vertex's pre-sampled destinations
 * contiguously.  cnt counts consumed samples *and* stall visits, so it
 * doubles as the visit-frequency estimate the rebuild step uses to
 * reallocate quotas proportionally.
 *
 * Consumption model: a filled vertex's slots form a bootstrap
 * reservoir for the current buffer generation — each walker draws a
 * slot *with replacement* using its own deterministic RNG stream, and
 * consume() advances an atomic per-vertex cursor.  Drawing from the
 * walker's stream instead of handing out slots in arrival order is
 * what makes walk output independent of how walkers interleave across
 * step threads.  Drying is *snapshot-published*: has() compares the
 * vertex's quota against a drain snapshot that publish_drain() copies
 * from the live cursors, and the engine publishes only at shard
 * barriers (between step rounds).  Every walker in a round therefore
 * sees the same availability state — the round in which a vertex runs
 * dry depends on deterministic per-round draw totals, never on thread
 * interleaving — while a dried vertex still stalls walkers until its
 * block reloads and a fresh generation re-samples it, bounding how
 * long any reservoir can serve (the paper's §3.3.2 consume-once queue
 * gives the same bound; the with-replacement + snapshot variant trades
 * a small per-round overshoot for thread-count determinism; see
 * DESIGN.md).
 *
 * Low-degree vertices (§3.3.4) get their full edge list "reserved"
 * instead of samples: their slots hold the real adjacency (plus weights
 * on weighted graphs) and never run dry — the engine re-samples from
 * the reserved view on every visit.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "util/memory_budget.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace noswalker::core {

/** Per-block pre-sample store. */
class PreSampleBuffer {
  public:
    /** Allocation inputs for (re)building a buffer. */
    struct BuildParams {
        /** Byte cap for this buffer (meta + slots). */
        std::uint64_t max_bytes = 0;
        /** Baseline samples per (visited) vertex. */
        std::uint32_t base_quota = 4;
        /** Cap on samples for one vertex. */
        std::uint32_t max_quota = 64;
        /** Degree at or below which edges are reserved directly. */
        std::uint32_t low_degree_cutoff = 2;
    };

    /** A buffer's quotas, planned before any storage is allocated. */
    struct Plan {
        std::uint32_t block_id = 0;
        graph::VertexId first_vertex = 0;
        bool weighted = false;
        std::vector<std::uint32_t> idx;   ///< slot offsets, size nv+1
        std::vector<std::uint8_t> direct; ///< full-edge reservation flag
        /** What the buffer will reserve: meta arrays plus slots. */
        std::uint64_t bytes = 0;
    };

    /**
     * Plan the quotas for @p block of @p file.
     *
     * @param previous  the block's previous buffer generation (or null);
     *                  its cnt values weight the new quotas.
     * @return a plan with bytes <= params.max_bytes, or std::nullopt
     *         when the meta arrays plus the direct (full-edge)
     *         reservations alone do not fit it: no amount of freed
     *         pool memory can make such a plan fit.
     */
    static std::optional<Plan> plan(const graph::GraphFile &file,
                                    const graph::BlockInfo &block,
                                    const BuildParams &params,
                                    const PreSampleBuffer *previous);

    /**
     * Allocate a planned buffer, reserving plan.bytes from @p budget.
     * @throws util::BudgetExceeded when they do not fit.
     *
     * After construction the buffer is *planned but unfilled*: the
     * engine streams the block once and calls fill_vertex per vertex
     * (different vertices may be filled from different threads).
     */
    PreSampleBuffer(Plan plan, util::MemoryBudget &budget);

    /**
     * Plan and allocate in one step.
     * @throws util::BudgetExceeded when plan() finds no plan or the
     *         planned bytes do not fit @p budget.
     */
    PreSampleBuffer(const graph::GraphFile &file,
                    const graph::BlockInfo &block, const BuildParams &params,
                    const PreSampleBuffer *previous,
                    util::MemoryBudget &budget);

    /** Block this buffer serves. */
    std::uint32_t block_id() const { return block_id_; }

    /** First vertex of the served range. */
    graph::VertexId first_vertex() const { return first_vertex_; }

    /** Vertices in the served range. */
    graph::VertexId
    num_vertices() const
    {
        return static_cast<graph::VertexId>(idx_.size() - 1);
    }

    /** Slots allocated to @p v (0 when none). */
    std::uint32_t
    quota(graph::VertexId v) const
    {
        const std::size_t i = index_of(v);
        return idx_[i + 1] - idx_[i];
    }

    /**
     * Fill vertex @p v's slots from its loaded adjacency.
     * Direct vertices copy edges (and weights); sampled vertices invoke
     * @p sampler quota times.  @p sampler is `app.sample` bound to an
     * rng.  Thread safe across *distinct* vertices (disjoint ranges).
     */
    template <typename Sampler>
    void
    fill_vertex(const graph::VertexView &view, Sampler &&sampler)
    {
        const std::size_t i = index_of(view.id);
        const std::uint32_t slots = idx_[i + 1] - idx_[i];
        if (slots == 0) {
            return;
        }
        cnt_[i].store(0, std::memory_order_relaxed);
        filled_[i] = 1;
        graph::VertexId *out = edges_.data() + idx_[i];
        if (direct_[i]) {
            for (std::uint32_t k = 0; k < slots; ++k) {
                out[k] = view.targets[k];
            }
            if (!dweights_.empty() && !view.weights.empty()) {
                graph::Weight *w = dweights_.data() + idx_[i];
                for (std::uint32_t k = 0; k < slots; ++k) {
                    w[k] = view.weights[k];
                }
            }
        } else {
            for (std::uint32_t k = 0; k < slots; ++k) {
                out[k] = sampler(view);
            }
        }
    }

    /**
     * True when @p v can serve a draw: filled this generation and not
     * yet dry *as of the last published drain snapshot*.  Direct
     * vertices never dry (they hold the real adjacency, §3.3.4).
     */
    bool
    has(graph::VertexId v) const
    {
        const std::size_t i = index_of(v);
        if (filled_[i] == 0) {
            return false;
        }
        if (direct_[i]) {
            return true;
        }
        return snap_[i] < idx_[i + 1] - idx_[i];
    }

    /**
     * Publish the live consumption cursors into the drain snapshot
     * has() consults.  Scheduler thread only, between step rounds: the
     * pool's fork-join barrier orders these plain writes against the
     * workers' reads, and round-granular visibility is what keeps the
     * drying point identical at any step-thread count.
     */
    void
    publish_drain()
    {
        // Every cursor bump also bumps consumed_ or stalled_, so an
        // unchanged total means the snapshot is already current.
        const std::uint64_t moves =
            consumed_.load(std::memory_order_relaxed) +
            stalled_.load(std::memory_order_relaxed);
        if (moves == published_moves_) {
            return;
        }
        published_moves_ = moves;
        for (std::size_t i = 0; i < snap_.size(); ++i) {
            snap_[i] = cnt_[i].load(std::memory_order_relaxed);
        }
    }

    /** True when @p v's full edge list is reserved (§3.3.4). */
    bool
    is_direct(graph::VertexId v) const
    {
        const std::size_t i = index_of(v);
        return filled_[i] && direct_[i];
    }

    /**
     * Reserved-edge view of a direct vertex (targets + weights when the
     * graph is weighted).  @pre is_direct(v).
     */
    graph::VertexView direct_view(graph::VertexId v) const;

    /**
     * Draw one pre-sample of @p v using the walker's own stream.
     * @pre has(v) && !is_direct(v).
     */
    graph::VertexId
    sample(graph::VertexId v, util::Rng &rng) const
    {
        const std::size_t i = index_of(v);
        const std::uint32_t begin = idx_[i];
        const std::uint32_t n = idx_[i + 1] - begin;
        return edges_[begin + rng.next_index(n)];
    }

    /**
     * Hint @p v's slot storage ahead of a sample()/direct_view() draw
     * — the step kernel's gather stage for pre-sample-served lanes
     * (DESIGN.md §12).  Pure read hint; never touches cursors.
     * @return the number of hints issued.
     */
    unsigned
    prefetch_slots(graph::VertexId v, unsigned max_lines = 2) const
    {
        const std::size_t i = index_of(v);
        const std::uint32_t begin = idx_[i];
        const std::uint32_t slots = idx_[i + 1] - begin;
        if (slots == 0) {
            return 0;
        }
        return util::prefetch_range(
            edges_.data() + begin,
            std::size_t{slots} * sizeof(graph::VertexId), max_lines);
    }

    /**
     * Exact-slot variant of prefetch_slots: dry-run the draw on
     * @p probe — a copy of the exact per-event stream sample() will
     * consume — and hint the one slot it lands on (DESIGN.md §12).
     * Pure read hint; never touches cursors.
     * @return the number of hints issued.  @pre has(v) && !is_direct(v).
     */
    unsigned
    prefetch_draw(graph::VertexId v, util::Rng probe) const
    {
        const std::size_t i = index_of(v);
        const std::uint32_t begin = idx_[i];
        const std::uint32_t n = idx_[i + 1] - begin;
        util::prefetch_line(&edges_[begin + probe.next_index(n)]);
        return 1;
    }

    /** Account one consumed draw of @p v (thread safe). */
    void
    consume(graph::VertexId v)
    {
        cnt_[index_of(v)].fetch_add(1, std::memory_order_relaxed);
        consumed_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Fraction of allocated (non-direct) slots consumed so far (may
     *  exceed 1: draws are with replacement). */
    double
    consumed_fraction() const
    {
        const std::uint64_t slots = edges_.size();
        return slots == 0
                   ? 1.0
                   : static_cast<double>(
                         consumed_.load(std::memory_order_relaxed)) /
                         static_cast<double>(slots);
    }

    /** Record a visit that found no sample (stall); feeds the history.
     *  Thread safe. */
    void
    record_visit(graph::VertexId v)
    {
        cnt_[index_of(v)].fetch_add(1, std::memory_order_relaxed);
        stalled_.fetch_add(1, std::memory_order_relaxed);
    }

    /** Stall visits since this buffer generation was built — the
     *  unmet-demand signal the engine's rebuild heuristic uses. */
    std::uint64_t
    stall_count() const
    {
        return stalled_.load(std::memory_order_relaxed);
    }

    /** Total slots allocated in this generation. */
    std::uint64_t slot_count() const { return edges_.size(); }

    /** Visit/consumption history of @p v (the rebuild weight). */
    std::uint32_t
    visits(graph::VertexId v) const
    {
        return cnt_[index_of(v)].load(std::memory_order_relaxed);
    }

    /** Bytes reserved against the budget. */
    std::uint64_t memory_bytes() const { return reservation_.bytes(); }

  private:
    std::size_t
    index_of(graph::VertexId v) const
    {
        return static_cast<std::size_t>(v - first_vertex_);
    }

    std::uint32_t block_id_ = 0;
    graph::VertexId first_vertex_ = 0;
    bool weighted_ = false;
    std::vector<std::uint32_t> idx_; ///< size nv+1
    /** Consumed draws + stall visits per vertex (atomic cursors). */
    std::vector<std::atomic<std::uint32_t>> cnt_;
    /** Drain snapshot has() reads (see publish_drain). */
    std::vector<std::uint32_t> snap_;
    std::vector<std::uint8_t> direct_;   ///< full-edge reservation flag
    std::vector<std::uint8_t> filled_;   ///< fill_vertex completed
    std::vector<graph::VertexId> edges_; ///< slot storage
    std::vector<graph::Weight> dweights_; ///< weights for direct slots
    std::atomic<std::uint64_t> consumed_{0}; ///< total draws (drain estimate)
    std::atomic<std::uint64_t> stalled_{0};  ///< stall visits since build
    /** consumed_ + stalled_ at the last publish_drain(). */
    std::uint64_t published_moves_ = 0;
    util::Reservation reservation_;
};

} // namespace noswalker::core
