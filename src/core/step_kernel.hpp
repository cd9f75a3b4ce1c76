/**
 * @file
 * Interleaved cohort step kernel (DESIGN.md §12) — the engine's only
 * step loop.
 *
 * Walking one record at a time, every step issues a dependent chain
 * of cold reads — the CSR offset entry, then the adjacency/alias
 * lines, then the sampled target — and the core stalls on each miss.
 * ThunderRW showed 3–5× on exactly this loop shape from *step
 * interleaving*: keep a small cohort of walkers in flight and hide one
 * walker's miss behind useful work on the others.
 *
 * This kernel rotates a worker shard's records through a ring of
 * kStepLanes lanes (fewer when the span is shorter).  Each rotation is
 * two stages:
 *
 *   1. **resolve + gather** — for every lane, decide which resident
 *      source will serve the walker's next event (the loaded or a
 *      retained block, a pre-sample reservoir, a direct low-degree
 *      reservation, or a second-order candidate's adjacency), then
 *      issue software prefetches for the bytes the draw will touch.
 *      The event's RNG
 *      is constructed here (one stage early — same per-walker stream
 *      order), so draw-hint apps can dry-run the draw on a copy and
 *      name the *exact* line sample() will read (DrawHintApp); other
 *      apps fall back to head-line hints (GatherHintApp /
 *      gather_prefetch).  Resolution is *pure* apart from the walker's
 *      own rng_state advance: it reads only per-round immutable state
 *      (block residency, published drain snapshots, CSR degrees), so
 *      no lane's resolution depends on another lane's progress.
 *   2. **sample + advance** — consume the prefetched lines: draw from
 *      the walker's private stream, apply the app action, and either
 *      keep the lane (the walker can move again next rotation) or bank
 *      its outcome and refill the lane with the next pending record.
 *
 * Walk output does not depend on the ring width or on how walkers
 * interleave: each walker's own event sequence (decision tree + RNG
 * draws) runs in the same per-walker order whatever its lane; the only
 * cross-walker state touched mid-round is commutative atomics that are
 * never read back before the round barrier (DESIGN.md §9); and retired
 * / parked / emigrant outcomes are banked per input slot, then folded
 * into the StepDelta in walker-index order, so the engine's
 * deterministic worker-order merge sees the same sequence at any
 * width.  The test-side replay oracle (tests/recording_app.hpp) walks
 * each walker straight over the CSR graph and checks this.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/presample_buffer.hpp"
#include "engine/app.hpp"
#include "graph/graph_file.hpp"
#include "storage/block_reader.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"

namespace noswalker::core {

/** Lanes in the step kernel's ring (a shorter span uses one per record). */
inline constexpr std::size_t kStepLanes = 16;

/**
 * The interleaved stepping loop over one worker shard's records.
 *
 * @tparam E  the owning NosWalkerEngine instantiation (friend access:
 *            the kernel reads the engine's resolution helpers and
 *            fills its StepDelta).
 */
template <typename E>
class StepKernel {
  public:
    using App = typename E::AppT;
    using Record = typename E::Record;
    using Delta = typename E::StepDelta;

    /**
     * Step records[begin, end) to their park/retire points through a
     * ring of min(kStepLanes, end - begin) lanes, accumulating into
     * @p delta.  Consumes the records.  Runs on step workers: reads
     * engine state, writes only @p delta, the walkers themselves, and
     * pre-sample atomics.
     */
    static void
    run(E &eng, App &app, std::vector<Record> &records, std::size_t begin,
        std::size_t end, const storage::BlockBuffer *buf, Delta &delta)
    {
        const std::size_t n = end - begin;
        const std::size_t width = n < kStepLanes ? n : kStepLanes;
        std::vector<Outcome> outcomes(n);
        std::vector<Lane> lanes(width);

        std::size_t next = begin;
        std::size_t live = 0;
        for (Lane &lane : lanes) {
            admit(eng, lane, records, next, begin, delta);
            ++live;
        }

        // Distance the resolve stage runs ahead of the execute point.
        // Small on purpose: each resolved lane has 2-4 prefetches in
        // flight, and a core tracks only ~10-12 outstanding fills —
        // resolving the whole ring up front (the naive two-phase shape)
        // would drop most hints at wider rings.
        constexpr std::size_t kLookahead = 4;

        while (live > 0) {
            ++delta.kernel_cohorts;
            // One rotation, software-pipelined: prime a resolve window
            // of kLookahead lanes, then march — execute the lane whose
            // prefetches have had the longest to land, resolve the next
            // unresolved lane behind it.  Every live lane is resolved
            // exactly once before it executes; resolution reads only
            // per-round immutable state (residency, degrees, drain
            // snapshots), so executing lane i never perturbs lane j's
            // resolution and per-walker step order is untouched.
            std::size_t ahead = 0;
            while (ahead < width && ahead < kLookahead) {
                if (lanes[ahead].live) {
                    resolve(eng, app, buf, lanes[ahead], delta);
                }
                ++ahead;
            }
            for (std::size_t i = 0; i < width; ++i) {
                Lane &lane = lanes[i];
                if (lane.live &&
                    !execute(eng, app, lane, delta, outcomes)) {
                    // Lane finished: bank done, pull the next pending
                    // record into the freed lane (resolved next
                    // rotation).
                    if (next < end) {
                        admit(eng, lane, records, next, begin, delta);
                    } else {
                        lane.live = false;
                        --live;
                    }
                }
                if (ahead < width) {
                    if (lanes[ahead].live) {
                        resolve(eng, app, buf, lanes[ahead], delta);
                    }
                    ++ahead;
                }
            }
        }

        // Fold the banked outcomes in walker-index order, so the
        // parked/emigrant sequence — and the downstream worker-order
        // merge — does not depend on how the lanes interleaved.
        for (Outcome &o : outcomes) {
            switch (o.tag) {
            case Outcome::Tag::kNone:
            case Outcome::Tag::kRetired:
                break;
            case Outcome::Tag::kParked:
                delta.parked.emplace_back(o.block, std::move(o.rec));
                break;
            case Outcome::Tag::kEmigrant:
                delta.emigrants.push_back(std::move(o.rec));
                break;
            }
        }
    }

  private:
    /** Which resident source serves the lane's next event. */
    enum class Source : std::uint8_t {
        kUnresolved,
        kBlock,     ///< adjacency from the loaded block buffer
        kPsSample,  ///< reserved pre-sample reservoir draw
        kPsDirect,  ///< low-degree direct reservation view
        kCandidate, ///< second-order rejection trial, view resident
        kRetire,    ///< walker done (inactive or dead end)
        kStall,     ///< no resident source: park or emigrate
    };

    struct Lane {
        std::size_t index = 0; ///< outcome slot (input position)
        Record rec{};
        Source source = Source::kUnresolved;
        graph::VertexView view{};
        PreSampleBuffer *ps = nullptr;
        graph::VertexId v = 0;
        /**
         * The event's RNG, constructed at *resolve* time for sampling
         * sources.  Per-walker stream order is unchanged (resolve and
         * execute of one event are adjacent in the walker's own
         * sequence), and having the generator a stage early lets the
         * gather hooks dry-run the draw on a copy and prefetch the
         * exact line sample() will read (DrawHintApp).
         */
        util::Rng rng{};
        bool ps_visit = false;    ///< record_visit(v) owed on execute
        bool count_stall = false; ///< advance stall (not candidate park)
        bool live = false;
    };

    /** Banked per-walker terminal outcome, folded in input order. */
    struct Outcome {
        enum class Tag : std::uint8_t {
            kNone,
            kRetired,
            kParked,
            kEmigrant,
        };
        Tag tag = Tag::kNone;
        std::uint32_t block = 0;
        Record rec{};
    };

    /** Load records[next] into @p lane and warm its CSR offset entry. */
    static void
    admit(E &eng, Lane &lane, std::vector<Record> &records,
          std::size_t &next, std::size_t begin, Delta &delta)
    {
        lane.index = next - begin;
        lane.rec = std::move(records[next]);
        ++next;
        lane.live = true;
        lane.source = Source::kUnresolved;
        const graph::VertexId v = eng.waiting_vertex_of(lane.rec);
        delta.kernel_prefetches += util::prefetch_range(
            eng.file_->index_entry(v), 2 * sizeof(std::uint32_t), 2);
    }

    /**
     * App-refined (or generic) prefetch of what the draw will read.
     * @p rng is the event's already-constructed generator; draw-hint
     * apps get a copy to dry-run the draw against, so the hint names
     * the exact line rather than the span's head.
     */
    static void
    gather(const App &app, const Record &rec,
           const graph::VertexView &view, const util::Rng &rng,
           Delta &delta)
    {
        if constexpr (engine::kHasDrawHint<App>) {
            delta.kernel_prefetches += app.gather(rec.w, view, rng);
        } else if constexpr (engine::kHasGatherHint<App>) {
            delta.kernel_prefetches += app.gather(rec.w, view);
        } else {
            delta.kernel_prefetches += view.gather_prefetch();
        }
    }

    /**
     * Stage 1 for one lane: the step's decision tree, split from its
     * side effects.  Reads only per-round immutable state, so the
     * resolution is independent of the other lanes' stage-2 progress.
     *
     * Order: a pending second-order candidate is resolved first (its
     * adjacency from a resident block, else a direct reservation);
     * then an inactive walker or a dead end retires; then the loaded
     * or a retained block serves the step when use_loaded_block is on,
     * else the pre-samples, else the block; otherwise the walker
     * parks (or emigrates).
     */
    static void
    resolve(E &eng, App &app, const storage::BlockBuffer *buf, Lane &lane,
            Delta &delta)
    {
        Record &rec = lane.rec;
        lane.ps = nullptr;
        lane.ps_visit = false;
        lane.count_stall = false;
        if constexpr (E::kSecondOrder) {
            if (app.has_candidate(rec.w)) {
                const graph::VertexId c = app.candidate(rec.w);
                if (const storage::BlockBuffer *src =
                        eng.source_for(buf, c)) {
                    lane.source = Source::kCandidate;
                    lane.view = src->view(*eng.file_, c);
                    lane.rng =
                        util::Rng(util::splitmix_next(rec.rng_state));
                    gather(app, rec, lane.view, lane.rng, delta);
                    return;
                }
                if (eng.presample_enabled_) {
                    PreSampleBuffer *ps = eng.find_presamples(
                        eng.partition_->block_of(c));
                    if (ps != nullptr && ps->is_direct(c)) {
                        lane.source = Source::kCandidate;
                        lane.view = ps->direct_view(c);
                        lane.rng =
                            util::Rng(util::splitmix_next(rec.rng_state));
                        gather(app, rec, lane.view, lane.rng, delta);
                        return;
                    }
                }
                lane.source = Source::kStall; // candidate park: no stall
                return;
            }
        }
        if (!app.active(rec.w)) {
            lane.source = Source::kRetire;
            return;
        }
        const graph::VertexId v = rec.w.location;
        lane.v = v;
        if (eng.file_->degree(v) == 0) {
            lane.source = Source::kRetire;
            return;
        }
        const storage::BlockBuffer *src = eng.source_for(buf, v);
        if (eng.config_.use_loaded_block && src != nullptr) {
            lane.source = Source::kBlock;
            lane.view = src->view(*eng.file_, v);
            lane.rng = util::Rng(util::splitmix_next(rec.rng_state));
            gather(app, rec, lane.view, lane.rng, delta);
            return;
        }
        if constexpr (!E::kWalkerAware) {
            if (eng.presample_enabled_) {
                PreSampleBuffer *ps =
                    eng.find_presamples(eng.partition_->block_of(v));
                if (ps != nullptr) {
                    if (ps->is_direct(v)) {
                        lane.source = Source::kPsDirect;
                        lane.view = ps->direct_view(v);
                        lane.rng =
                            util::Rng(util::splitmix_next(rec.rng_state));
                        gather(app, rec, lane.view, lane.rng, delta);
                        return;
                    }
                    if (ps->has(v)) {
                        lane.source = Source::kPsSample;
                        lane.ps = ps;
                        lane.rng =
                            util::Rng(util::splitmix_next(rec.rng_state));
                        delta.kernel_prefetches +=
                            ps->prefetch_draw(v, lane.rng);
                        return;
                    }
                    // Dry reservoir: the stage-2 visit feeds the
                    // rebuild history whether or not the block then
                    // serves the step.
                    lane.ps = ps;
                    lane.ps_visit = true;
                }
            }
        }
        if (!eng.config_.use_loaded_block && src != nullptr) {
            lane.source = Source::kBlock;
            lane.view = src->view(*eng.file_, v);
            lane.rng = util::Rng(util::splitmix_next(rec.rng_state));
            gather(app, rec, lane.view, lane.rng, delta);
            return;
        }
        lane.source = Source::kStall;
        lane.count_stall = true;
        return;
    }

    static void
    count_step(Delta &delta)
    {
        if constexpr (!E::kSecondOrder) {
            ++delta.steps;
        }
    }

    /**
     * The walker just advanced: warm the CSR offset entry of wherever
     * it landed, so the *next* rotation's resolve (degree check + view
     * construction) doesn't take the miss.  admit() covers only a
     * lane's first rotation; this covers every subsequent one.
     */
    static void
    warm_next(E &eng, const Record &rec, Delta &delta)
    {
        delta.kernel_prefetches += util::prefetch_range(
            eng.file_->index_entry(rec.w.location),
            2 * sizeof(std::uint32_t), 2);
    }

    /**
     * Stage 2 for one lane: the side effects of one event against the
     * resolved source.
     * @return true when the walker stays in the lane (moved a step).
     */
    static bool
    execute(E &eng, App &app, Lane &lane, Delta &delta,
            std::vector<Outcome> &outcomes)
    {
        Record &rec = lane.rec;
        switch (lane.source) {
        case Source::kRetire:
            ++delta.retired;
            outcomes[lane.index].tag = Outcome::Tag::kRetired;
            return false;
        case Source::kCandidate:
            if constexpr (E::kSecondOrder) {
                ++delta.rejection_trials;
                util::Rng &rng = lane.rng;
                if (app.rejection(rec.w, lane.view, rng)) {
                    ++delta.steps;
                } else {
                    ++delta.rejection_rejected;
                }
                if (!app.active(rec.w)) {
                    ++delta.retired;
                    outcomes[lane.index].tag = Outcome::Tag::kRetired;
                    return false;
                }
            }
            return true;
        case Source::kBlock: {
            if (lane.ps_visit) {
                lane.ps->record_visit(lane.v);
            }
            util::Rng &rng = lane.rng;
            graph::VertexId next;
            if constexpr (E::kWalkerAware) {
                next = app.sample_for(rec.w, lane.view);
            } else {
                next = app.sample(lane.view, rng);
            }
            app.action(rec.w, next, rng);
            ++delta.block_steps;
            count_step(delta);
            warm_next(eng, rec, delta);
            return true;
        }
        case Source::kPsDirect: {
            util::Rng &rng = lane.rng;
            const graph::VertexId next = app.sample(lane.view, rng);
            app.action(rec.w, next, rng);
            ++delta.presample_steps;
            count_step(delta);
            warm_next(eng, rec, delta);
            return true;
        }
        case Source::kPsSample: {
            util::Rng &rng = lane.rng;
            const graph::VertexId next = lane.ps->sample(lane.v, rng);
            if (app.action(rec.w, next, rng)) {
                lane.ps->consume(lane.v);
            }
            ++delta.presample_steps;
            count_step(delta);
            warm_next(eng, rec, delta);
            return true;
        }
        case Source::kStall: {
            if (lane.ps_visit) {
                lane.ps->record_visit(lane.v);
            }
            const std::uint32_t b =
                eng.partition_->block_of(eng.waiting_vertex_of(rec));
            Outcome &o = outcomes[lane.index];
            if (!eng.owns_block(b)) {
                o.tag = Outcome::Tag::kEmigrant;
            } else {
                o.tag = Outcome::Tag::kParked;
                o.block = b;
                if (lane.count_stall) {
                    ++delta.stalls;
                }
            }
            o.rec = std::move(rec);
            return false;
        }
        case Source::kUnresolved:
            break;
        }
        return false; // unreachable: every live lane is resolved
    }
};

} // namespace noswalker::core
