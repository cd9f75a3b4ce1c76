/**
 * @file
 * Test-only application that records every transition a walker takes,
 * so property tests can assert "every step follows a real edge" and
 * per-walker step-count invariants against the reference CSR; the
 * recording wrappers the bit-identity suites share; and replay_walks,
 * the independent reference for the engine's walk output.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "apps/node2vec.hpp"
#include "apps/ppr.hpp"
#include "engine/app.hpp"
#include "engine/walker.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_file.hpp"
#include "util/rng.hpp"

namespace noswalker::testing_support {

/** Uniform walk that logs (from, to) transitions and per-walker steps. */
class RecordingWalk {
  public:
    using WalkerT = engine::Walker;

    RecordingWalk(std::uint32_t length, graph::VertexId num_vertices)
        : length_(length), num_vertices_(num_vertices)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        util::SplitMix64 mix(n * 77 + 13);
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
        transitions.emplace_back(w.location, next);
        ++steps_per_walker[w.id];
        w.location = next;
        ++w.step;
        return true;
    }

    std::vector<std::pair<graph::VertexId, graph::VertexId>> transitions;
    std::unordered_map<std::uint64_t, std::uint32_t> steps_per_walker;

  private:
    std::uint32_t length_;
    graph::VertexId num_vertices_;
};

static_assert(engine::RandomWalkApp<RecordingWalk>);

/**
 * First-order uniform walk recording endpoints + visit counts, thread
 * safe the way service apps are: each walker owns a private endpoint
 * slot, and visit counters are atomic.  Shared by the parallel-step
 * and step-kernel bit-identity suites.
 */
class ConcurrentRecordingWalk {
  public:
    using WalkerT = engine::Walker;

    ConcurrentRecordingWalk(std::uint32_t length,
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

    /** Draw hint, as BasicRandomWalk's: the bit-identity suites must
     *  exercise the kernel's exact-slot prefetch path. */
    unsigned
    gather(const WalkerT &, const graph::VertexView &view,
           util::Rng probe) const
    {
        return view.prefetch_uniform_draw(probe);
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

static_assert(engine::RandomWalkApp<ConcurrentRecordingWalk>);
static_assert(engine::DrawHintApp<ConcurrentRecordingWalk>);

/**
 * PersonalizedPageRank wrapper recording endpoints and atomic visit
 * counts (the app's own record_visits mode mutates an unordered_map in
 * action() and is not thread safe, so the suites use this instead).
 * Forwards the gather hint, so cohort runs exercise the app-refined
 * prefetch path.
 */
class RecordingPpr {
  public:
    using WalkerT = apps::PersonalizedPageRank::WalkerT;

    RecordingPpr(std::vector<graph::VertexId> sources,
                 std::uint64_t walks_per_source, std::uint32_t length,
                 graph::VertexId num_vertices)
        : visits(num_vertices),
          inner_(std::move(sources), walks_per_source, length)
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

    unsigned
    gather(const WalkerT &w, const graph::VertexView &view) const
    {
        return inner_.gather(w, view);
    }

    unsigned
    gather(const WalkerT &w, const graph::VertexView &view,
           util::Rng probe) const
    {
        return inner_.gather(w, view, probe);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, graph::VertexId next, util::Rng &rng)
    {
        const bool moved = inner_.action(w, next, rng);
        endpoints[w.id] = next;
        visits[next].fetch_add(1, std::memory_order_relaxed);
        return moved;
    }

    std::vector<graph::VertexId> endpoints;
    std::vector<std::atomic<std::uint32_t>> visits;

  private:
    apps::PersonalizedPageRank inner_;
};

static_assert(engine::RandomWalkApp<RecordingPpr>);
static_assert(engine::GatherHintApp<RecordingPpr>);
static_assert(engine::DrawHintApp<RecordingPpr>);

/** Node2Vec wrapper recording the endpoint of every accepted move. */
class RecordingNode2Vec {
  public:
    using WalkerT = apps::Node2Vec::WalkerT;

    RecordingNode2Vec(double p, double q, std::uint32_t length,
                      graph::VertexId num_vertices,
                      std::uint32_t walks_per_vertex)
        : inner_(p, q, length, num_vertices, walks_per_vertex)
    {
        // inner_ is declared after the public vectors; size them here,
        // once every member is constructed.
        endpoints.assign(inner_.total_walkers(), graph::kInvalidVertex);
    }

    std::uint64_t total_walkers() const { return inner_.total_walkers(); }

    WalkerT generate(std::uint64_t n) { return inner_.generate(n); }

    graph::VertexId
    sample(const graph::VertexView &view, util::Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const graph::VertexView &view) const
    {
        return inner_.gather(w, view);
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

static_assert(engine::SecondOrderApp<RecordingNode2Vec>);
static_assert(engine::GatherHintApp<RecordingNode2Vec>);

/** What replay_walks counted, in the engine's RunStats terms. */
struct ReplayTotals {
    std::uint64_t steps = 0;
    std::uint64_t rejection_trials = 0;
};

/**
 * Reference walk output with pre-sampling off, computed without the
 * engine: walkers 0..@p total-1 of @p app walk one at a time straight
 * over @p graph.  Each event draws its generator with one splitmix_next
 * on the walker's stream derive_stream(@p seed, id), in the engine's
 * order: a pending second-order candidate is resolved first, then an
 * inactive walker or a dead end retires, else one step is sampled.
 * Blocks, parking, threads, lanes and shards only decide *when* each
 * event runs, so the engine must reproduce this exactly.
 */
template <engine::RandomWalkApp App>
ReplayTotals
replay_walks(const graph::CsrGraph &graph, App &app, std::uint64_t total,
             std::uint64_t seed)
{
    static_assert(!engine::kIsWalkerAware<App>);
    const auto view_of = [&graph](graph::VertexId v) {
        graph::VertexView view;
        view.id = v;
        view.targets = graph.neighbors(v);
        view.weights = graph.weights(v);
        return view;
    };
    ReplayTotals totals;
    for (std::uint64_t id = 0; id < total; ++id) {
        typename App::WalkerT w = app.generate(id);
        std::uint64_t stream = util::derive_stream(seed, id);
        for (;;) {
            if constexpr (engine::kIsSecondOrder<App>) {
                if (app.has_candidate(w)) {
                    util::Rng rng(util::splitmix_next(stream));
                    ++totals.rejection_trials;
                    if (app.rejection(w, view_of(app.candidate(w)), rng)) {
                        ++totals.steps;
                    }
                    if (!app.active(w)) {
                        break;
                    }
                    continue;
                }
            }
            if (!app.active(w) || graph.degree(w.location) == 0) {
                break;
            }
            util::Rng rng(util::splitmix_next(stream));
            const graph::VertexId next =
                app.sample(view_of(w.location), rng);
            app.action(w, next, rng);
            if constexpr (!engine::kIsSecondOrder<App>) {
                ++totals.steps;
            }
        }
    }
    return totals;
}

/**
 * A memory budget that is genuinely out-of-core (a fraction of the file)
 * but never below the engine's fixed floor (CSR index + two block
 * buffers + working slack), which dominates at unit-test graph sizes.
 */
inline std::uint64_t
tight_budget(const graph::GraphFile &file,
             const graph::BlockPartition &partition, double fraction = 0.33)
{
    const std::uint64_t page = 4096;
    const std::uint64_t buffers =
        2 * ((partition.max_block_bytes() / page + 2) * page);
    const std::uint64_t floor =
        file.index_bytes() + buffers + 48 * 1024;
    const auto frac = static_cast<std::uint64_t>(
        fraction * static_cast<double>(file.file_bytes()));
    return std::max(floor, frac);
}

} // namespace noswalker::testing_support
