/**
 * @file
 * The three walk workloads: rw-ooc and rw-inmem drive
 * core::NosWalkerEngine with apps::BasicRandomWalk, n2v-shard2 drives
 * shard::ShardedEngine with apps::Node2Vec.  Each is a closed loop of
 * one client that submits one whole walk job (one run() call) at a
 * time on a K30' twin read from a real file.
 */
#include <algorithm>
#include <cstdio>
#include <memory>

#include "apps/basic_rw.hpp"
#include "apps/node2vec.hpp"
#include "common.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/datasets.hpp"
#include "layer_metrics.hpp"
#include "shard/sharded_engine.hpp"
#include "util/timer.hpp"

namespace perfbench {
namespace {

using noswalker::engine::RunStats;
using noswalker::graph::kInvalidVertex;
using noswalker::graph::VertexId;
using noswalker::graph::VertexView;
using noswalker::util::Rng;

/** Every kPathEvery-th walker records its whole path. */
constexpr std::uint64_t kPathEvery = 1024;

/** Walk output: every endpoint, plus the paths of sampled walkers. */
class WalkRecord {
  public:
    void
    reset(std::uint64_t walkers, std::uint32_t length)
    {
        stride_ = length + 1;
        endpoints.assign(walkers, kInvalidVertex);
        paths.assign((walkers + kPathEvery - 1) / kPathEvery * stride_,
                     kInvalidVertex);
    }

    void
    start(std::uint64_t id, VertexId v)
    {
        endpoints[id] = v;
        if (id % kPathEvery == 0) {
            paths[id / kPathEvery * stride_] = v;
        }
    }

    void
    move(std::uint64_t id, std::uint32_t step, VertexId v)
    {
        endpoints[id] = v;
        if (id % kPathEvery == 0) {
            paths[id / kPathEvery * stride_ + step] = v;
        }
    }

    std::uint64_t
    digest() const
    {
        const std::uint64_t h =
            fnv1a(endpoints.data(), endpoints.size() * sizeof(VertexId));
        return fnv1a(paths.data(), paths.size() * sizeof(VertexId), h);
    }

    std::size_t stride() const { return stride_; }

    // Each walker writes only its own slots, and a walker is stepped
    // by one thread at a time, so concurrent steps never share a slot.
    std::vector<VertexId> endpoints;
    std::vector<VertexId> paths;

  private:
    std::size_t stride_ = 1;
};

/** apps::BasicRandomWalk, recording its output. */
class RecordedWalk {
  public:
    using WalkerT = noswalker::apps::BasicRandomWalk::WalkerT;

    RecordedWalk(noswalker::apps::BasicRandomWalk inner, WalkRecord &record)
        : inner_(inner), record_(&record)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        WalkerT w = inner_.generate(n);
        record_->start(w.id, w.location);
        return w;
    }

    VertexId
    sample(const VertexView &view, Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const VertexView &view, Rng probe) const
    {
        return inner_.gather(w, view, probe);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, VertexId next, Rng &rng)
    {
        const bool moved = inner_.action(w, next, rng);
        record_->move(w.id, w.step, w.location);
        return moved;
    }

  private:
    noswalker::apps::BasicRandomWalk inner_;
    WalkRecord *record_;
};

static_assert(noswalker::engine::DrawHintApp<RecordedWalk>);

/** apps::Node2Vec, recording every accepted move. */
class RecordedNode2Vec {
  public:
    using WalkerT = noswalker::apps::Node2Vec::WalkerT;

    RecordedNode2Vec(noswalker::apps::Node2Vec inner, WalkRecord &record)
        : inner_(inner), record_(&record)
    {
    }

    WalkerT
    generate(std::uint64_t n)
    {
        WalkerT w = inner_.generate(n);
        record_->start(w.id, w.location);
        return w;
    }

    VertexId
    sample(const VertexView &view, Rng &rng)
    {
        return inner_.sample(view, rng);
    }

    unsigned
    gather(const WalkerT &w, const VertexView &view) const
    {
        return inner_.gather(w, view);
    }

    bool active(const WalkerT &w) const { return inner_.active(w); }

    bool
    action(WalkerT &w, VertexId next, Rng &rng)
    {
        return inner_.action(w, next, rng);
    }

    bool has_candidate(const WalkerT &w) const
    {
        return inner_.has_candidate(w);
    }

    VertexId candidate(const WalkerT &w) const
    {
        return inner_.candidate(w);
    }

    bool
    rejection(WalkerT &w, const VertexView &view, Rng &rng)
    {
        const bool accepted = inner_.rejection(w, view, rng);
        if (accepted) {
            record_->move(w.id, w.step, w.location);
        }
        return accepted;
    }

  private:
    noswalker::apps::Node2Vec inner_;
    WalkRecord *record_;
};

static_assert(noswalker::engine::SecondOrderApp<RecordedNode2Vec>);
static_assert(noswalker::engine::GatherHintApp<RecordedNode2Vec>);

/** Sizing of one walk workload. */
struct WalkParams {
    unsigned scale = 18;
    /** Memory budget as a share of file bytes (0 = unlimited). */
    double budget_fraction = 0.0;
    std::uint32_t walkers_per_vertex = 1;
    std::uint32_t length = 40;
    unsigned step_threads = 1;
    unsigned shards = 1;
};

WalkParams
params_for(const Options &opts)
{
    WalkParams p;
    if (opts.workload == "rw-ooc") {
        p = {18, 0.12, 1, 40, 2, 1};
    } else if (opts.workload == "rw-inmem") {
        p = {18, 0.0, 8, 20, 2, 1};
    } else {
        p = {17, 0.25, 2, 40, 1, 2};
    }
    if (opts.smoke) {
        p.scale = 12;
    }
    return p;
}

/** One run() call and what the benchmark saw of it. */
struct RunOutcome {
    RunStats stats;
    double wall_s = 0.0;
    double rss_mib = 0.0;
    TimedDevice::Counts counts;
    std::uint64_t span_id = 0;
    std::uint64_t digest = 0;
    std::uint64_t rounds = 0;
    double shard_imbalance = 0.0;
    double steal = 0.0; ///< steal share while the job ran
};

template <typename Engine> constexpr bool kSharded = false;
template <typename A>
constexpr bool kSharded<noswalker::shard::ShardedEngine<A>> = true;

template <typename App>
App
make_app(const WalkParams &p, VertexId nv, std::uint64_t seed,
         WalkRecord &record)
{
    if constexpr (std::is_same_v<App, RecordedWalk>) {
        return App(noswalker::apps::BasicRandomWalk(p.length, nv, true, seed),
                   record);
    } else {
        return App(noswalker::apps::Node2Vec(2.0, 0.5, p.length, nv,
                                             p.walkers_per_vertex),
                   record);
    }
}

template <typename App, typename Engine>
Result
drive(const Options &opts, const WalkParams &p)
{
    constexpr bool sharded = kSharded<Engine>;
    const char *run_span = sharded ? "shard.run" : "core.run";
    Result r;
    Tracer tracer(opts.trace);
    const std::string path = opts.work_dir + "/" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".graph";

    // Twin generation stands in for a dataset download: traced, but
    // not part of setup_s.
    noswalker::graph::CsrGraph csr;
    {
        Span span(tracer, "graph.generate");
        csr = noswalker::graph::build_dataset(
            noswalker::graph::DatasetId::kKron30, p.scale, opts.seed);
    }

    GraphSetup setup;
    noswalker::core::EngineConfig cfg;
    std::vector<double> setup_s;
    const int setup_reps = opts.smoke ? 2 : 11;
    for (int i = 0; i < setup_reps; ++i) {
        setup = GraphSetup{};
        Span root(tracer, "setup");
        setup = setup_graph(csr, path, tracer, root.id());
        {
            Span span(tracer, sharded ? "shard.construct" : "core.construct",
                      root.id());
            const std::uint64_t budget =
                p.budget_fraction > 0.0
                    ? static_cast<std::uint64_t>(
                          p.budget_fraction *
                          static_cast<double>(setup.file->file_bytes()))
                    : 0;
            cfg = noswalker::core::EngineConfig::full(
                budget, setup.partition->target_block_bytes());
            cfg.step_threads = p.step_threads;
            cfg.num_shards = p.shards;
            cfg.seed = opts.seed;
            const Engine engine(*setup.file, *setup.partition, cfg);
        }
        setup_s.push_back(root.close());
    }
    r.check(file_matches(setup, csr),
            "graph file does not match the reference CSR");
    const VertexId nv = csr.num_vertices();
    // Path checks read the verified file from here on; dropping the
    // reference keeps it out of the measured peak RSS.
    csr = noswalker::graph::CsrGraph{};

    const std::uint64_t walkers =
        static_cast<std::uint64_t>(nv) * p.walkers_per_vertex;
    WalkRecord record;
    std::uint64_t first_digest = 0;
    std::uint64_t runs = 0;

    // Every job gets a fresh engine, so every repetition starts from
    // the same state (a reused NosWalkerEngine can drift from its
    // first run; see README.md, "Known defects").
    const auto one_run = [&]() {
        record.reset(walkers, p.length);
        App app = make_app<App>(p, nv, opts.seed, record);
        const auto engine =
            std::make_unique<Engine>(*setup.file, *setup.partition, cfg);
        RunOutcome out;
        setup.device->reset_counts();
        reset_peak_rss();
        const CpuTicks ticks = cpu_ticks();
        Span span(tracer, run_span);
        tracer.set_context(span.id());
        out.stats = engine->run(app, walkers);
        out.wall_s = span.close();
        out.steal = steal_share(ticks, cpu_ticks());
        tracer.set_context(0);
        out.rss_mib = peak_rss_mib();
        out.counts = setup.device->counts();
        out.span_id = span.id();
        out.digest = record.digest();
        if constexpr (sharded) {
            out.rounds = engine->rounds();
            double max_cpu = 0.0;
            double sum_cpu = 0.0;
            for (const RunStats &s : engine->shard_stats()) {
                max_cpu = std::max(max_cpu, s.cpu_seconds);
                sum_cpu += s.cpu_seconds;
            }
            const double mean =
                sum_cpu / static_cast<double>(engine->shard_stats().size());
            out.shard_imbalance = mean > 0.0 ? max_cpu / mean : 0.0;
        }

        ++runs;
        r.attempted += walkers;
        if (out.stats.walkers != walkers) {
            r.failed += walkers - std::min(walkers, out.stats.walkers);
            r.failures.push_back("run retired " +
                                 std::to_string(out.stats.walkers) + " of " +
                                 std::to_string(walkers) + " walkers");
        }
        r.check(out.counts.bytes == out.stats.graph_bytes_read &&
                    out.counts.reads == out.stats.graph_read_requests,
                "storage wrapper counts differ from RunStats");
        if (runs == 1) {
            first_digest = out.digest;
        }
        r.check(out.digest == first_digest,
                "walk output differs between repetitions of one seed");
        return out;
    };
    // Jobs run until `seconds` have passed and min_runs are done.  A
    // job during which the hypervisor stole more than kMaxStealShare
    // is kept out of the figures; while fewer than min_runs jobs were
    // quiet, the loop runs on, up to 1.5 × seconds.
    std::vector<double> job_steal;
    const auto timed = [&](double seconds, std::size_t min_runs) {
        std::vector<RunOutcome> outs;
        std::vector<RunOutcome> quiet;
        noswalker::util::Timer t;
        while (outs.size() < min_runs || t.seconds() < seconds ||
               (quiet.size() < min_runs && t.seconds() < 1.5 * seconds)) {
            outs.push_back(one_run());
            job_steal.push_back(outs.back().steal);
            if (outs.back().steal <= kMaxStealShare) {
                quiet.push_back(outs.back());
            }
        }
        return quiet.empty() ? outs : quiet;
    };

    // The first run in a process is slower (page faults, pool start):
    // warm up before timing.
    tracer.set_enabled(false);
    one_run();

    const auto steps_per_s = [](const std::vector<RunOutcome> &outs) {
        std::vector<double> v;
        for (const RunOutcome &o : outs) {
            v.push_back(static_cast<double>(o.stats.steps) / o.wall_s);
        }
        return median(v);
    };

    std::vector<RunOutcome> outs;
    double untraced_rate = 0.0;
    const CpuTicks ticks_before = cpu_ticks();
    if (opts.trace) {
        untraced_rate = steps_per_s(timed(opts.seconds / 2, 2));
        tracer.set_enabled(true);
        outs = timed(opts.seconds / 2, 2);
        tracer.set_enabled(false);
    } else {
        outs = timed(opts.seconds, 3);
    }
    r.meta.emplace_back("steal_share",
                        std::to_string(steal_share(ticks_before, cpu_ticks())));
    std::string steals;
    for (double s : job_steal) {
        steals += (steals.empty() ? "" : ", ") + std::to_string(s);
    }
    r.meta.emplace_back("job_steal_shares", "[" + steals + "]");

    {
        EdgeChecker checker(path);
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i + record.stride() <= record.paths.size();
             i += record.stride()) {
            bad += checker.valid_path(&record.paths[i], record.stride()) ? 0
                                                                         : 1;
        }
        r.check(bad == 0, std::to_string(bad) +
                              " sampled walks are not paths of the graph");
    }
    const double resident = page_cache_resident(path);
    r.meta.emplace_back("page_cache_resident", std::to_string(resident));
    r.meta.emplace_back("runs", std::to_string(runs));

    if (!opts.trace) {
        std::vector<double> modeled, bytes_per_step, rss, wall;
        for (const RunOutcome &o : outs) {
            modeled.push_back(o.stats.modeled_seconds());
            bytes_per_step.push_back(
                static_cast<double>(o.stats.graph_bytes_read) /
                static_cast<double>(o.stats.steps));
            rss.push_back(o.rss_mib);
            wall.push_back(o.wall_s);
        }
        double wall_sum = 0.0;
        for (double w : wall) {
            wall_sum += w;
        }
        r.add("steps_per_s", steps_per_s(outs), "steps/s");
        r.add("modeled_s", median(modeled), "s");
        r.add("io_bytes_per_step", median(bytes_per_step), "B/step");
        r.add("peak_rss_mib", median(rss), "MiB");
        r.add("setup_s", median(setup_s), "s");
        r.add("req_p50_ms", median(wall) * 1e3, "ms");
        r.add("sat_rps", static_cast<double>(outs.size()) / wall_sum,
              "req/s");
        r.meta.emplace_back("jobs_used", std::to_string(outs.size()));
    } else {
        LayerMetrics layers;
        add_graph_metrics(layers, tracer);
        const std::vector<SpanRecord> spans = tracer.spans();
        std::vector<double> read_us; // reads of the traced jobs only
        std::vector<LayerMetrics> per_run;
        std::vector<double> wall;
        std::uint64_t inflight_max = 0;
        for (const RunOutcome &o : outs) {
            LayerMetrics m;
            double busy = 0.0;
            for (const SpanRecord &s : spans) {
                if (s.parent == o.span_id &&
                    std::string_view(s.name) == "storage.read") {
                    busy += s.seconds();
                    read_us.push_back(s.seconds() * 1e6);
                }
            }
            m.set("storage.reads", static_cast<double>(o.counts.reads),
                  "count");
            m.set("storage.read_mib",
                  static_cast<double>(o.counts.bytes) / (1 << 20), "MiB");
            m.set("storage.read_busy_s", busy, "s");
            add_core_metrics(m, o.stats);
            if constexpr (sharded) {
                m.set("shard.run_s", o.wall_s, "s");
                m.set("shard.rounds", static_cast<double>(o.rounds), "count");
                m.set("shard.imbalance", o.shard_imbalance, "ratio");
                add_migration_metrics(m, o.stats);
            } else {
                m.set("core.run_s", o.wall_s, "s");
            }
            wall.push_back(o.wall_s);
            inflight_max = std::max(inflight_max, o.counts.inflight_max);
            per_run.push_back(std::move(m));
        }
        layers.merge_median(per_run);
        layers.set("storage.read_us_p50", percentile(read_us, 0.50), "us");
        layers.set("storage.read_us_p99", percentile(read_us, 0.99), "us");
        layers.set("storage.reads_inflight_max",
                   static_cast<double>(inflight_max), "count");
        layers.set("req_p99_ms", percentile(wall, 0.99) * 1e3, "ms");
        layers.set("harness.page_cache_resident", resident, "ratio");
        layers.set("harness.trace_overhead",
                   steps_per_s(outs) / untraced_rate, "ratio");
        layers.set("error_ratio",
                   static_cast<double>(r.failed) /
                       static_cast<double>(r.attempted),
                   "ratio");
        layers.append_to(r);
        const std::string trace_path = opts.work_dir + "/trace-" +
                                       opts.workload + "-" +
                                       std::to_string(opts.seed) + ".json";
        r.check(tracer.write_chrome(trace_path), "cannot write the trace");
        r.meta.emplace_back("trace_file", json_string(trace_path));
        r.meta.emplace_back("trace_spans", std::to_string(spans.size()));
    }

    setup = GraphSetup{};
    std::remove(path.c_str());
    return r;
}

/** The walk output and counters of one self-test run. */
struct SideRun {
    RunStats stats;
    std::uint64_t digest = 0;
};

/** One run on @p file; the wrapper's counts cover only the run. */
template <typename App, typename Engine>
SideRun
self_test_run(const noswalker::graph::GraphFile &file,
              const GraphSetup &setup, const WalkParams &p)
{
    noswalker::core::EngineConfig cfg = noswalker::core::EngineConfig::full(
        file.file_bytes() / 4, setup.partition->target_block_bytes());
    cfg.step_threads = p.step_threads;
    cfg.num_shards = p.shards;
    WalkRecord record;
    const std::uint64_t walkers =
        static_cast<std::uint64_t>(file.num_vertices()) * p.walkers_per_vertex;
    record.reset(walkers, p.length);
    App app = make_app<App>(p, file.num_vertices(), 5, record);
    Engine engine(file, *setup.partition, cfg);
    // Both sides start from zeroed counters: the engine reports busy
    // time as a difference of cumulative doubles, which rounds
    // differently from different starting totals.
    file.device().reset_stats();
    setup.device->reset_counts();
    SideRun out;
    out.stats = engine.run(app, walkers);
    out.digest = record.digest();
    return out;
}

template <typename App, typename Engine>
void
compare_devices(const GraphSetup &setup, const WalkParams &p,
                const char *label, std::vector<std::string> &failures)
{
    // The same file, opened once through a bare FileDevice.
    const noswalker::graph::GraphFile bare_file(*setup.file_device);
    const SideRun bare = self_test_run<App, Engine>(bare_file, setup, p);
    const SideRun timed = self_test_run<App, Engine>(*setup.file, setup, p);
    const TimedDevice::Counts counts = setup.device->counts();
    const auto expect = [&](bool ok, const std::string &what) {
        if (!ok) {
            failures.push_back(std::string(label) + ": " + what);
        }
    };
    expect(bare.stats.graph_bytes_read == timed.stats.graph_bytes_read,
           "bytes read differ");
    expect(bare.stats.graph_read_requests == timed.stats.graph_read_requests,
           "read requests differ");
    expect(bare.stats.io_busy_seconds == timed.stats.io_busy_seconds,
           "modeled busy seconds differ");
    expect(bare.digest == timed.digest, "walk output differs");
    expect(counts.bytes == timed.stats.graph_bytes_read &&
               counts.reads == timed.stats.graph_read_requests,
           "wrapper counts differ from RunStats");
    expect(timed.stats.steps > 0, "no steps taken");
}

} // namespace

std::vector<std::string>
device_self_test(const std::string &work_dir)
{
    std::vector<std::string> failures;
    const std::string path = work_dir + "/self-test.graph";
    Tracer tracer(true);
    {
        const noswalker::graph::CsrGraph csr = noswalker::graph::build_dataset(
            noswalker::graph::DatasetId::kKron30, 13, 5);
        const GraphSetup setup = setup_graph(csr, path, tracer, 0);
        if (!file_matches(setup, csr)) {
            failures.push_back("graph file does not match the reference CSR");
        }
        compare_devices<RecordedWalk,
                        noswalker::core::NosWalkerEngine<RecordedWalk>>(
            setup, {13, 0.25, 1, 20, 2, 1}, "basic walk", failures);
        compare_devices<RecordedNode2Vec,
                        noswalker::shard::ShardedEngine<RecordedNode2Vec>>(
            setup, {13, 0.25, 1, 20, 1, 2}, "sharded node2vec", failures);
    }
    if (tracer.durations("storage.read").empty()) {
        failures.push_back("no storage.read spans were recorded");
    }
    std::remove(path.c_str());
    return failures;
}

Result
run_walk_workload(const Options &opts)
{
    const WalkParams p = params_for(opts);
    if (p.shards > 1) {
        return drive<RecordedNode2Vec,
                     noswalker::shard::ShardedEngine<RecordedNode2Vec>>(opts,
                                                                       p);
    }
    return drive<RecordedWalk, noswalker::core::NosWalkerEngine<RecordedWalk>>(
        opts, p);
}

} // namespace perfbench
