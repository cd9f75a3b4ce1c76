/**
 * @file
 * The svc-open workload: service::WalkService over a K30' twin file,
 * driven by a single-process generator — one submit thread and one
 * collector thread that polls tickets.  An open-loop Poisson phase at a
 * fixed rate gives request latency; a closed-loop phase with a fixed
 * number of outstanding requests gives the saturated request rate.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "graph/datasets.hpp"
#include "layer_metrics.hpp"
#include "service/walk_service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using noswalker::graph::GraphFile;
using noswalker::graph::VertexId;
using noswalker::service::WalkKind;
using noswalker::service::WalkRequest;
using noswalker::service::WalkResult;
using noswalker::service::WalkService;
using noswalker::service::WalkTicket;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1 << 20;
/** Open-loop arrival rate of the latency phase, requests/second. */
constexpr double kOpenRate = 400.0;
/** Outstanding requests of the closed-loop phase. */
constexpr std::size_t kOutstanding = 16;
/** Latency objective of the diagnostic max-rate ladder. */
constexpr double kSloSeconds = 0.050;
/** OK results kept per phase for the max_batch = 1 resubmission. */
constexpr std::size_t kResubmitSample = 16;
/** Longest the collector blocks on one ticket before sweeping all. */
constexpr double kPollSeconds = 200e-6;

/**
 * Deterministic request stream: 4 tenants sending endpoint, path and
 * top-k requests (the bench/service_throughput mix) from Zipf-skewed
 * start vertices.  Request @p i is a pure function of (seed, i).
 */
class RequestMaker {
  public:
    RequestMaker(const GraphFile &file, std::uint64_t seed) : seed_(seed)
    {
        for (VertexId v = 0; v < file.num_vertices(); ++v) {
            if (file.degree(v) > 0) {
                hot_.push_back(v);
            }
        }
        noswalker::util::Rng rng(noswalker::util::derive_stream(seed, 0x5a));
        for (std::size_t i = hot_.size(); i > 1; --i) {
            std::swap(hot_[i - 1], hot_[rng.next_index(i)]);
        }
        double total = 0.0;
        cdf_.reserve(hot_.size());
        for (std::size_t rank = 1; rank <= hot_.size(); ++rank) {
            total += 1.0 / static_cast<double>(rank);
            cdf_.push_back(total);
        }
    }

    WalkRequest
    make(std::uint64_t index) const
    {
        noswalker::util::Rng rng(
            noswalker::util::derive_stream(seed_, 1000 + index));
        WalkRequest r;
        r.seed = rng();
        r.tenant = rng.next_index(4);
        r.length = 8 + static_cast<std::uint32_t>(rng.next_index(9));
        switch (rng.next_index(3)) {
        case 0:
            r.kind = WalkKind::kEndpoints;
            r.starts = {start(rng), start(rng)};
            r.walks_per_start = 8;
            break;
        case 1:
            r.kind = WalkKind::kPaths;
            r.starts = {start(rng)};
            r.walks_per_start = 4;
            break;
        default:
            r.kind = WalkKind::kVisitCounts;
            r.starts = {start(rng)};
            r.walks_per_start = 16;
            r.top_k = 16;
            break;
        }
        return r;
    }

  private:
    VertexId
    start(noswalker::util::Rng &rng) const
    {
        const double u = rng.next_double(cdf_.back());
        const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
        return hot_[std::min<std::size_t>(it - cdf_.begin(),
                                          hot_.size() - 1)];
    }

    std::uint64_t seed_;
    std::vector<VertexId> hot_;  ///< vertices with out-edges, shuffled
    std::vector<double> cdf_;    ///< Zipf(1) over hot_ ranks
};

/** What one generator phase saw. */
struct Phase {
    double wall_s = 0.0;
    std::uint64_t submitted = 0;
    std::uint64_t ok = 0;
    std::uint64_t steps = 0;
    /** (seconds from the phase start, steps) of each OK completion. */
    std::vector<std::pair<double, std::uint64_t>> done;
    std::vector<double> latency_s; ///< due → completion seen, OK only
    std::vector<double> due_s;     ///< due time from the phase start
    std::vector<double> late_s;    ///< submit start − due
    std::vector<double> submit_s;  ///< time inside WalkService::submit
    std::vector<double> wait_s;    ///< WalkResult::wait_seconds
    std::vector<double> run_s;     ///< WalkResult::run_seconds
    std::vector<double> modeled_s; ///< per-request modeled seconds
    std::size_t depth_max = 0;
    noswalker::engine::RunStats stats; ///< sum of per-request slices
    std::vector<std::string> failures;
    /** Paths of every kPaths result, with the request's step bound. */
    std::vector<std::pair<std::vector<VertexId>, std::uint32_t>> paths;
    /** The first OK results, kept for the resubmission check. */
    std::vector<std::pair<std::uint64_t, WalkResult>> sample;
};

struct InFlight {
    WalkTicket ticket;
    std::uint64_t index = 0;
    Clock::time_point due;
    Clock::time_point submitted;
};

/** Check one OK result's shape; record kPaths paths for later. */
void
inspect(const WalkRequest &req, const WalkResult &res, Phase &phase)
{
    const std::uint64_t walks = req.num_walks();
    switch (req.kind) {
    case WalkKind::kEndpoints:
        if (res.endpoints.size() != walks) {
            phase.failures.push_back("endpoint count differs from walks");
        }
        break;
    case WalkKind::kPaths:
        if (res.paths.size() != walks) {
            phase.failures.push_back("path count differs from walks");
        }
        for (const auto &p : res.paths) {
            phase.paths.emplace_back(p, req.length);
        }
        break;
    case WalkKind::kVisitCounts:
        if (res.top_visits.empty() || res.top_visits.size() > req.top_k) {
            phase.failures.push_back("top-k result has a bad size");
        }
        break;
    }
}

/**
 * Drive @p svc for one phase.  Open loop when @p arrivals is non-empty
 * (due offsets in seconds from the phase start); otherwise a closed
 * loop keeping kOutstanding requests in flight for @p seconds.
 */
Phase
run_phase(WalkService &svc, const RequestMaker &maker, std::uint64_t first,
          const std::vector<double> &arrivals, double seconds,
          Tracer &tracer, std::uint64_t parent)
{
    Phase phase;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<InFlight> handoff; // guarded by mu
    std::size_t outstanding = 0;  // guarded by mu
    bool closed = false;          // guarded by mu

    const Clock::time_point start = Clock::now();
    const auto collect = [&] {
        std::vector<InFlight> local;
        for (;;) {
            {
                std::lock_guard<std::mutex> lock(mu);
                while (!handoff.empty()) {
                    local.push_back(std::move(handoff.front()));
                    handoff.pop_front();
                }
                if (closed && local.empty()) {
                    return;
                }
            }
            bool any = false;
            for (std::size_t i = 0; i < local.size();) {
                if (!local[i].ticket.wait_for(0.0)) {
                    ++i;
                    continue;
                }
                WalkResult res; // kFailed unless the ticket delivers
                try {
                    res = local[i].ticket.get();
                } catch (const std::exception &e) {
                    res.error = e.what();
                }
                const Clock::time_point seen = Clock::now();
                const InFlight &f = local[i];
                const WalkRequest req = maker.make(f.index);
                if (res.ok()) {
                    ++phase.ok;
                    phase.steps += res.stats.steps;
                    phase.done.emplace_back(
                        std::chrono::duration<double>(seen - start).count(),
                        res.stats.steps);
                    phase.latency_s.push_back(
                        std::chrono::duration<double>(seen - f.due).count());
                    phase.due_s.push_back(
                        std::chrono::duration<double>(f.due - start).count());
                    phase.wait_s.push_back(res.wait_seconds);
                    phase.run_s.push_back(res.run_seconds);
                    phase.modeled_s.push_back(res.stats.modeled_seconds());
                    phase.stats += res.stats;
                    inspect(req, res, phase);
                } else {
                    phase.failures.push_back(
                        std::string("request ended with status ") +
                        noswalker::service::to_string(res.status));
                }
                if (tracer.enabled()) {
                    SpanRecord s;
                    s.id = tracer.next_id();
                    s.parent = parent;
                    s.request = f.ticket.id();
                    s.name = "svc.request";
                    s.start_ns = tracer.to_ns(f.due);
                    s.end_ns = tracer.to_ns(seen);
                    s.thread = thread_number();
                    tracer.record(s);
                    SpanRecord wait = s;
                    wait.id = tracer.next_id();
                    wait.parent = s.id;
                    wait.name = "service.queue_wait";
                    wait.start_ns = tracer.to_ns(f.submitted);
                    wait.end_ns = wait.start_ns +
                                  static_cast<std::int64_t>(
                                      res.wait_seconds * 1e9);
                    tracer.record(wait);
                    SpanRecord run = wait;
                    run.id = tracer.next_id();
                    run.name = "service.batch_run";
                    run.start_ns = wait.end_ns;
                    run.end_ns = run.start_ns + static_cast<std::int64_t>(
                                                    res.run_seconds * 1e9);
                    tracer.record(run);
                }
                if (res.ok() && phase.sample.size() < kResubmitSample) {
                    phase.sample.emplace_back(f.index, std::move(res));
                }
                if (i + 1 != local.size()) {
                    local[i] = std::move(local.back());
                }
                local.pop_back();
                any = true;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    --outstanding;
                }
                cv.notify_all();
            }
            if (any) {
                continue;
            }
            // Nothing was ready: block briefly on one ticket (it wakes
            // the moment that request completes) or on new submissions.
            if (!local.empty()) {
                local.front().ticket.wait_for(kPollSeconds);
            } else {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait_for(lock, std::chrono::milliseconds(1),
                            [&] { return !handoff.empty() || closed; });
            }
        }
    };
    std::thread collector(collect);

    const auto submit = [&](std::uint64_t index, Clock::time_point due) {
        WalkRequest req = maker.make(index);
        const Clock::time_point t0 = Clock::now();
        WalkTicket ticket = svc.submit(std::move(req));
        const Clock::time_point t1 = Clock::now();
        phase.late_s.push_back(std::chrono::duration<double>(t0 - due).count());
        phase.submit_s.push_back(std::chrono::duration<double>(t1 - t0).count());
        phase.depth_max =
            std::max(phase.depth_max,
                     svc.submit_queue_depth() + svc.batch_queue_depth());
        ++phase.submitted;
        {
            std::lock_guard<std::mutex> lock(mu);
            ++outstanding;
            handoff.push_back({std::move(ticket), index, due, t0});
        }
        cv.notify_all();
    };

    const auto finish = [&] {
        {
            std::lock_guard<std::mutex> lock(mu);
            closed = true;
        }
        cv.notify_all();
        collector.join();
    };
    try {
        if (!arrivals.empty()) {
            for (std::size_t k = 0; k < arrivals.size(); ++k) {
                const auto due =
                    start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(arrivals[k]));
                std::this_thread::sleep_until(due);
                submit(first + k, due);
            }
        } else {
            const auto end =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
            for (std::uint64_t k = 0; Clock::now() < end; ++k) {
                {
                    std::unique_lock<std::mutex> lock(mu);
                    cv.wait(lock, [&] { return outstanding < kOutstanding; });
                }
                submit(first + k, Clock::now());
            }
        }
    } catch (...) {
        finish();
        throw;
    }
    finish();
    phase.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    return phase;
}

/** Poisson arrival offsets at @p rate for @p seconds. */
std::vector<double>
poisson_arrivals(double rate, double seconds, std::uint64_t seed)
{
    noswalker::util::Rng rng(seed);
    std::vector<double> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.next_double()) / rate;
        if (t >= seconds) {
            return out;
        }
        out.push_back(t);
    }
}

/** Completed requests and steps per second, for each full second. */
struct Rates {
    std::vector<double> requests;
    std::vector<double> steps;
};

Rates
per_second(const Phase &phase)
{
    const auto seconds = static_cast<std::size_t>(phase.wall_s);
    Rates r;
    r.requests.assign(seconds, 0.0);
    r.steps.assign(seconds, 0.0);
    for (const auto &[at, steps] : phase.done) {
        const auto s = static_cast<std::size_t>(at);
        if (s < seconds) {
            r.requests[s] += 1.0;
            r.steps[s] += static_cast<double>(steps);
        }
    }
    return r;
}

/**
 * Median latency of the requests due in each whole second of an open
 * loop, median over those seconds: a host stall that lasts less than
 * half the phase does not move it.  Under a second (smoke runs) it is
 * the plain median.
 */
double
p50_over_seconds(const Phase &phase)
{
    const auto seconds = static_cast<std::size_t>(phase.wall_s);
    std::vector<std::vector<double>> by_second(seconds);
    for (std::size_t i = 0; i < phase.latency_s.size(); ++i) {
        const auto s = static_cast<std::size_t>(phase.due_s[i]);
        if (s < seconds) {
            by_second[s].push_back(phase.latency_s[i]);
        }
    }
    std::vector<double> p50s;
    for (std::vector<double> &second : by_second) {
        if (!second.empty()) {
            p50s.push_back(median(std::move(second)));
        }
    }
    return p50s.empty() ? median(phase.latency_s) : median(std::move(p50s));
}

bool
same_result(const WalkResult &a, const WalkResult &b)
{
    return a.endpoints == b.endpoints && a.paths == b.paths &&
           a.top_visits == b.top_visits;
}

noswalker::service::ServiceConfig
service_config(const GraphSetup &setup)
{
    noswalker::service::ServiceConfig cfg;
    cfg.num_workers = 2;
    cfg.max_batch = 8;
    cfg.batch_window_seconds = 0.001;
    cfg.step_threads = 1;
    cfg.block_bytes = setup.partition->target_block_bytes();
    cfg.cache_bytes = setup.file->file_bytes() / 4;
    cfg.memory_budget =
        4 * WalkService::min_run_footprint(*setup.file, *setup.partition) +
        cfg.cache_bytes;
    return cfg;
}

} // namespace

Result
run_service_workload(const Options &opts)
{
    Result r;
    Tracer tracer(opts.trace);
    const unsigned scale = opts.smoke ? 12 : 16;
    const std::string path = opts.work_dir + "/" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".graph";

    noswalker::graph::CsrGraph csr;
    {
        Span span(tracer, "graph.generate");
        csr = noswalker::graph::build_dataset(
            noswalker::graph::DatasetId::kKron30, scale, opts.seed);
    }
    GraphSetup setup;
    std::unique_ptr<WalkService> svc;
    std::vector<double> setup_s;
    const int setup_reps = opts.smoke ? 2 : 11;
    for (int i = 0; i < setup_reps; ++i) {
        svc.reset();
        setup = GraphSetup{};
        Span root(tracer, "setup");
        setup = setup_graph(csr, path, tracer, root.id());
        {
            Span span(tracer, "service.construct", root.id());
            svc = std::make_unique<WalkService>(*setup.file, *setup.partition,
                                                service_config(setup));
        }
        setup_s.push_back(root.close());
    }
    r.check(file_matches(setup, csr),
            "graph file does not match the reference CSR");
    csr = noswalker::graph::CsrGraph{};

    const RequestMaker maker(*setup.file, opts.seed);
    std::uint64_t next_index = 0;
    std::vector<Phase> phases; // every phase, for the output checks
    const auto phase = [&](const std::vector<double> &arrivals,
                           double seconds, std::uint64_t parent) {
        phases.push_back(run_phase(*svc, maker, next_index, arrivals,
                                   seconds, tracer, parent));
        next_index += phases.back().submitted;
        return phases.size() - 1;
    };
    const double share = opts.smoke ? 0.1 : 1.0;
    const auto counters_before = svc->counters();

    // Warm up: fill the block cache and start every pool.
    tracer.set_enabled(false);
    phase({}, 3.0 * share, 0);

    // Untraced: half open loop, half closed loop.  Traced: a quarter
    // each, after an untraced closed-loop quarter for the overhead.
    const double open_s = opts.seconds / (opts.trace ? 4 : 2);
    const double closed_s = open_s;
    double untraced_rate = 0.0;
    if (opts.trace) {
        const Phase &p = phases[phase({}, closed_s, 0)];
        untraced_rate = static_cast<double>(p.steps) / p.wall_s;
        tracer.set_enabled(true);
    }
    /** One measurement of the open and closed loops. */
    struct Timed {
        std::size_t open = 0;
        std::size_t closed = 0;
        std::uint64_t open_span = 0;
        std::uint64_t closed_span = 0;
        double rss = 0.0;
        double steal = 0.0;
        TimedDevice::Counts counts;
        WalkService::Counters start;
        WalkService::Counters end;
    };
    const std::uint64_t first_timed = next_index;
    const auto measure = [&] {
        Timed t;
        next_index = first_timed; // a second attempt replays the requests
        t.start = svc->counters();
        const CpuTicks ticks = cpu_ticks();
        setup.device->reset_counts();
        reset_peak_rss();
        {
            Span span(tracer, "svc.open_loop");
            tracer.set_context(span.id());
            t.open_span = span.id();
            t.open = phase(poisson_arrivals(kOpenRate, open_s,
                                            noswalker::util::derive_stream(
                                                opts.seed, 0x0e)),
                           0.0, span.id());
        }
        {
            Span span(tracer, "svc.closed_loop");
            tracer.set_context(span.id());
            t.closed_span = span.id();
            t.closed = phase({}, closed_s, span.id());
        }
        tracer.set_context(0);
        t.rss = peak_rss_mib();
        t.counts = setup.device->counts();
        t.end = svc->counters();
        t.steal = steal_share(ticks, cpu_ticks());
        return t;
    };
    Timed t = measure();
    std::string attempts = std::to_string(t.steal);
    if (!opts.trace && t.steal > kMaxStealShare) {
        // The hypervisor took enough CPU to swamp the service's own
        // queueing: measure once more and keep the quieter attempt.
        const Timed again = measure();
        attempts += ", " + std::to_string(again.steal);
        if (again.steal < t.steal) {
            t = again;
        }
    }
    tracer.set_enabled(false);
    r.meta.emplace_back("steal_share", std::to_string(t.steal));
    r.meta.emplace_back("attempt_steal_shares", "[" + attempts + "]");

    // Diagnostic: highest fixed open-loop rate whose p99 meets the SLO.
    double max_rps_slo = 0.0;
    if (opts.trace) {
        for (double rate : {400.0, 600.0, 800.0, 1000.0, 1200.0, 1600.0}) {
            const Phase &p = phases[phase(
                poisson_arrivals(rate, share,
                                 noswalker::util::derive_stream(
                                     opts.seed, static_cast<std::uint64_t>(rate))),
                0.0, 0)];
            if (p.ok != p.submitted ||
                percentile(p.latency_s, 0.99) > kSloSeconds) {
                break;
            }
            max_rps_slo = rate;
        }
    }
    svc->stop();

    // --- output checks -------------------------------------------------
    {
        EdgeChecker checker(path);
        std::uint64_t bad = 0;
        std::uint64_t requests = 0;
        for (Phase &p : phases) {
            requests += p.submitted;
            r.failed += p.failures.size();
            for (const std::string &f : p.failures) {
                if (r.failures.size() < 8) {
                    r.failures.push_back(f);
                }
            }
            for (const auto &[walk, length] : p.paths) {
                if (walk.size() > length + 1 ||
                    !checker.valid_path(walk.data(), walk.size())) {
                    ++bad;
                }
            }
        }
        r.attempted = requests;
        r.check(bad == 0,
                std::to_string(bad) + " kPaths results are not graph paths");
    }
    {
        // The per-request-seed contract: a request's result does not
        // depend on what it was coalesced with.
        auto cfg = service_config(setup);
        cfg.max_batch = 1;
        cfg.batch_window_seconds = 0.0;
        WalkService single(*setup.file, *setup.partition, cfg);
        std::uint64_t mismatches = 0;
        for (const std::size_t k : {t.open, t.closed}) {
            for (const auto &[index, result] : phases[k].sample) {
                WalkResult again = single.submit(maker.make(index)).get();
                ++r.attempted;
                mismatches += again.ok() && same_result(again, result) ? 0 : 1;
            }
        }
        if (mismatches > 0) {
            r.failed += mismatches;
            r.failures.push_back(
                std::to_string(mismatches) +
                " resubmitted requests returned a different result");
        }
    }

    const Phase &po = phases[t.open];
    const Phase &pc = phases[t.closed];
    const double resident = page_cache_resident(path);
    r.meta.emplace_back("page_cache_resident", std::to_string(resident));
    r.meta.emplace_back("gen_late_ms_p99",
                        std::to_string(percentile(po.late_s, 0.99) * 1e3));
    r.meta.emplace_back("open_loop_samples",
                        std::to_string(po.latency_s.size()));
    const double p99_ms = percentile(po.latency_s, 0.99) * 1e3;
    r.meta.emplace_back("open_loop_p99_ms", std::to_string(p99_ms));
    r.meta.emplace_back("closed_loop_requests", std::to_string(pc.ok));

    if (!opts.trace) {
        std::vector<double> modeled = po.modeled_s;
        modeled.insert(modeled.end(), pc.modeled_s.begin(),
                       pc.modeled_s.end());
        // Closed-loop rates are medians over whole seconds, so a short
        // host stall does not set them; under a second (smoke runs)
        // they fall back to the phase totals.
        const Rates rates = per_second(pc);
        r.add("steps_per_s",
              rates.steps.empty() ? static_cast<double>(pc.steps) / pc.wall_s
                                  : median(rates.steps),
              "steps/s");
        r.add("modeled_s", median(modeled), "s");
        r.add("io_bytes_per_step",
              static_cast<double>(t.counts.bytes) /
                  static_cast<double>(po.steps + pc.steps),
              "B/step");
        r.add("peak_rss_mib", t.rss, "MiB");
        r.add("setup_s", median(setup_s), "s");
        r.add("req_p50_ms", p50_over_seconds(po) * 1e3, "ms");

        r.add("sat_rps",
              rates.requests.empty() ? static_cast<double>(pc.ok) / pc.wall_s
                                     : median(rates.requests),
              "req/s");
    } else {
        LayerMetrics m;
        add_graph_metrics(m, tracer);
        std::vector<double> read_us; // reads of the traced phases only
        double busy = 0.0;
        for (const SpanRecord &s : tracer.spans()) {
            if (std::string_view(s.name) == "storage.read" &&
                (s.parent == t.open_span || s.parent == t.closed_span)) {
                read_us.push_back(s.seconds() * 1e6);
                busy += s.seconds();
            }
        }
        m.set("storage.reads", static_cast<double>(t.counts.reads), "count");
        m.set("storage.read_mib", static_cast<double>(t.counts.bytes) / kMiB,
              "MiB");
        m.set("storage.read_busy_s", busy, "s");
        m.set("storage.read_us_p50", percentile(read_us, 0.50), "us");
        m.set("storage.read_us_p99", percentile(read_us, 0.99), "us");
        m.set("storage.reads_inflight_max",
              static_cast<double>(t.counts.inflight_max), "count");
        noswalker::engine::RunStats stats = po.stats;
        stats += pc.stats;
        add_core_metrics(m, stats);

        std::vector<double> submit_s = po.submit_s;
        submit_s.insert(submit_s.end(), pc.submit_s.begin(), pc.submit_s.end());
        std::vector<double> wait_s = po.wait_s;
        wait_s.insert(wait_s.end(), pc.wait_s.begin(), pc.wait_s.end());
        std::vector<double> run_s = po.run_s;
        run_s.insert(run_s.end(), pc.run_s.begin(), pc.run_s.end());
        const auto completed = static_cast<double>(
            t.end.completed - t.start.completed);
        const auto hits = static_cast<double>(t.end.cache_hits -
                                              t.start.cache_hits);
        const auto misses = static_cast<double>(t.end.cache_misses -
                                                t.start.cache_misses);
        const auto rejected = [](const WalkService::Counters &c) {
            return c.rejected_queue_full + c.rejected_tenant_queue +
                   c.rejected_budget;
        };
        m.set("service.submit_us_p99", percentile(submit_s, 0.99) * 1e6, "us");
        m.set("service.queue_depth_max",
              static_cast<double>(std::max(po.depth_max, pc.depth_max)),
              "count");
        m.set("service.queue_wait_ms_p50", percentile(wait_s, 0.50) * 1e3,
              "ms");
        m.set("service.queue_wait_ms_p99", percentile(wait_s, 0.99) * 1e3,
              "ms");
        m.set("service.batch_run_ms_p50", percentile(run_s, 0.50) * 1e3, "ms");
        m.set("service.batch_run_ms_p99", percentile(run_s, 0.99) * 1e3, "ms");
        m.set("service.batch_size_mean",
              completed / static_cast<double>(t.end.batches -
                                              t.start.batches),
              "count");
        m.set("service.coalesced_share",
              static_cast<double>(t.end.coalesced_requests -
                                  t.start.coalesced_requests) /
                  completed,
              "ratio");
        m.set("service.cache_hit_ratio",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "ratio");
        m.set("service.budget_peak_mib",
              static_cast<double>(t.end.budget_peak) / kMiB, "MiB");
        m.set("service.rejected",
              static_cast<double>(rejected(t.end) -
                                  rejected(counters_before)),
              "count");
        m.set("service.expired",
              static_cast<double>(t.end.expired -
                                  counters_before.expired),
              "count");
        m.set("service.max_rps_slo", max_rps_slo, "req/s");
        m.set("req_p99_ms", p99_ms, "ms");
        m.set("harness.gen_late_ms_p99", percentile(po.late_s, 0.99) * 1e3,
              "ms");
        m.set("harness.page_cache_resident", resident, "ratio");
        m.set("harness.trace_overhead",
              static_cast<double>(pc.steps) / pc.wall_s / untraced_rate,
              "ratio");
        m.set("error_ratio",
              static_cast<double>(r.failed) / static_cast<double>(r.attempted),
              "ratio");
        m.append_to(r);
        const std::string trace_path = opts.work_dir + "/trace-" +
                                       opts.workload + "-" +
                                       std::to_string(opts.seed) + ".json";
        r.check(tracer.write_chrome(trace_path), "cannot write the trace");
        r.meta.emplace_back("trace_file", json_string(trace_path));
    }

    svc.reset();
    setup = GraphSetup{};
    std::remove(path.c_str());
    return r;
}

} // namespace perfbench
