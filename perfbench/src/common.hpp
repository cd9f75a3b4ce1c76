/**
 * @file
 * Shared pieces of the benchmark: options, the result record, small
 * statistics, process probes (peak RSS, page-cache residency, host
 * metadata), the graph-file set-up every workload times, and the
 * output checks (walker conservation, path validity, output digest).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/file_device.hpp"
#include "timed_device.hpp"
#include "trace.hpp"

namespace perfbench {

/** Command-line options of one benchmark run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Small graphs and short phases: the benchmark's own smoke test. */
    bool smoke = false;
    /** Working directory for graph files and traces. */
    std::string work_dir = ".bench_build/run";
    std::string git_sha = "unknown";
};

/** A named metric with its unit. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Result {
    std::uint64_t attempted = 0;
    /** Walkers not retired / non-kOk requests, plus failed checks. */
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::vector<Metric> metrics;
    /** Run metadata that is not a metric (key, JSON-ready value). */
    std::vector<std::pair<std::string, std::string>> meta;

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Record one output check; a false @p ok counts as a failure. */
    void check(bool ok, const std::string &what);

    bool correct() const { return failures.empty(); }
};

// --- statistics -----------------------------------------------------

double median(std::vector<double> values);

/** Nearest-rank percentile, @p p in [0, 1]; 0 for an empty input. */
double percentile(std::vector<double> values, double p);

// --- process and host probes ----------------------------------------

/** Reset the peak-RSS high-water mark (/proc/self/clear_refs = 5). */
void reset_peak_rss();

/** Peak RSS since the last reset, MiB (VmHWM). */
double peak_rss_mib();

/** Host CPU time, in clock ticks, from the first line of /proc/stat. */
struct CpuTicks {
    std::uint64_t steal = 0; ///< taken by the hypervisor for other guests
    std::uint64_t total = 0;
};
CpuTicks cpu_ticks();

/** Share of host CPU time stolen between two cpu_ticks() readings. */
double steal_share(const CpuTicks &before, const CpuTicks &after);

/**
 * Steal share above which a timed job or phase is not trusted: past a
 * few percent, wall-clock figures follow the hypervisor's other guests
 * rather than the code (see README.md, "Workloads").
 */
constexpr double kMaxStealShare = 0.03;

/** Fraction of @p path's pages resident in the page cache (mincore). */
double page_cache_resident(const std::string &path);

/** Host and build metadata as JSON key/value pairs. */
std::vector<std::pair<std::string, std::string>>
host_meta(const Options &opts);

std::string json_string(const std::string &s);

// --- graph set-up ---------------------------------------------------

/** One set-up's graph objects: file, timing wrapper, reader, blocks. */
struct GraphSetup {
    std::unique_ptr<noswalker::storage::FileDevice> file_device;
    std::unique_ptr<TimedDevice> device;
    std::unique_ptr<noswalker::graph::GraphFile> file;
    std::unique_ptr<noswalker::graph::BlockPartition> partition;
};

/**
 * Write @p graph to @p path and sync it, open it through a TimedDevice
 * and partition it into ~32 blocks, with one span per phase under
 * @p parent.  Engine or service construction is the caller's last
 * set-up phase.
 */
GraphSetup setup_graph(const noswalker::graph::CsrGraph &graph,
                       const std::string &path, Tracer &tracer,
                       std::uint64_t parent);

/**
 * Check that the file behind @p setup holds exactly @p graph (header,
 * CSR index and every edge), so later path checks against the file are
 * checks against the reference CSR.
 */
bool file_matches(const GraphSetup &setup,
                  const noswalker::graph::CsrGraph &graph);

/**
 * Reads vertex adjacency straight from a graph file, through its own
 * bare FileDevice, for output checks after the timed phase.
 */
class EdgeChecker {
  public:
    explicit EdgeChecker(const std::string &path);

    /** Whether @p u → @p v is an edge of the file. */
    bool has_edge(noswalker::graph::VertexId u, noswalker::graph::VertexId v);

    /** Whether @p path — @p slots entries, possibly ended early by
     *  kInvalidVertex — follows edges of the file. */
    bool valid_path(const noswalker::graph::VertexId *path,
                    std::size_t slots);

  private:
    noswalker::storage::FileDevice device_;
    std::unique_ptr<noswalker::graph::GraphFile> file_;
    std::vector<noswalker::graph::VertexId> buffer_;
};

/** FNV-1a over raw bytes, chained through @p h. */
std::uint64_t fnv1a(const void *data, std::size_t len,
                    std::uint64_t h = 1469598103934665603ULL);

/** Workload names in the order the benchmark lists them. */
const std::vector<std::string> &workload_names();

/** Run one walk workload (rw-ooc, rw-inmem, n2v-shard2). */
Result run_walk_workload(const Options &opts);

/** Run the svc-open workload. */
Result run_service_workload(const Options &opts);

/**
 * Check that a TimedDevice-backed run moves exactly the bytes,
 * requests, modeled busy seconds and walk output of a bare FileDevice
 * run.  @return failure messages (empty = pass).
 */
std::vector<std::string> device_self_test(const std::string &work_dir);

} // namespace perfbench
