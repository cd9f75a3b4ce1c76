#include "common.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/error.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {
#ifdef __clang__
constexpr const char *kCompiler = "clang " __clang_version__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif
} // namespace

namespace perfbench {

using noswalker::graph::BlockPartition;
using noswalker::graph::CsrGraph;
using noswalker::graph::GraphFile;
using noswalker::graph::VertexId;

void
Result::check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failed;
        failures.push_back(what);
    }
}

double
median(std::vector<double> values)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(p * static_cast<double>(values.size()));
    const std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

void
reset_peak_rss()
{
    // Hand freed heap back first, so the peak is the timed phase's own
    // and not what earlier phases left cached in malloc arenas.
    ::malloc_trim(0);
    std::ofstream refs("/proc/self/clear_refs");
    refs << "5";
}

double
peak_rss_mib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

CpuTicks
cpu_ticks()
{
    std::ifstream stat("/proc/stat");
    std::string cpu;
    stat >> cpu;
    CpuTicks t;
    for (int field = 0; field < 8; ++field) {
        std::uint64_t v = 0;
        stat >> v;
        t.total += v;
        if (field == 7) {
            t.steal = v;
        }
    }
    return t;
}

double
steal_share(const CpuTicks &before, const CpuTicks &after)
{
    const std::uint64_t total = after.total - before.total;
    return total > 0 ? static_cast<double>(after.steal - before.steal) /
                           static_cast<double>(total)
                     : 0.0;
}

double
page_cache_resident(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        return 0.0;
    }
    const off_t size = ::lseek(fd, 0, SEEK_END);
    double fraction = 0.0;
    if (size > 0) {
        void *map = ::mmap(nullptr, static_cast<std::size_t>(size),
                           PROT_READ, MAP_SHARED, fd, 0);
        if (map != MAP_FAILED) {
            const long page = ::sysconf(_SC_PAGESIZE);
            const std::size_t pages =
                (static_cast<std::size_t>(size) + page - 1) / page;
            std::vector<unsigned char> vec(pages);
            if (::mincore(map, static_cast<std::size_t>(size), vec.data()) ==
                0) {
                std::size_t resident = 0;
                for (unsigned char c : vec) {
                    resident += c & 1;
                }
                fraction = static_cast<double>(resident) /
                           static_cast<double>(pages);
            }
            ::munmap(map, static_cast<std::size_t>(size));
        }
    }
    ::close(fd);
    return fraction;
}

std::string
json_string(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::vector<std::pair<std::string, std::string>>
host_meta(const Options &opts)
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                cpu = line.substr(colon + 2);
            }
            break;
        }
    }
    return {
        {"workload", json_string(opts.workload)},
        {"seed", std::to_string(opts.seed)},
        {"seconds", std::to_string(opts.seconds)},
        {"trace", opts.trace ? "true" : "false"},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"cpu_model", json_string(cpu)},
        {"build_type", json_string(PERFBENCH_BUILD_TYPE)},
        {"compiler", json_string(kCompiler)},
        {"git_sha", json_string(opts.git_sha)},
    };
}

GraphSetup
setup_graph(const CsrGraph &graph, const std::string &path, Tracer &tracer,
            std::uint64_t parent)
{
    GraphSetup s;
    // A fresh file every time, so every set-up repetition allocates
    // the same way.
    ::unlink(path.c_str());
    {
        Span span(tracer, "graph.write", parent);
        s.file_device =
            std::make_unique<noswalker::storage::FileDevice>(path);
        GraphFile::write(graph, *s.file_device);
        s.file_device->sync();
    }
    s.device = std::make_unique<TimedDevice>(*s.file_device, tracer);
    {
        Span span(tracer, "graph.open", parent);
        s.file = std::make_unique<GraphFile>(*s.device);
    }
    {
        Span span(tracer, "graph.partition", parent);
        // ~32 blocks, as the figure benches partition their twins.
        const std::uint64_t block_bytes = std::max<std::uint64_t>(
            16 * 1024, s.file->edge_region_bytes() / 32);
        s.partition = std::make_unique<BlockPartition>(*s.file, block_bytes);
    }
    return s;
}

bool
file_matches(const GraphSetup &setup, const CsrGraph &graph)
{
    const GraphFile &file = *setup.file;
    if (file.num_vertices() != graph.num_vertices() ||
        file.num_edges() != graph.num_edges() || file.weighted() ||
        file.offsets() != graph.offsets()) {
        return false;
    }
    const auto &targets = graph.targets();
    constexpr std::uint64_t kChunk = 1 << 20; // edges per read
    std::vector<VertexId> buffer(kChunk);
    for (std::uint64_t e = 0; e < targets.size(); e += kChunk) {
        const std::uint64_t n =
            std::min<std::uint64_t>(kChunk, targets.size() - e);
        setup.file_device->peek(file.edge_region_offset() + e * 4, n * 4,
                                buffer.data());
        if (std::memcmp(buffer.data(), targets.data() + e, n * 4) != 0) {
            return false;
        }
    }
    return true;
}

EdgeChecker::EdgeChecker(const std::string &path) : device_(path)
{
    file_ = std::make_unique<GraphFile>(device_);
}

bool
EdgeChecker::has_edge(VertexId u, VertexId v)
{
    if (u >= file_->num_vertices()) {
        return false;
    }
    const std::uint32_t degree = file_->degree(u);
    buffer_.resize(degree);
    if (degree == 0) {
        return false;
    }
    // Unweighted files only (every benchmark twin): the record is the
    // sorted target list.
    device_.peek(file_->vertex_byte_offset(u),
                 static_cast<std::uint64_t>(degree) * sizeof(VertexId),
                 buffer_.data());
    return std::binary_search(buffer_.begin(), buffer_.end(), v);
}

bool
EdgeChecker::valid_path(const VertexId *path, std::size_t slots)
{
    if (slots == 0 || path[0] == noswalker::graph::kInvalidVertex ||
        path[0] >= file_->num_vertices()) {
        return false;
    }
    for (std::size_t i = 1; i < slots; ++i) {
        if (path[i] == noswalker::graph::kInvalidVertex) {
            // A walk ends early only at a vertex with no out-edge.
            return file_->degree(path[i - 1]) == 0;
        }
        if (!has_edge(path[i - 1], path[i])) {
            return false;
        }
    }
    return true;
}

std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    return h;
}

const std::vector<std::string> &
workload_names()
{
    static const std::vector<std::string> names = {"rw-ooc", "rw-inmem",
                                                   "n2v-shard2", "svc-open"};
    return names;
}

} // namespace perfbench
