#include "graph/graph_file.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/error.hpp"

namespace noswalker::graph {

namespace {

constexpr std::uint64_t kMagic = 0x3146524757534f4eULL; // "NOSWGRF1"
constexpr std::uint64_t kHeaderBytes = 48;

struct Header {
    std::uint64_t magic;
    std::uint64_t num_vertices;
    std::uint64_t num_edges;
    std::uint64_t flags;
    std::uint64_t edge_region_offset;
    std::uint64_t reserved;
};
static_assert(sizeof(Header) == kHeaderBytes);

std::uint32_t
record_bytes_for(std::uint64_t flags)
{
    std::uint32_t bytes = sizeof(VertexId);
    if (flags & GraphFile::kWeighted) {
        bytes += sizeof(Weight);
    }
    if (flags & GraphFile::kAlias) {
        bytes += sizeof(float) + sizeof(VertexId);
    }
    return bytes;
}

} // namespace

VertexId
VertexView::sample_weighted(util::Rng &rng) const
{
    const std::size_t n = targets.size();
    if (!prob.empty()) {
        const std::size_t slot = rng.next_index(n);
        return rng.next_double() < prob[slot] ? targets[slot]
                                              : targets[alias[slot]];
    }
    NOSWALKER_CHECK(!weights.empty());
    double total = 0.0;
    for (Weight w : weights) {
        total += w;
    }
    double r = rng.next_double(total);
    for (std::size_t i = 0; i < n; ++i) {
        r -= weights[i];
        if (r <= 0.0) {
            return targets[i];
        }
    }
    return targets[n - 1];
}

bool
VertexView::has_target(VertexId v) const
{
    return std::binary_search(targets.begin(), targets.end(), v);
}

void
GraphFile::write(const CsrGraph &graph, storage::IoDevice &device,
                 bool with_alias)
{
    if (with_alias && !graph.weighted()) {
        throw util::ConfigError(
            "GraphFile::write: alias tables need a weighted graph");
    }

    std::uint64_t flags = 0;
    if (graph.weighted()) {
        flags |= kWeighted;
    }
    if (with_alias) {
        flags |= kAlias;
    }
    const std::uint32_t rec = record_bytes_for(flags);
    const std::uint64_t index_bytes =
        (static_cast<std::uint64_t>(graph.num_vertices()) + 1) *
        sizeof(EdgeIndex);

    Header header{};
    header.magic = kMagic;
    header.num_vertices = graph.num_vertices();
    header.num_edges = graph.num_edges();
    header.flags = flags;
    header.edge_region_offset = kHeaderBytes + index_bytes;
    device.write(0, sizeof(header), &header);
    device.write(kHeaderBytes, index_bytes, graph.offsets().data());

    // Stream the edge region vertex by vertex, buffering ~4 MiB writes.
    std::vector<std::uint8_t> buffer;
    buffer.reserve(4 << 20);
    std::uint64_t write_pos = header.edge_region_offset;
    const auto flush = [&] {
        if (!buffer.empty()) {
            device.write(write_pos, buffer.size(), buffer.data());
            write_pos += buffer.size();
            buffer.clear();
        }
    };
    const auto append = [&](const void *data, std::size_t len) {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buffer.insert(buffer.end(), p, p + len);
    };

    std::vector<double> alias_weights;
    std::vector<float> prob_out;
    std::vector<VertexId> alias_out;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
        const auto nbrs = graph.neighbors(v);
        append(nbrs.data(), nbrs.size_bytes());
        if (graph.weighted()) {
            const auto ws = graph.weights(v);
            append(ws.data(), ws.size_bytes());
            if (with_alias && !nbrs.empty()) {
                alias_weights.assign(ws.begin(), ws.end());
                prob_out.resize(nbrs.size());
                alias_out.resize(nbrs.size());
                util::build_alias_arrays(alias_weights, prob_out, alias_out);
                append(prob_out.data(), prob_out.size() * sizeof(float));
                append(alias_out.data(),
                       alias_out.size() * sizeof(VertexId));
            }
        }
        if (buffer.size() >= (4 << 20)) {
            flush();
        }
    }
    flush();
    (void)rec;
}

GraphFile::GraphFile(storage::IoDevice &device) : device_(&device)
{
    if (device.size() < kHeaderBytes) {
        throw util::IoError("GraphFile: file too small for header");
    }
    Header header{};
    device.read(0, sizeof(header), &header);
    if (header.magic != kMagic) {
        throw util::IoError("GraphFile: bad magic");
    }
    if (header.num_vertices > std::numeric_limits<VertexId>::max()) {
        throw util::IoError("GraphFile: vertex count exceeds VertexId");
    }
    num_vertices_ = static_cast<VertexId>(header.num_vertices);
    num_edges_ = header.num_edges;
    flags_ = header.flags;
    record_bytes_ = record_bytes_for(flags_);
    edge_region_offset_ = header.edge_region_offset;

    const std::uint64_t entries = std::uint64_t{num_vertices_} + 1;
    if (edge_region_offset_ != kHeaderBytes + entries * sizeof(EdgeIndex)) {
        throw util::IoError("GraphFile: edge region does not follow index");
    }
    if (device.size() < edge_region_offset_) {
        throw util::IoError("GraphFile: truncated index");
    }
    load_index(device, entries);
    if (edge_begin(num_vertices_) != num_edges_) {
        throw util::IoError("GraphFile: index/edge-count mismatch");
    }
    if (device.size() < file_bytes()) {
        throw util::IoError("GraphFile: truncated edge region");
    }
}

GraphFile::GraphFile(const GraphFile &base, storage::IoDevice &device)
    : GraphFile(base)
{
    if (device.size() < file_bytes()) {
        throw util::IoError("GraphFile: view device shorter than the file");
    }
    device_ = &device;
}

void
GraphFile::load_index(storage::IoDevice &device, std::uint64_t entries)
{
    constexpr std::uint64_t kGroup = std::uint64_t{1} << kGroupShift;
    // Entries per read: bounded, and a whole number of groups so every
    // chunk starts a fresh group.
    constexpr std::uint64_t kChunk = 1024 * kGroup;

    auto index = std::make_shared<Index>();
    std::vector<std::uint32_t> &rel = index->rel;
    std::vector<EdgeIndex> &group_base = index->group_base;
    rel.resize(entries);
    group_base.resize((entries + kGroup - 1) / kGroup);
    std::vector<EdgeIndex> chunk(std::min(entries, kChunk));
    EdgeIndex prev = 0;
    for (std::uint64_t first = 0; first < entries; first += kChunk) {
        const std::uint64_t n = std::min(kChunk, entries - first);
        device.read(kHeaderBytes + first * sizeof(EdgeIndex),
                    n * sizeof(EdgeIndex), chunk.data());
        if (first == 0 && chunk[0] != 0) {
            throw util::IoError("GraphFile: index does not start at 0");
        }
        for (std::uint64_t g = 0; g < n; g += kGroup) {
            const EdgeIndex base = chunk[g];
            const std::uint64_t end = std::min(n, g + kGroup);
            for (std::uint64_t i = g; i < end; ++i) {
                if (chunk[i] < prev) {
                    throw util::IoError("GraphFile: index not monotone");
                }
                prev = chunk[i];
                rel[first + i] = static_cast<std::uint32_t>(prev - base);
            }
            // Monotone, so the group's last entry is its widest.
            if (prev - base > std::numeric_limits<std::uint32_t>::max()) {
                throw util::IoError(
                    "GraphFile: index group spans >= 2^32 edges");
            }
            group_base[(first + g) / kGroup] = base;
        }
    }
    group_base_ = group_base.data();
    rel_ = rel.data();
    index_ = std::move(index);
}

std::vector<EdgeIndex>
GraphFile::offsets() const
{
    std::vector<EdgeIndex> out(index_->rel.size());
    for (std::size_t v = 0; v < out.size(); ++v) {
        out[v] = edge_begin(static_cast<VertexId>(v));
    }
    return out;
}

VertexView
GraphFile::decode(VertexId v, std::span<const std::uint8_t> raw,
                  std::uint64_t raw_begin) const
{
    const std::uint64_t off = vertex_byte_offset(v);
    const std::uint64_t len = vertex_byte_size(v);
    NOSWALKER_CHECK(off >= raw_begin &&
                    off + len <= raw_begin + raw.size());
    const std::uint8_t *base = raw.data() + (off - raw_begin);
    const std::uint32_t deg = degree(v);

    VertexView view;
    view.id = v;
    view.targets = {reinterpret_cast<const VertexId *>(base), deg};
    std::uint64_t pos = static_cast<std::uint64_t>(deg) * sizeof(VertexId);
    if (weighted()) {
        view.weights = {reinterpret_cast<const Weight *>(base + pos), deg};
        pos += static_cast<std::uint64_t>(deg) * sizeof(Weight);
    }
    if (has_alias()) {
        view.prob = {reinterpret_cast<const float *>(base + pos), deg};
        pos += static_cast<std::uint64_t>(deg) * sizeof(float);
        view.alias = {reinterpret_cast<const VertexId *>(base + pos), deg};
    }
    return view;
}

} // namespace noswalker::graph
