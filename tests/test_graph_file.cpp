/**
 * @file
 * Tests for the on-disk graph format and the block partitioner.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/mem_device.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace noswalker::graph {
namespace {

using storage::MemDevice;
using storage::SsdModel;

CsrGraph
sample_graph(bool weighted)
{
    RmatParams p;
    p.scale = 7;
    p.edge_factor = 6;
    p.seed = 4;
    p.weighted = weighted;
    return generate_rmat(p);
}

TEST(GraphFile, RoundTripUnweighted)
{
    const CsrGraph g = sample_graph(false);
    MemDevice dev;
    GraphFile::write(g, dev);
    GraphFile file(dev);
    EXPECT_EQ(file.num_vertices(), g.num_vertices());
    EXPECT_EQ(file.num_edges(), g.num_edges());
    EXPECT_FALSE(file.weighted());
    EXPECT_FALSE(file.has_alias());
    EXPECT_EQ(file.record_bytes(), 4u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        EXPECT_EQ(file.degree(v), g.degree(v));
    }
    EXPECT_EQ(file.edge_region_bytes(), g.num_edges() * 4);
    // Two-level index: 4 B per entry + 8 B per 64-entry group.
    const std::uint64_t entries = g.num_vertices() + 1;
    EXPECT_EQ(file.index_bytes(), entries * 4 + (entries + 63) / 64 * 8);
}

TEST(GraphFile, ViewSharesTheIndexAndReadsThroughItsDevice)
{
    const CsrGraph g = sample_graph(false);
    MemDevice dev;
    GraphFile::write(g, dev);
    const GraphFile base(dev);
    MemDevice copy;
    GraphFile::write(g, copy);
    const GraphFile view(base, copy);
    EXPECT_EQ(&view.device(), &copy);
    EXPECT_EQ(view.index_entry(0), base.index_entry(0));
    EXPECT_EQ(view.index_bytes(), base.index_bytes());
    EXPECT_EQ(view.offsets(), base.offsets());
    EXPECT_EQ(view.file_bytes(), base.file_bytes());

    // A device that cannot hold the file is refused.
    MemDevice empty;
    EXPECT_THROW(GraphFile(base, empty), util::IoError);
}

TEST(GraphFile, RoundTripWeighted)
{
    const CsrGraph g = sample_graph(true);
    MemDevice dev;
    GraphFile::write(g, dev);
    GraphFile file(dev);
    EXPECT_TRUE(file.weighted());
    EXPECT_EQ(file.record_bytes(), 8u);
    EXPECT_EQ(file.edge_region_bytes(), g.num_edges() * 8);
}

TEST(GraphFile, WeightedWithAliasTables)
{
    const CsrGraph g = sample_graph(true);
    MemDevice dev;
    GraphFile::write(g, dev, /*with_alias=*/true);
    GraphFile file(dev);
    EXPECT_TRUE(file.has_alias());
    EXPECT_EQ(file.record_bytes(), 16u);
    // Alias tables inflate the on-disk size ~4x over plain CSR edges,
    // reproducing the K30W 136->384 GiB effect directionally.
    EXPECT_EQ(file.edge_region_bytes(), g.num_edges() * 16);
}

TEST(GraphFile, AliasRequiresWeights)
{
    const CsrGraph g = sample_graph(false);
    MemDevice dev;
    EXPECT_THROW(GraphFile::write(g, dev, true), util::ConfigError);
}

TEST(GraphFile, DecodeMatchesReference)
{
    const CsrGraph g = sample_graph(true);
    MemDevice dev;
    GraphFile::write(g, dev, true);
    GraphFile file(dev);

    // Read the whole edge region and decode every vertex.
    std::vector<std::uint8_t> raw(file.edge_region_bytes());
    dev.read(file.edge_region_offset(), raw.size(), raw.data());
    util::Rng rng(1);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const VertexView view =
            file.decode(v, raw, file.edge_region_offset());
        ASSERT_EQ(view.degree(), g.degree(v));
        const auto nbrs = g.neighbors(v);
        const auto ws = g.weights(v);
        for (std::uint32_t i = 0; i < view.degree(); ++i) {
            ASSERT_EQ(view.targets[i], nbrs[i]);
            ASSERT_FLOAT_EQ(view.weights[i], ws[i]);
        }
        if (view.degree() > 0) {
            ASSERT_EQ(view.prob.size(), view.degree());
            ASSERT_EQ(view.alias.size(), view.degree());
            // Alias samples must be valid neighbours.
            for (int k = 0; k < 8; ++k) {
                const VertexId s = view.sample_weighted(rng);
                EXPECT_TRUE(view.has_target(s));
            }
        }
    }
}

TEST(GraphFile, WeightedSamplingWithoutAliasFallsBack)
{
    // degree-3 vertex, weights 1/2/7.
    CsrGraph g({0, 3}, {0, 0, 0}, {1.0f, 2.0f, 7.0f});
    MemDevice dev;
    GraphFile::write(g, dev, false);
    GraphFile file(dev);
    std::vector<std::uint8_t> raw(file.edge_region_bytes());
    dev.read(file.edge_region_offset(), raw.size(), raw.data());
    const VertexView view = file.decode(0, raw, file.edge_region_offset());
    EXPECT_TRUE(view.prob.empty());
    util::Rng rng(5);
    // All targets are vertex 0; exercising the prefix-scan path.
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(view.sample_weighted(rng), 0u);
    }
}

TEST(GraphFile, BadMagicRejected)
{
    MemDevice dev;
    std::vector<std::uint8_t> junk(64, 0xAB);
    dev.write(0, junk.size(), junk.data());
    EXPECT_THROW(GraphFile file(dev), util::IoError);
}

TEST(GraphFile, TruncatedFileRejected)
{
    const CsrGraph g = sample_graph(false);
    MemDevice dev;
    GraphFile::write(g, dev);
    // Chop the edge region.
    MemDevice truncated;
    std::vector<std::uint8_t> head(dev.size() / 2);
    dev.read(0, head.size(), head.data());
    truncated.write(0, head.size(), head.data());
    EXPECT_THROW(GraphFile file(truncated), util::IoError);
}

TEST(GraphFile, TooSmallForHeaderRejected)
{
    MemDevice dev;
    std::uint8_t b = 0;
    dev.write(0, 1, &b);
    EXPECT_THROW(GraphFile file(dev), util::IoError);
}

/**
 * CSR with @p nv vertices: small cyclic degrees (zeros included) plus
 * the given hubs, whose records straddle 64-entry index groups.
 */
using Hubs = std::vector<std::pair<VertexId, std::uint32_t>>;

CsrGraph
hub_graph(VertexId nv, const Hubs &hubs, bool weighted)
{
    std::vector<EdgeIndex> offsets{0};
    std::vector<VertexId> targets;
    std::vector<Weight> weights;
    for (VertexId v = 0; v < nv; ++v) {
        std::uint32_t deg = (v * 7 + 3) % 5;
        for (const auto &[hub, d] : hubs) {
            if (hub == v) {
                deg = d;
            }
        }
        for (std::uint32_t i = 0; i < deg; ++i) {
            targets.push_back(static_cast<VertexId>((v + i) % nv));
            if (weighted) {
                weights.push_back(1.0f + static_cast<float>(i % 7));
            }
        }
        offsets.push_back(targets.size());
    }
    return CsrGraph(std::move(offsets), std::move(targets),
                    std::move(weights));
}

/** Check every index accessor of @p file against the reference CSR. */
void
expect_index_matches(const GraphFile &file, const CsrGraph &g)
{
    ASSERT_EQ(file.num_vertices(), g.num_vertices());
    EXPECT_EQ(file.offsets(), g.offsets());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
        ASSERT_EQ(file.degree(v), g.degree(v)) << "vertex " << v;
        ASSERT_EQ(file.edge_begin(v), g.offsets()[v]) << "vertex " << v;
        ASSERT_EQ(file.vertex_byte_offset(v),
                  file.edge_region_offset() +
                      g.offsets()[v] * file.record_bytes())
            << "vertex " << v;
        ASSERT_EQ(file.vertex_byte_size(v),
                  std::uint64_t{g.degree(v)} * file.record_bytes());
    }
    EXPECT_EQ(file.edge_begin(g.num_vertices()), g.num_edges());
    const std::uint64_t entries = std::uint64_t{g.num_vertices()} + 1;
    EXPECT_EQ(file.index_bytes(),
              entries * sizeof(std::uint32_t) +
                  (entries + 63) / 64 * sizeof(EdgeIndex));
}

TEST(GraphFileIndex, RoundTripsAcrossGroupBoundaries)
{
    for (const VertexId nv : {1u, 63u, 64u, 65u, 1000u}) {
        SCOPED_TRACE("V=" + std::to_string(nv));
        const CsrGraph g = hub_graph(nv, {}, false);
        MemDevice dev;
        GraphFile::write(g, dev);
        expect_index_matches(GraphFile(dev), g);
    }
}

TEST(GraphFileIndex, HubsStraddlingGroupsInEveryRecordLayout)
{
    // Hubs at the last entry of a group, the first of the next, and a
    // run of them, so group bases jump by thousands of edges.
    const Hubs hubs = {
        {63, 3000}, {64, 2048}, {127, 4096}, {128, 1}, {190, 5000},
        {191, 5001}, {192, 999}};
    for (const bool weighted : {false, true}) {
        for (const bool alias : {false, true}) {
            if (alias && !weighted) {
                continue;
            }
            SCOPED_TRACE(std::string(weighted ? "weighted" : "plain") +
                         (alias ? "+alias" : ""));
            const CsrGraph g = hub_graph(300, hubs, weighted);
            MemDevice dev;
            GraphFile::write(g, dev, alias);
            const GraphFile file(dev);
            EXPECT_EQ(file.record_bytes(),
                      alias ? 16u : (weighted ? 8u : 4u));
            expect_index_matches(file, g);

            // Decoding a straddling hub lands on its own record.
            std::vector<std::uint8_t> raw(file.edge_region_bytes());
            dev.read(file.edge_region_offset(), raw.size(), raw.data());
            for (const auto &[hub, deg] : hubs) {
                const VertexView view =
                    file.decode(hub, raw, file.edge_region_offset());
                ASSERT_EQ(view.degree(), deg);
                const auto nbrs = g.neighbors(hub);
                EXPECT_TRUE(std::equal(nbrs.begin(), nbrs.end(),
                                       view.targets.begin()));
                EXPECT_EQ(view.alias.size(), alias ? deg : 0u);
            }
        }
    }
}

/** Overwrite index entry @p i of a written graph in place. */
void
poke_offset(MemDevice &dev, std::uint64_t i, EdgeIndex value)
{
    std::memcpy(dev.bytes().data() + 48 + i * sizeof(EdgeIndex), &value,
                sizeof(value));
}

/** Open @p dev and expect an IoError whose message names @p what. */
void
expect_io_error(MemDevice &dev, const std::string &what)
{
    try {
        GraphFile file(dev);
        ADD_FAILURE() << "opened a corrupt file; expected: " << what;
    } catch (const util::IoError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(GraphFileIndex, NonMonotoneOffsetsRejected)
{
    const CsrGraph g = hub_graph(200, {{70, 40}}, false);
    MemDevice dev;
    GraphFile::write(g, dev);
    // Entry 71 drops below entry 70 (both inside group 1).
    poke_offset(dev, 71, g.offsets()[70] - 1);
    expect_io_error(dev, "not monotone");
}

TEST(GraphFileIndex, NonZeroFirstOffsetRejected)
{
    const CsrGraph g = hub_graph(10, {}, false);
    MemDevice dev;
    GraphFile::write(g, dev);
    poke_offset(dev, 0, 1);
    expect_io_error(dev, "start at 0");
}

TEST(GraphFileIndex, LastOffsetOtherThanEdgeCountRejected)
{
    const CsrGraph g = hub_graph(100, {}, false);
    MemDevice dev;
    GraphFile::write(g, dev);
    poke_offset(dev, g.num_vertices(), g.num_edges() + 1);
    expect_io_error(dev, "edge-count mismatch");
}

/** Write a bare header + index, no edge region: V=2, offsets
 *  {0, x, x}. */
void
craft_index(MemDevice &dev, EdgeIndex x)
{
    const std::uint64_t header[6] = {0x3146524757534f4eULL, 2, x, 0,
                                     48 + 3 * sizeof(EdgeIndex), 0};
    const EdgeIndex offsets[3] = {0, x, x};
    dev.write(0, sizeof(header), header);
    dev.write(sizeof(header), sizeof(offsets), offsets);
}

TEST(GraphFileIndex, GroupSpanningTwoToThe32EdgesRejected)
{
    // One group holding 2^32 edges cannot store entry 1 as a u32.
    MemDevice too_wide;
    craft_index(too_wide, EdgeIndex{1} << 32);
    expect_io_error(too_wide, "2^32");
    // One edge fewer fits the index; only the (absent, 16 GiB) edge
    // region is then missing.
    MemDevice widest;
    craft_index(widest, (EdgeIndex{1} << 32) - 1);
    expect_io_error(widest, "truncated edge region");
}

TEST(GraphFileIndex, InconsistentHeaderRejected)
{
    const CsrGraph g = hub_graph(10, {}, false);
    MemDevice dev;
    GraphFile::write(g, dev);
    std::uint64_t edge_region = 0;
    std::memcpy(&edge_region, dev.bytes().data() + 32, 8);
    ++edge_region;
    std::memcpy(dev.bytes().data() + 32, &edge_region, 8);
    expect_io_error(dev, "does not follow index");

    MemDevice huge;
    craft_index(huge, 0);
    const std::uint64_t too_many =
        std::uint64_t{std::numeric_limits<VertexId>::max()} + 1;
    std::memcpy(huge.bytes().data() + 8, &too_many, 8);
    expect_io_error(huge, "exceeds VertexId");
}

class PartitionTest : public testing::Test {
  protected:
    void
    SetUp() override
    {
        graph_ = sample_graph(false);
        GraphFile::write(graph_, device_);
        file_ = std::make_unique<GraphFile>(device_);
    }

    CsrGraph graph_;
    MemDevice device_;
    std::unique_ptr<GraphFile> file_;
};

TEST_F(PartitionTest, CoversAllVerticesExactlyOnce)
{
    BlockPartition part(*file_, 1024);
    VertexId expected = 0;
    EdgeIndex edges = 0;
    std::uint64_t bytes = 0;
    for (const BlockInfo &b : part.blocks()) {
        EXPECT_EQ(b.first_vertex, expected);
        expected = b.end_vertex;
        edges += b.num_edges;
        bytes += b.byte_size;
    }
    EXPECT_EQ(expected, file_->num_vertices());
    EXPECT_EQ(edges, file_->num_edges());
    EXPECT_EQ(bytes, file_->edge_region_bytes());
}

TEST_F(PartitionTest, BlockSizesRespectTargetOrSingleVertex)
{
    const std::uint64_t target = 512;
    BlockPartition part(*file_, target);
    for (const BlockInfo &b : part.blocks()) {
        if (b.byte_size > target) {
            // Oversized blocks must be a single fat vertex.
            EXPECT_EQ(b.num_vertices(), 1u);
        }
    }
    EXPECT_GE(part.max_block_bytes(), 1u);
    EXPECT_EQ(part.target_block_bytes(), target);
}

TEST_F(PartitionTest, BlockOfIsConsistent)
{
    BlockPartition part(*file_, 777);
    for (VertexId v = 0; v < file_->num_vertices(); ++v) {
        const std::uint32_t b = part.block_of(v);
        EXPECT_TRUE(part.block(b).contains(v)) << "vertex " << v;
    }
}

TEST_F(PartitionTest, SingleBlockWhenTargetHuge)
{
    BlockPartition part(*file_, 1ULL << 40);
    EXPECT_EQ(part.num_blocks(), 1u);
}

TEST_F(PartitionTest, RejectsZeroTarget)
{
    EXPECT_THROW(BlockPartition(*file_, 0), util::ConfigError);
}

TEST_F(PartitionTest, ByteOffsetsMatchFile)
{
    BlockPartition part(*file_, 2048);
    for (const BlockInfo &b : part.blocks()) {
        EXPECT_EQ(b.byte_begin,
                  file_->vertex_byte_offset(b.first_vertex));
        EXPECT_EQ(b.edge_begin, file_->edge_begin(b.first_vertex));
    }
}

} // namespace
} // namespace noswalker::graph
