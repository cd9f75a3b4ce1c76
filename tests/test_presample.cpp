/**
 * @file
 * Tests for the compact pre-sample buffer (§3.3.2–§3.3.4).
 */
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <utility>

#include "core/presample_buffer.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "storage/block_reader.hpp"
#include "storage/mem_device.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace noswalker::core {
namespace {

class PreSampleTest : public testing::Test {
  protected:
    void
    SetUp() override
    {
        // Star graph: hub 0 has high degree, leaves degree 1 (direct).
        graph_ = graph::generate_star(64);
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ = std::make_unique<graph::BlockPartition>(
            *file_, 1ULL << 20); // single block
        reader_ = std::make_unique<storage::BlockReader>(*file_,
                                                         unbudgeted_);
        reader_->load_coarse(partition_->block(0), buffer_);
    }

    PreSampleBuffer::BuildParams
    params(std::uint64_t max_bytes = 1 << 16)
    {
        PreSampleBuffer::BuildParams p;
        p.max_bytes = max_bytes;
        p.base_quota = 4;
        p.max_quota = 16;
        p.low_degree_cutoff = 2;
        return p;
    }

    void
    fill(PreSampleBuffer &ps)
    {
        auto sampler = [this](const graph::VertexView &view) {
            return view.sample_uniform(rng_);
        };
        const graph::BlockInfo &block = partition_->block(0);
        for (graph::VertexId v = block.first_vertex;
             v < block.end_vertex; ++v) {
            if (ps.quota(v) > 0) {
                ps.fill_vertex(buffer_.view(*file_, v), sampler);
            }
        }
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
    util::MemoryBudget unbudgeted_{0};
    std::unique_ptr<storage::BlockReader> reader_;
    storage::BlockBuffer buffer_;
    util::Rng rng_{11};
};

TEST_F(PreSampleTest, LowDegreeVerticesAreDirect)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    // Leaves (degree 1 <= cutoff 2) are direct; the hub is sampled.
    EXPECT_FALSE(ps.is_direct(0));
    for (graph::VertexId v = 1; v < 64; ++v) {
        ASSERT_TRUE(ps.is_direct(v)) << v;
        ASSERT_TRUE(ps.has(v));
        const graph::VertexView view = ps.direct_view(v);
        ASSERT_EQ(view.degree(), 1u);
        EXPECT_EQ(view.targets[0], 0u); // leaf points at hub
    }
}

TEST_F(PreSampleTest, DirectVerticesNeverRunDry)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(ps.has(1));
    }
}

TEST_F(PreSampleTest, SampledDrawsAreRealEdgesAndAccounted)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    const std::uint32_t q = ps.quota(0);
    ASSERT_GT(q, 0u);
    // Draws are with replacement from the walker's stream, and drying
    // only becomes visible once publish_drain() runs — so within one
    // step round the reservoir serves freely.
    util::Rng rng(7);
    for (std::uint32_t i = 0; i < 2 * q; ++i) {
        ASSERT_TRUE(ps.has(0));
        const graph::VertexId next = ps.sample(0, rng);
        // The hub's samples must be real neighbours.
        EXPECT_TRUE(graph_.has_edge(0, next));
        ps.consume(0);
    }
    EXPECT_TRUE(ps.has(0));
    EXPECT_EQ(ps.visits(0), 2 * q);
    // consumed_fraction is buffer-wide: 2q draws over all slots.
    EXPECT_DOUBLE_EQ(ps.consumed_fraction(),
                     static_cast<double>(2 * q) /
                         static_cast<double>(ps.slot_count()));
}

TEST_F(PreSampleTest, PublishedDrainDriesSampledVertices)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    const std::uint32_t q = ps.quota(0);
    util::Rng rng(13);
    // Consume a full quota: still available until the snapshot is
    // published (round-granular visibility).
    for (std::uint32_t i = 0; i < q; ++i) {
        ps.sample(0, rng);
        ps.consume(0);
    }
    EXPECT_TRUE(ps.has(0));
    ps.publish_drain();
    EXPECT_FALSE(ps.has(0));
    // Direct vertices hold the real adjacency and never dry.
    ps.consume(1);
    ps.publish_drain();
    EXPECT_TRUE(ps.has(1));
}

TEST_F(PreSampleTest, SampleIsAFunctionOfTheCallerStream)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    // Identically seeded streams see identical slot picks regardless of
    // interleaved draws by other streams — the property that makes
    // pre-sample-served steps thread-count independent.
    util::Rng a(21), b(21), interloper(99);
    for (int i = 0; i < 32; ++i) {
        const graph::VertexId from_a = ps.sample(0, a);
        ps.sample(0, interloper);
        const graph::VertexId from_b = ps.sample(0, b);
        EXPECT_EQ(from_a, from_b);
    }
}

TEST_F(PreSampleTest, StallVisitsFeedHistory)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    fill(ps);
    const std::uint32_t before = ps.visits(0);
    ps.record_visit(0);
    ps.record_visit(0);
    EXPECT_EQ(ps.visits(0), before + 2);
}

TEST_F(PreSampleTest, HistoryReweightsQuotas)
{
    util::MemoryBudget budget(0);
    // Use a skewed RMAT block so multiple vertices compete for slots.
    auto g = graph::generate_rmat(
        {.scale = 7, .edge_factor = 16, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 3, .symmetrize = false, .weighted = false});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 1ULL << 20);
    storage::BlockReader reader(file, unbudgeted_);
    storage::BlockBuffer buf;
    reader.load_coarse(part.block(0), buf);

    PreSampleBuffer::BuildParams p = params(8192);
    PreSampleBuffer first(file, part.block(0), p, nullptr, budget);

    // Find two comparable high-degree vertices.
    graph::VertexId hot = graph::kInvalidVertex;
    graph::VertexId cold = graph::kInvalidVertex;
    for (graph::VertexId v = 0; v < file.num_vertices(); ++v) {
        if (file.degree(v) > p.low_degree_cutoff &&
            first.quota(v) > 0) {
            if (hot == graph::kInvalidVertex) {
                hot = v;
            } else if (cold == graph::kInvalidVertex) {
                cold = v;
                break;
            }
        }
    }
    ASSERT_NE(hot, graph::kInvalidVertex);
    ASSERT_NE(cold, graph::kInvalidVertex);

    // Hammer `hot` with visits.
    for (int i = 0; i < 500; ++i) {
        first.record_visit(hot);
    }
    PreSampleBuffer second(file, part.block(0), p, &first, budget);
    EXPECT_GT(second.quota(hot), second.quota(cold));
    EXPECT_GE(second.quota(hot), first.quota(hot));
}

TEST_F(PreSampleTest, ZeroDegreeVerticesGetNoSlots)
{
    // Graph with an isolated vertex.
    graph::CsrGraph g({0, 1, 1}, {0});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 1 << 20);
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(file, part.block(0), params(), nullptr, budget);
    EXPECT_EQ(ps.quota(1), 0u);
    EXPECT_FALSE(ps.has(1));
}

TEST_F(PreSampleTest, UnfilledVertexReportsEmpty)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer ps(*file_, partition_->block(0), params(), nullptr,
                       budget);
    // No fill_vertex calls yet.
    EXPECT_FALSE(ps.has(0));
    EXPECT_FALSE(ps.is_direct(1));
}

TEST_F(PreSampleTest, MemoryIsBudgetedAndReleased)
{
    util::MemoryBudget budget(1 << 20);
    {
        PreSampleBuffer ps(*file_, partition_->block(0), params(),
                           nullptr, budget);
        EXPECT_GT(budget.used(), 0u);
        EXPECT_EQ(budget.used(), ps.memory_bytes());
    }
    EXPECT_EQ(budget.used(), 0u);
}

TEST_F(PreSampleTest, TinyCapThrowsBudgetExceeded)
{
    util::MemoryBudget budget(0);
    EXPECT_THROW(PreSampleBuffer(*file_, partition_->block(0), params(8),
                                 nullptr, budget),
                 util::BudgetExceeded);
}

TEST_F(PreSampleTest, PlanNamesTheBytesTheBufferReserves)
{
    // A cap below the meta arrays has no plan; otherwise the planned
    // bytes are exactly what the allocated buffer charges.
    EXPECT_FALSE(PreSampleBuffer::plan(*file_, partition_->block(0),
                                       params(8), nullptr));
    std::optional<PreSampleBuffer::Plan> plan = PreSampleBuffer::plan(
        *file_, partition_->block(0), params(), nullptr);
    ASSERT_TRUE(plan);
    EXPECT_LE(plan->bytes, params().max_bytes);
    const std::uint64_t planned = plan->bytes;
    util::MemoryBudget budget(planned);
    PreSampleBuffer ps(std::move(*plan), budget);
    EXPECT_EQ(ps.memory_bytes(), planned);
    EXPECT_EQ(budget.used(), planned);
}

TEST_F(PreSampleTest, PlanNeverExceedsTheCap)
{
    // A skewed block mixes direct (low-degree) and sampled vertices.
    // Whenever the quotas overshoot the cap, only the sampled ones
    // shrink, so they must shrink into what the direct slots leave;
    // a cap the direct slots alone exceed has no plan.
    auto g = graph::generate_rmat(
        {.scale = 12, .edge_factor = 8, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 5, .symmetrize = false, .weighted = false});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, file.edge_region_bytes() + 1);
    ASSERT_EQ(part.num_blocks(), 1u);
    const graph::BlockInfo &block = part.block(0);

    PreSampleBuffer::BuildParams p;
    p.base_quota = 4;
    p.max_quota = 1024;
    p.low_degree_cutoff = 2;
    p.max_bytes = ~std::uint64_t{0};
    const std::optional<PreSampleBuffer::Plan> full =
        PreSampleBuffer::plan(file, block, p, nullptr);
    ASSERT_TRUE(full);

    int planned = 0;
    for (int i = 1; i < 128; ++i) {
        p.max_bytes = full->bytes * i / 128;
        const std::optional<PreSampleBuffer::Plan> plan =
            PreSampleBuffer::plan(file, block, p, nullptr);
        if (plan) {
            ++planned;
            EXPECT_LE(plan->bytes, p.max_bytes) << "cap " << p.max_bytes;
        }
    }
    EXPECT_GE(planned, 16) << "the sweep must reach capped plans";
}

TEST_F(PreSampleTest, WeightedDirectViewCarriesWeights)
{
    auto g = graph::generate_rmat(
        {.scale = 6, .edge_factor = 2, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 8, .symmetrize = false, .weighted = true});
    storage::MemDevice dev;
    graph::GraphFile::write(g, dev);
    graph::GraphFile file(dev);
    graph::BlockPartition part(file, 1 << 20);
    storage::BlockReader reader(file, unbudgeted_);
    storage::BlockBuffer buf;
    reader.load_coarse(part.block(0), buf);

    util::MemoryBudget budget(0);
    PreSampleBuffer ps(file, part.block(0), params(), nullptr, budget);
    auto sampler = [this](const graph::VertexView &view) {
        return view.sample_uniform(rng_);
    };
    graph::VertexId direct = graph::kInvalidVertex;
    for (graph::VertexId v = 0; v < file.num_vertices(); ++v) {
        if (ps.quota(v) > 0) {
            ps.fill_vertex(buf.view(file, v), sampler);
            if (ps.is_direct(v)) {
                direct = v;
            }
        }
    }
    ASSERT_NE(direct, graph::kInvalidVertex);
    const graph::VertexView view = ps.direct_view(direct);
    ASSERT_EQ(view.weights.size(), view.targets.size());
    const auto ref_w = g.weights(direct);
    for (std::uint32_t i = 0; i < view.degree(); ++i) {
        EXPECT_FLOAT_EQ(view.weights[i], ref_w[i]);
    }
}

TEST_F(PreSampleTest, QuotaCapRespected)
{
    util::MemoryBudget budget(0);
    PreSampleBuffer::BuildParams p = params(1 << 20);
    p.max_quota = 5;
    PreSampleBuffer ps(*file_, partition_->block(0), p, nullptr, budget);
    EXPECT_LE(ps.quota(0), 5u); // hub capped despite huge byte budget
}

} // namespace
} // namespace noswalker::core
