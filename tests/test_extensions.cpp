/**
 * @file
 * Tests for the adoption extensions: text edge-list I/O and Random
 * Walk with Restart.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>

#include "apps/rwr.hpp"
#include "baselines/inmemory.hpp"
#include "core/noswalker_engine.hpp"
#include "graph/edge_list_io.hpp"
#include "graph/generators.hpp"
#include "graph/graph_file.hpp"
#include "graph/partition.hpp"
#include "recording_app.hpp"
#include "storage/mem_device.hpp"
#include "util/error.hpp"

namespace noswalker {
namespace {

TEST(EdgeListIo, ParsesCommentsAndEdges)
{
    std::istringstream in("# header\n"
                          "% another comment\n"
                          "0 1\n"
                          "  1 2\n"
                          "\n"
                          "2 0\n");
    const auto edges = graph::read_edge_list(in);
    ASSERT_EQ(edges.size(), 3u);
    EXPECT_EQ(edges[0].src, 0u);
    EXPECT_EQ(edges[0].dst, 1u);
    EXPECT_EQ(edges[2].src, 2u);
}

TEST(EdgeListIo, ParsesWeights)
{
    std::istringstream in("0 1 2.5\n1 0 0.5\n");
    graph::EdgeListOptions opt;
    opt.weighted = true;
    const auto edges = graph::read_edge_list(in, opt);
    ASSERT_EQ(edges.size(), 2u);
    EXPECT_FLOAT_EQ(edges[0].weight, 2.5f);
    EXPECT_FLOAT_EQ(edges[1].weight, 0.5f);
}

TEST(EdgeListIo, MalformedLineThrowsWithLineNumber)
{
    std::istringstream in("0 1\nnot an edge\n");
    try {
        graph::read_edge_list(in);
        FAIL() << "expected ConfigError";
    } catch (const util::ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
    }
}

TEST(EdgeListIo, MissingWeightThrows)
{
    std::istringstream in("0 1\n");
    graph::EdgeListOptions opt;
    opt.weighted = true;
    EXPECT_THROW(graph::read_edge_list(in, opt), util::ConfigError);
}

TEST(EdgeListIo, RoundTripThroughFile)
{
    const graph::CsrGraph original = graph::generate_rmat(
        {.scale = 7, .edge_factor = 4, .a = 0.57, .b = 0.19, .c = 0.19,
         .seed = 5, .symmetrize = false, .weighted = true});
    const std::string path = testing::TempDir() + "noswalker_el.txt";
    graph::save_edge_list(original, path);

    graph::EdgeListOptions opt;
    opt.weighted = true;
    opt.build.num_vertices = original.num_vertices();
    const graph::CsrGraph loaded = graph::load_edge_list(path, opt);
    EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
    EXPECT_EQ(loaded.num_edges(), original.num_edges());
    for (graph::VertexId v = 0; v < original.num_vertices(); ++v) {
        ASSERT_EQ(loaded.degree(v), original.degree(v)) << v;
        const auto a = original.neighbors(v);
        const auto b = loaded.neighbors(v);
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a[i], b[i]);
        }
    }
    std::remove(path.c_str());
}

TEST(EdgeListIo, MissingFileThrows)
{
    EXPECT_THROW(graph::load_edge_list("/no/such/file.txt"),
                 util::IoError);
}

class RwrTest : public testing::Test {
  protected:
    void
    SetUp() override
    {
        graph_ = graph::generate_uniform(500, 8, 91);
        graph::GraphFile::write(graph_, device_);
        file_ = std::make_unique<graph::GraphFile>(device_);
        partition_ =
            std::make_unique<graph::BlockPartition>(*file_, 4096);
    }

    graph::CsrGraph graph_;
    storage::MemDevice device_;
    std::unique_ptr<graph::GraphFile> file_;
    std::unique_ptr<graph::BlockPartition> partition_;
};

TEST_F(RwrTest, StepBudgetIsExact)
{
    apps::RandomWalkWithRestart app(7, 50, 20, 0.15);
    baselines::InMemoryEngine<apps::RandomWalkWithRestart> eng(*file_);
    const auto stats = eng.run(app, app.total_walkers());
    EXPECT_EQ(stats.walkers, 50u);
    EXPECT_EQ(stats.steps, 50u * 20);
}

TEST_F(RwrTest, SourceDominatesProximity)
{
    apps::RandomWalkWithRestart app(7, 200, 30, 0.3);
    baselines::InMemoryEngine<apps::RandomWalkWithRestart> eng(*file_);
    eng.run(app, app.total_walkers());
    const auto top = app.top_k(1);
    ASSERT_EQ(top.size(), 1u);
    // With restart 0.3 the source is revisited ~30% of steps — far
    // more than any vertex of a 500-vertex near-regular graph.
    EXPECT_EQ(top[0].first, 7u);
    EXPECT_NEAR(app.proximity(7), 0.3, 0.05);
}

TEST_F(RwrTest, ZeroRestartNeverTeleports)
{
    apps::RandomWalkWithRestart app(7, 50, 10, 0.0);
    baselines::InMemoryEngine<apps::RandomWalkWithRestart> eng(*file_);
    const auto stats = eng.run(app, app.total_walkers());
    EXPECT_EQ(stats.steps, 500u);
    // Visits to the source only happen via real edges; proximity is
    // small on a 500-vertex graph.
    EXPECT_LT(app.proximity(7), 0.05);
}

TEST_F(RwrTest, RunsUnderNosWalkerOutOfCore)
{
    apps::RandomWalkWithRestart app(3, 100, 25, 0.2);
    const std::uint64_t budget =
        testing_support::tight_budget(*file_, *partition_);
    core::EngineConfig cfg = core::EngineConfig::full(budget, 4096);
    core::NosWalkerEngine<apps::RandomWalkWithRestart> eng(
        *file_, *partition_, cfg);
    const auto stats = eng.run(app, app.total_walkers());
    EXPECT_EQ(stats.steps, 100u * 25);
    EXPECT_LE(stats.peak_memory, budget);
    // Restarts never consume pre-samples: the proximity of the source
    // must still reflect ~20% of steps.
    EXPECT_NEAR(app.proximity(3), 0.2, 0.05);
}

TEST_F(RwrTest, MatchesInMemoryDistribution)
{
    // Both engines must agree on the stationary proximity estimates.
    // 2000 walkers keep the Monte-Carlo noise of each estimate well
    // inside the tolerances below (~4σ) so the comparison is stable
    // across RNG stream layouts.
    apps::RandomWalkWithRestart a1(3, 2000, 25, 0.25);
    apps::RandomWalkWithRestart a2(3, 2000, 25, 0.25);
    baselines::InMemoryEngine<apps::RandomWalkWithRestart> im(*file_);
    im.run(a1, a1.total_walkers());
    // A finite budget, so pre-samples serve steps: they must not skew
    // the estimates (an unlimited budget would skip them, DESIGN.md
    // §16).
    core::EngineConfig cfg = core::EngineConfig::full(
        testing_support::tight_budget(*file_, *partition_), 4096);
    core::NosWalkerEngine<apps::RandomWalkWithRestart> nw(
        *file_, *partition_, cfg);
    const auto stats = nw.run(a2, a2.total_walkers());
    EXPECT_GT(stats.presample_steps, 0u);
    EXPECT_NEAR(a1.proximity(3), a2.proximity(3), 0.04);
    // A direct neighbour of the source receives comparable mass too.
    const graph::VertexId nbr = graph_.neighbors(3)[0];
    EXPECT_NEAR(a1.proximity(nbr), a2.proximity(nbr), 0.02);
}

} // namespace
} // namespace noswalker
