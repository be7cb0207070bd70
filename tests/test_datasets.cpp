#include "eval/datasets.h"

#include <gtest/gtest.h>

#include <limits>

#include "graph/stats.h"
#include "seq/kcore_seq.h"
#include "util/check.h"

namespace kcore::eval {
namespace {

constexpr double kTinyScale = 0.02;  // keep profile builds fast in tests

TEST(Datasets, RegistryHasAllNinePaperRows) {
  const auto& registry = dataset_registry();
  ASSERT_EQ(registry.size(), 9U);
  EXPECT_EQ(registry[0].paper_name, "CA-AstroPh");
  EXPECT_EQ(registry[6].paper_name, "web-BerkStan");
  EXPECT_EQ(registry[8].paper_name, "wiki-Talk");
}

TEST(Datasets, LookupByName) {
  EXPECT_EQ(dataset_by_name("roadnet-like").paper_name, "roadNet-TX");
  EXPECT_THROW((void)dataset_by_name("no-such-profile"), util::CheckError);
}

TEST(Datasets, PaperStatsTranscribedSanely) {
  for (const auto& spec : dataset_registry()) {
    EXPECT_GT(spec.paper.nodes, 10000U) << spec.name;
    EXPECT_GT(spec.paper.edges, spec.paper.nodes / 2) << spec.name;
    EXPECT_GT(spec.paper.k_max, 0U) << spec.name;
    EXPECT_GT(spec.paper.t_avg, 0.0) << spec.name;
    EXPECT_LE(spec.paper.t_min, spec.paper.t_avg) << spec.name;
    EXPECT_GE(spec.paper.t_max, spec.paper.t_avg) << spec.name;
  }
}

class DatasetBuild : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DatasetBuild, BuildsNonTrivialGraph) {
  const auto& spec = dataset_registry()[GetParam()];
  const auto g = spec.build(kTinyScale, 1);
  EXPECT_GE(g.num_nodes(), 200U) << spec.name;
  EXPECT_GT(g.num_edges(), g.num_nodes() / 2) << spec.name;
}

TEST_P(DatasetBuild, DeterministicBySeed) {
  const auto& spec = dataset_registry()[GetParam()];
  EXPECT_EQ(spec.build(kTinyScale, 7), spec.build(kTinyScale, 7));
}

TEST_P(DatasetBuild, DifferentSeedsDiffer) {
  const auto& spec = dataset_registry()[GetParam()];
  EXPECT_NE(spec.build(kTinyScale, 7), spec.build(kTinyScale, 8));
}

TEST_P(DatasetBuild, ScaleGrowsGraph) {
  const auto& spec = dataset_registry()[GetParam()];
  const auto small = spec.build(kTinyScale, 3);
  const auto large = spec.build(kTinyScale * 4, 3);
  EXPECT_GT(large.num_nodes(), small.num_nodes()) << spec.name;
}

TEST_P(DatasetBuild, RefusesAScalePastTheNodeIdRange) {
  // KCORE_SCALE=1e12 or `kcore generate --scale 1e12` would otherwise
  // cast a node count past 2^32 to graph::NodeId.
  const auto& spec = dataset_registry()[GetParam()];
  for (const double scale :
       {1e12, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)spec.build(scale, 1), util::CheckError)
        << spec.name << " scale " << scale;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, DatasetBuild,
                         ::testing::Range<std::size_t>(0, 9),
                         [](const auto& suite_info) {
                           std::string name =
                               dataset_registry()[suite_info.param].name;
                           for (auto& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(DatasetCharacter, BerkstanLikeIsSlowAndDeep) {
  // The berkstan profile must combine a dense core with a large diameter —
  // that is what reproduces Table 2.
  const auto& spec = dataset_by_name("berkstan-like");
  const auto g = spec.build(0.1, 1);
  const auto c = seq::coreness_bz(g);
  const auto s = seq::summarize_coreness(c);
  EXPECT_GE(s.k_max, 20U);
  EXPECT_GE(graph::diameter_lower_bound(g, 1), 25U);
}

TEST(DatasetCharacter, RoadnetLikeIsShallowAndWide) {
  const auto& spec = dataset_by_name("roadnet-like");
  const auto g = spec.build(0.1, 1);
  const auto s = seq::summarize_coreness(seq::coreness_bz(g));
  EXPECT_LE(s.k_max, 4U);  // paper: 3
  EXPECT_GE(graph::diameter_lower_bound(g, 1), 20U);
}

TEST(DatasetCharacter, WikitalkLikeHasLowAverageHighMaxCoreness) {
  const auto& spec = dataset_by_name("wikitalk-like");
  const auto g = spec.build(0.1, 1);
  const auto s = seq::summarize_coreness(seq::coreness_bz(g));
  EXPECT_LT(s.k_avg, 4.0);   // paper: 1.96
  EXPECT_GE(s.k_max, 20U);   // deep planted core among hubs
}

TEST(DatasetCharacter, GnutellaLikeIsFlat) {
  const auto& spec = dataset_by_name("gnutella-like");
  const auto g = spec.build(0.1, 1);
  const auto s = seq::summarize_coreness(seq::coreness_bz(g));
  EXPECT_LE(s.k_max, 8U);  // paper: 6
}

TEST(DatasetCharacter, SlashdotLikeHasHubs) {
  const auto& spec = dataset_by_name("slashdot-like");
  const auto g = spec.build(0.1, 1);
  EXPECT_GT(g.max_degree(), 10 * static_cast<graph::NodeId>(
                                     g.average_degree()));
}

}  // namespace
}  // namespace kcore::eval
