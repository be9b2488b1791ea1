// Moore-bound property test: no graph on n nodes with maximum degree d can
// beat the Moore ball. From any source, BFS layer k holds at most
// d(d-1)^(k-1) nodes, so filling the layers greedily with the other n-1
// nodes gives a lower bound on every node's eccentricity (hence on the
// diameter) and on every node's distance sum (hence on the ASPL). Every
// named topology family must respect both bounds at a few small sizes; the
// ring and the Petersen graph meet them exactly, so the bound is checked to
// be tight, not vacuous.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/error.hpp"
#include "dsn/graph/graph.hpp"
#include "dsn/graph/metrics.hpp"

namespace dsn {
namespace {

struct MooreBound {
  std::uint32_t diameter = 0;  ///< smallest k with 1 + d * sum_{i<k} (d-1)^i >= n
  double aspl = 0.0;           ///< mean distance of the greedily filled ball
};

MooreBound moore_bound(std::uint64_t n, std::uint64_t d) {
  MooreBound bound;
  std::uint64_t remaining = n - 1;
  std::uint64_t layer_cap = d;  // d (d-1)^(k-1), saturated at n
  std::uint64_t distance_sum = 0;
  while (remaining > 0) {
    ++bound.diameter;
    const std::uint64_t here = std::min(remaining, layer_cap);
    distance_sum += here * bound.diameter;
    remaining -= here;
    layer_cap = std::min(n, layer_cap * (d - 1));
  }
  bound.aspl = static_cast<double>(distance_sum) / static_cast<double>(n - 1);
  return bound;
}

std::uint64_t max_degree(const Graph& g) {
  std::uint64_t d = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) d = std::max<std::uint64_t>(d, g.degree(u));
  return d;
}

/// Checks both bounds; returns the bound for tightness checks.
MooreBound expect_within_moore_bound(const Graph& g) {
  const std::uint64_t d = max_degree(g);
  // With d < 2 a connected graph has at most two nodes; no family is that small.
  EXPECT_GE(d, 2u);
  const PathStats stats = compute_path_stats(g);
  EXPECT_TRUE(stats.connected);
  const MooreBound bound = moore_bound(g.num_nodes(), std::max<std::uint64_t>(d, 2));
  EXPECT_GE(stats.diameter, bound.diameter) << "max degree " << d;
  EXPECT_GE(stats.avg_shortest_path, bound.aspl - 1e-12) << "max degree " << d;
  return bound;
}

TEST(MooreBound, BallArithmetic) {
  // d = 3: the ball grows 1, 4, 10, 22, ... nodes.
  EXPECT_EQ(moore_bound(4, 3).diameter, 1u);
  EXPECT_EQ(moore_bound(5, 3).diameter, 2u);
  EXPECT_EQ(moore_bound(10, 3).diameter, 2u);
  EXPECT_EQ(moore_bound(11, 3).diameter, 3u);
  EXPECT_DOUBLE_EQ(moore_bound(10, 3).aspl, (3.0 * 1 + 6.0 * 2) / 9.0);
  // d = 2: the ball is a path around the source, i.e. the ring.
  EXPECT_EQ(moore_bound(9, 2).diameter, 4u);
  EXPECT_DOUBLE_EQ(moore_bound(9, 2).aspl, (2.0 * (1 + 2 + 3 + 4)) / 8.0);
}

TEST(MooreBound, PetersenGraphMeetsTheBound) {
  // The Petersen graph is a Moore graph: n = 10, d = 3, diameter 2.
  Graph g(10);
  for (NodeId i = 0; i < 5; ++i) {
    g.add_link(i, (i + 1) % 5);          // outer 5-cycle
    g.add_link(i, i + 5);                // spokes
    g.add_link(i + 5, (i + 2) % 5 + 5);  // inner pentagram
  }
  const MooreBound bound = expect_within_moore_bound(g);
  const PathStats stats = compute_path_stats(g);
  EXPECT_EQ(stats.diameter, bound.diameter);
  EXPECT_DOUBLE_EQ(stats.avg_shortest_path, bound.aspl);
}

TEST(MooreBound, EveryFamilyRespectsTheBound) {
  // Square sizes so kleinberg applies; every size is composite for the tori.
  const char* families[] = {"dsn",   "torus", "torus3d",   "random",
                            "ring",  "dln",   "kleinberg", "random-regular",
                            "dsn-d", "dsn-e", "dsn-bidir"};
  for (const char* family : families) {
    int checked = 0;
    for (const std::uint32_t n : {16u, 64u, 100u, 256u}) {
      SCOPED_TRACE(std::string(family) + " n=" + std::to_string(n));
      const std::optional<Topology> topo = [&]() -> std::optional<Topology> {
        try {
          return make_topology_by_name(family, n);
        } catch (const PreconditionError&) {
          return std::nullopt;  // size not realizable for this family
        }
      }();
      if (!topo) continue;
      const MooreBound bound = expect_within_moore_bound(topo->graph);
      if (std::string(family) == "ring") {
        // The ring is the d = 2 Moore graph: both bounds hold with equality.
        const PathStats stats = compute_path_stats(topo->graph);
        EXPECT_EQ(stats.diameter, bound.diameter);
        EXPECT_DOUBLE_EQ(stats.avg_shortest_path, bound.aspl);
      }
      ++checked;
    }
    EXPECT_GE(checked, 2) << family << ": too few realizable sizes";
  }
}

}  // namespace
}  // namespace dsn
