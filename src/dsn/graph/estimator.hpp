// dsn-slint: deterministic — estimates feed the byte-identical Pareto-front
// gates; sampling, sweep order and merges must be pure functions of
// (graph, sources), never of thread count or timing.
//
// Sampled path/load estimator for the shortcut-placement optimizer
// (dsn/opt). A seeded sample of BFS sources is swept with one sharded
// 64-lane MS-BFS pass; each source contributes its hop sum, its reach count
// and the per-link loads of its canonical shortest-path tree (parent =
// minimum (neighbor id, link id) at distance d - 1). The estimate is
// stateless: every candidate graph costs exactly one sweep. Re-sweeping only
// the sources whose trees a swap touches does not pay — on small-world graphs
// nearly every swap touches most sampled trees (measured, DESIGN.md §10).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsn/common/types.hpp"
#include "dsn/graph/csr.hpp"

namespace dsn {

struct EstimatorConfig {
  /// BFS sources sampled without replacement. 0 = auto: all n sources when
  /// n <= 1024 (the estimate is then exact), else 128.
  std::uint32_t sample_sources = 0;
  /// Seed for the source sample (independent of the annealing seed).
  std::uint64_t seed = 0x5eed;
};

/// Aggregate estimate over the sampled sources. With sample_sources == n the
/// ASPL equals compute_path_stats().avg_shortest_path exactly.
struct EstimateView {
  double aspl = 0.0;
  std::uint64_t sum_hops = 0;         ///< over ordered (sampled s, t != s) pairs
  std::uint64_t reachable_pairs = 0;  ///< ditto
  bool sample_connected = true;       ///< every sampled source reached all others
  /// Max per-link load over the sampled sources' canonical shortest-path
  /// trees, each destination weighing 1 (tree loads, not routing-function
  /// loads: deterministic min-id parents, no path splitting).
  std::uint64_t max_link_load = 0;
  /// max_link_load scaled to all n sources and normalized per ordered pair:
  /// max_link_load * n / (S * (n - 1)).
  double max_normalized_load = 0.0;
  double throughput_bound = 0.0;  ///< 1 / max_normalized_load
};

/// Seeded sample of `count` distinct sources from [0, n), ascending.
/// count >= n returns all of [0, n).
std::vector<NodeId> sample_sources(NodeId n, std::uint32_t count, std::uint64_t seed);

/// The sample `cfg` selects on an n-node graph (n >= 2), resolving the auto
/// count.
std::vector<NodeId> sample_sources(NodeId n, const EstimatorConfig& cfg);

/// Scratch for accumulate_tree_loads (reused across calls).
struct TreeLoadScratch {
  std::vector<NodeId> order;           // nodes by descending distance
  std::vector<std::uint64_t> weight;   // subtree destination counts
  std::vector<std::size_t> bucket;     // counting-sort offsets by distance
};

/// Add the per-link loads of the canonical shortest-path tree rooted at the
/// unique dist-0 node: every node v with dist[v] != kUnreachable routes to
/// the root through its canonical parent — the minimum-id neighbor u with
/// dist[u] == dist[v] - 1 (ties on parallel links broken by minimum link id).
/// link_loads is indexed by the CsrView's link ids. O(n + m).
void accumulate_tree_loads(const CsrView& g, std::span<const std::uint32_t> dist,
                           std::span<std::uint64_t> link_loads, TreeLoadScratch& scratch);

/// Totals of one sweep over a source set.
struct TreeSweep {
  std::vector<std::uint64_t> link_loads;  ///< canonical-tree loads by link id
  std::uint64_t sum_hops = 0;             ///< over (source, reached t != source)
  std::uint64_t reachable_pairs = 0;
};

/// One sharded 64-lane MS-BFS sweep from `sources` under the global thread
/// pool, folding every source's tree loads (accumulate_tree_loads), hop sum
/// and reach count. Per-shard integer totals merge in shard order, so the
/// result is identical for any thread count.
TreeSweep sweep_trees(const CsrView& csr, std::span<const NodeId> sources);

/// Estimate of `csr` over `sources` (non-empty, n >= 2): one sweep_trees.
EstimateView estimate_paths(const CsrView& csr, std::span<const NodeId> sources);

}  // namespace dsn
