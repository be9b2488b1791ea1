// dsn-slint: deterministic — estimates feed the byte-identical Pareto-front
// gates; sampling, sweep order and merges must be pure functions of
// (graph, sources), never of thread count or timing.
//
// Sampled path/load estimator for the shortcut-placement optimizer
// (dsn/opt). A seeded sample of BFS sources is swept in sharded 64-lane
// batches; each source contributes its hop sum, its reach count and the
// per-link loads of its canonical shortest-path tree (parent = minimum
// (neighbor id, link id) at distance d - 1). A batch is one fused kernel:
// the MS-BFS forward pass records each level's (node, lane-mask)
// discoveries, then one reverse pass, deepest level first, hands every
// lane's subtree weight to its canonical parent for all 64 lanes at once —
// no per-lane distance row is ever materialized. The estimate is
// stateless: every candidate graph costs exactly one sweep, and only the
// sweep's scratch (SweepWorkspace) outlives it. Re-sweeping only the
// sources whose trees a swap touches does not pay — on small-world graphs
// nearly every swap touches most sampled trees (measured, DESIGN.md §10).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsn/common/types.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/graph/msbfs.hpp"

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

/// Totals of one sweep over a source set.
struct TreeSweep {
  std::vector<std::uint64_t> link_loads;  ///< canonical-tree loads by link id
  std::uint64_t sum_hops = 0;             ///< over (source, reached t != source)
  std::uint64_t reachable_pairs = 0;
};

/// One shard's working set for sweep_trees. The weight matrix is all zero
/// between batches, so a reused shard never re-clears it.
struct TreeSweepShard {
  MsBfsScratch bfs;
  std::vector<std::uint32_t> weight;      ///< n x 64 subtree weights, node-major
  std::vector<NodeId> level_nodes;        ///< forward-pass discoveries, by level
  std::vector<std::uint64_t> level_masks; ///< lanes that reached level_nodes[k]
  std::vector<std::size_t> level_start;   ///< level L = [start[L], start[L + 1])
  TreeSweep part;                         ///< this shard's totals
};

/// Per-shard scratch kept alive across sweeps: a caller that sweeps many
/// graphs of one size (the optimizer) allocates it once. It grows to the
/// largest shard count and node count it has seen.
struct SweepWorkspace {
  std::vector<TreeSweepShard> shards;
};

/// One sharded 64-lane sweep from `sources` under the global thread pool,
/// folding every source's canonical-tree loads, hop sum and reach count.
/// Per-shard integer totals merge in shard order, so the result is
/// identical for any thread count.
TreeSweep sweep_trees(const CsrView& csr, std::span<const NodeId> sources,
                      SweepWorkspace& workspace);

/// One-shot sweep_trees with a workspace of its own.
TreeSweep sweep_trees(const CsrView& csr, std::span<const NodeId> sources);

/// Estimate of `csr` over `sources` (non-empty, n >= 2): one sweep_trees.
EstimateView estimate_paths(const CsrView& csr, std::span<const NodeId> sources,
                            SweepWorkspace& workspace);

}  // namespace dsn
