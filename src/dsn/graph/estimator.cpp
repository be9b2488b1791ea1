// dsn-slint: deterministic — estimates feed the byte-identical Pareto-front
// gates; sampling, sweep order and merges must be pure functions of
// (graph, sources), never of thread count or timing.
#include "dsn/graph/estimator.hpp"

#include <algorithm>
#include <bit>
#include <numeric>

#include "dsn/common/error.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/msbfs.hpp"
#include "dsn/obs/obs.hpp"

namespace dsn {

std::vector<NodeId> sample_sources(NodeId n, std::uint32_t count, std::uint64_t seed) {
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  if (count >= n) return all;
  // Partial Fisher-Yates: the first `count` entries are a uniform sample
  // without replacement; sorting makes the sweep order id-ascending.
  Rng rng(seed);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto j = i + static_cast<NodeId>(rng.next_below(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

std::vector<NodeId> sample_sources(NodeId n, const EstimatorConfig& cfg) {
  DSN_REQUIRE(n > 1, "estimator needs at least two nodes");
  const std::uint32_t count =
      cfg.sample_sources != 0 ? cfg.sample_sources : (n <= 1024 ? n : 128);
  return sample_sources(n, count, cfg.seed);
}

namespace {

#if DSN_OBS
struct EstimatorMetrics {
  obs::MetricId fold_ns = obs::MetricsRegistry::global().counter("dsn.graph.tree_fold_ns");

  static const EstimatorMetrics& get() {
    static EstimatorMetrics metrics;
    return metrics;
  }
};
#endif  // DSN_OBS

/// Level-list entries reserved per node: a 64-lane batch on the
/// small-world families records 6-10 (node, mask) entries per node (DSN
/// n = 16384: 9.2); a ring records ~64.
constexpr std::size_t kLevelEntriesPerNode = 16;

/// One 64-lane batch: the forward MS-BFS pass records every level's
/// discoveries and the hop/reach totals, then the reverse pass folds the
/// canonical-tree loads into `sh.part`.
void sweep_batch(const CsrView& csr, std::span<const NodeId> sources, TreeSweepShard& sh) {
  sh.level_nodes.clear();
  sh.level_masks.clear();
  sh.level_start.assign(1, 0);
  std::uint64_t hops = 0;
  std::uint64_t reached = 0;
  msbfs_sweep(
      csr, sources, sh.bfs, [](NodeId, std::uint32_t, std::uint64_t) {},
      [&](std::uint32_t level, std::span<const NodeId> nodes, const std::uint64_t* masks) {
        for (const NodeId v : nodes) {
          const std::uint64_t mask = masks[v];
          const auto lanes = static_cast<std::uint64_t>(std::popcount(mask));
          hops += level * lanes;
          reached += lanes;
          sh.level_nodes.push_back(v);
          sh.level_masks.push_back(mask);
        }
        sh.level_start.push_back(sh.level_nodes.size());
      });
  // Level 0 holds the sources themselves: their lanes are not pairs.
  sh.part.sum_hops += hops;
  sh.part.reachable_pairs += reached - sources.size();

  DSN_OBS_TIMER(EstimatorMetrics::get().fold_ns);
  // Reverse pass, deepest level first. `visit` (all zero after the sweep)
  // holds level L - 1's lane masks while level L pulls from it: a level-L
  // node's lanes in rem find their canonical parent as the minimum
  // (neighbor id, link id) among neighbors whose mask meets rem. Each lane
  // hands its subtree weight (itself plus everything already handed to it)
  // to that parent and onto that link, and its own weight returns to zero.
  std::uint64_t* const visit = sh.bfs.visit.data();
  std::uint32_t* const weight = sh.weight.data();
  std::uint64_t* const link_loads = sh.part.link_loads.data();
  const auto scatter = [&](std::size_t level, bool set) {
    for (std::size_t k = sh.level_start[level]; k < sh.level_start[level + 1]; ++k)
      visit[sh.level_nodes[k]] = set ? sh.level_masks[k] : 0;
  };
  for (std::size_t level = sh.level_start.size() - 2; level >= 1; --level) {
    scatter(level - 1, true);
    for (std::size_t k = sh.level_start[level]; k < sh.level_start[level + 1]; ++k) {
      const NodeId v = sh.level_nodes[k];
      const auto nbrs = csr.neighbors(v);
      const auto lnks = csr.links(v);
      std::uint32_t* const wv = weight + static_cast<std::size_t>(v) * kMsBfsBatch;
      std::uint64_t rem = sh.level_masks[k];
      do {
        NodeId best_u = kInvalidNode;
        LinkId best_link = 0;
        for (std::size_t j = 0; j < nbrs.size(); ++j) {
          const NodeId u = nbrs[j];
          if ((visit[u] & rem) == 0) continue;
          if (u < best_u || (u == best_u && lnks[j] < best_link)) {
            best_u = u;
            best_link = lnks[j];
          }
        }
        DSN_ASSERT(best_u != kInvalidNode, "reachable node must have a tight parent");
        std::uint64_t served = visit[best_u] & rem;
        rem &= ~served;
        std::uint32_t* const wu = weight + static_cast<std::size_t>(best_u) * kMsBfsBatch;
        std::uint64_t load = 0;
        do {
          const int lane = std::countr_zero(served);
          const std::uint32_t w = wv[lane] + 1;
          wv[lane] = 0;
          wu[lane] += w;
          load += w;
          served &= served - 1;
        } while (served != 0);
        link_loads[best_link] += load;
      } while (rem != 0);
    }
    scatter(level - 1, false);
  }
  // The sources keep their whole trees' weights; clear them for the next batch.
  for (std::size_t k = sh.level_start[0]; k < sh.level_start[1]; ++k) {
    std::uint32_t* const ws = weight + static_cast<std::size_t>(sh.level_nodes[k]) * kMsBfsBatch;
    for (std::uint64_t m = sh.level_masks[k]; m != 0; m &= m - 1) ws[std::countr_zero(m)] = 0;
  }
}

}  // namespace

TreeSweep sweep_trees(const CsrView& csr, std::span<const NodeId> sources,
                      SweepWorkspace& workspace) {
  const NodeId n = csr.num_nodes();
  const std::size_t num_links = csr.num_arcs() / 2;
  TreeSweep total;
  total.link_loads.assign(num_links, 0);
  if (n == 0 || sources.empty()) return total;

  ThreadPool& pool = ThreadPool::global();
  const std::size_t batches = (sources.size() + kMsBfsBatch - 1) / kMsBfsBatch;
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(batches, 4 * pool.size()));
  // Every buffer is sized here, on the calling thread, so a workspace's
  // memory comes from one allocator arena instead of one per pool worker
  // (a worker's arena keeps what a later run frees). Level lists past
  // kLevelEntriesPerNode * n may still grow inside a task.
  if (workspace.shards.size() < shards) workspace.shards.resize(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    TreeSweepShard& sh = workspace.shards[k];
    if (sh.weight.size() < static_cast<std::size_t>(n) * kMsBfsBatch)
      sh.weight.assign(static_cast<std::size_t>(n) * kMsBfsBatch, 0);
    for (auto* v : {&sh.bfs.seen, &sh.bfs.visit, &sh.bfs.next}) v->reserve(n);
    sh.bfs.frontier.reserve(n);
    sh.bfs.next_frontier.reserve(n);
    sh.level_nodes.reserve(kLevelEntriesPerNode * n);
    sh.level_masks.reserve(kLevelEntriesPerNode * n);
    sh.part.link_loads.assign(num_links, 0);
    sh.part.sum_hops = 0;
    sh.part.reachable_pairs = 0;
  }

  pool.parallel_for(0, shards, [&](std::size_t k) {
    TreeSweepShard& sh = workspace.shards[k];
    const std::size_t begin = k * batches / shards;
    const std::size_t end = (k + 1) * batches / shards;
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t lo = b * kMsBfsBatch;
      const std::size_t lanes = std::min<std::size_t>(sources.size() - lo, kMsBfsBatch);
      sweep_batch(csr, sources.subspan(lo, lanes), sh);
    }
  });

  // Integer sums in shard order: identical for any shard count.
  for (std::size_t k = 0; k < shards; ++k) {
    const TreeSweep& part = workspace.shards[k].part;
    total.sum_hops += part.sum_hops;
    total.reachable_pairs += part.reachable_pairs;
    for (std::size_t l = 0; l < num_links; ++l) total.link_loads[l] += part.link_loads[l];
  }
  return total;
}

TreeSweep sweep_trees(const CsrView& csr, std::span<const NodeId> sources) {
  SweepWorkspace workspace;
  return sweep_trees(csr, sources, workspace);
}

EstimateView estimate_paths(const CsrView& csr, std::span<const NodeId> sources,
                            SweepWorkspace& workspace) {
  const NodeId n = csr.num_nodes();
  DSN_REQUIRE(n > 1 && !sources.empty(), "estimate needs two nodes and a source");
  const TreeSweep sweep = sweep_trees(csr, sources, workspace);
  const auto num_sources = static_cast<std::uint64_t>(sources.size());
  EstimateView v;
  v.sum_hops = sweep.sum_hops;
  v.reachable_pairs = sweep.reachable_pairs;
  v.aspl = v.reachable_pairs == 0 ? 0.0
                                  : static_cast<double>(v.sum_hops) /
                                        static_cast<double>(v.reachable_pairs);
  v.sample_connected = v.reachable_pairs == num_sources * (n - 1);
  v.max_link_load = sweep.link_loads.empty()
                        ? 0
                        : *std::max_element(sweep.link_loads.begin(), sweep.link_loads.end());
  if (v.max_link_load > 0) {
    v.max_normalized_load = static_cast<double>(v.max_link_load) * static_cast<double>(n) /
                            (static_cast<double>(num_sources) * static_cast<double>(n - 1));
    v.throughput_bound = 1.0 / v.max_normalized_load;
  }
  return v;
}

}  // namespace dsn
