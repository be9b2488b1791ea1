// dsn-slint: deterministic — estimates feed the byte-identical Pareto-front
// gates; sampling, sweep order and merges must be pure functions of
// (graph, sources), never of thread count or timing.
#include "dsn/graph/estimator.hpp"

#include <algorithm>
#include <numeric>

#include "dsn/common/error.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/common/thread_pool.hpp"
#include "dsn/graph/msbfs.hpp"

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

void accumulate_tree_loads(const CsrView& g, std::span<const std::uint32_t> dist,
                           std::span<std::uint64_t> link_loads, TreeLoadScratch& scratch) {
  const NodeId n = g.num_nodes();
  DSN_REQUIRE(dist.size() == n, "distance row size mismatch");
  DSN_REQUIRE(link_loads.size() == g.num_arcs() / 2, "load vector size mismatch");

  // Counting sort of the reachable non-root nodes by distance: weights flow
  // strictly from larger to smaller distance, so any order within one level
  // is correct; bucketing by (distance, node id) keeps it canonical.
  std::uint32_t maxd = 0;
  std::size_t cnt = 0;
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t d = dist[v];
    if (d == 0 || d == kUnreachable) continue;
    maxd = std::max(maxd, d);
    ++cnt;
  }
  if (cnt == 0) return;
  scratch.bucket.assign(static_cast<std::size_t>(maxd) + 2, 0);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t d = dist[v];
    if (d == 0 || d == kUnreachable) continue;
    ++scratch.bucket[d + 1];
  }
  for (std::size_t i = 1; i <= maxd; ++i) scratch.bucket[i + 1] += scratch.bucket[i];
  scratch.order.resize(cnt);
  for (NodeId v = 0; v < n; ++v) {
    const std::uint32_t d = dist[v];
    if (d == 0 || d == kUnreachable) continue;
    scratch.order[scratch.bucket[d]++] = v;
  }

  scratch.weight.assign(n, 1);
  for (std::size_t idx = cnt; idx-- > 0;) {
    const NodeId v = scratch.order[idx];
    const std::uint32_t d = dist[v];
    const auto nbrs = g.neighbors(v);
    const auto lnks = g.links(v);
    NodeId best_u = kInvalidNode;
    LinkId best_link = 0;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      const NodeId u = nbrs[k];
      if (dist[u] + 1 != d) continue;  // kUnreachable + 1 wraps to 0 != d (d >= 1)
      const LinkId l = lnks[k];
      if (best_u == kInvalidNode || u < best_u || (u == best_u && l < best_link)) {
        best_u = u;
        best_link = l;
      }
    }
    DSN_ASSERT(best_u != kInvalidNode, "reachable node must have a tight parent");
    link_loads[best_link] += scratch.weight[v];
    scratch.weight[best_u] += scratch.weight[v];
  }
}

TreeSweep sweep_trees(const CsrView& csr, std::span<const NodeId> sources) {
  const NodeId n = csr.num_nodes();
  const std::size_t num_links = csr.num_arcs() / 2;
  TreeSweep total;
  total.link_loads.assign(num_links, 0);
  if (n == 0 || sources.empty()) return total;

  ThreadPool& pool = ThreadPool::global();
  const std::size_t batches = (sources.size() + kMsBfsBatch - 1) / kMsBfsBatch;
  const std::size_t shards =
      std::max<std::size_t>(1, std::min(batches, 4 * pool.size()));
  std::vector<TreeSweep> partial(shards);

  pool.parallel_for(0, shards, [&](std::size_t k) {
    TreeSweep& part = partial[k];
    part.link_loads.assign(num_links, 0);
    MsBfsScratch scratch;
    TreeLoadScratch tls;
    std::vector<std::uint32_t> batch_dist(static_cast<std::size_t>(n) * kMsBfsBatch);
    std::vector<std::uint32_t> row(n);
    const std::size_t begin = k * batches / shards;
    const std::size_t end = (k + 1) * batches / shards;
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t lo = b * kMsBfsBatch;
      const std::size_t lanes =
          std::min<std::size_t>(sources.size() - lo, kMsBfsBatch);
      msbfs_batch(csr, sources.subspan(lo, lanes), batch_dist.data(), scratch);
      for (std::size_t i = 0; i < lanes; ++i) {
        // Lane totals stay in locals and reach the shard once per lane:
        // the shards' totals share cache lines.
        std::uint64_t sum = 0;
        std::uint64_t reached = 0;
        for (NodeId v = 0; v < n; ++v) {
          const std::uint32_t d = batch_dist[static_cast<std::size_t>(v) * kMsBfsBatch + i];
          row[v] = d;
          if (d != 0 && d != kUnreachable) {
            sum += d;
            ++reached;
          }
        }
        part.sum_hops += sum;
        part.reachable_pairs += reached;
        accumulate_tree_loads(csr, row, part.link_loads, tls);
      }
    }
  });

  // Integer sums in shard order: identical for any shard count.
  for (const TreeSweep& part : partial) {
    total.sum_hops += part.sum_hops;
    total.reachable_pairs += part.reachable_pairs;
    for (std::size_t l = 0; l < num_links; ++l) total.link_loads[l] += part.link_loads[l];
  }
  return total;
}

EstimateView estimate_paths(const CsrView& csr, std::span<const NodeId> sources) {
  const NodeId n = csr.num_nodes();
  DSN_REQUIRE(n > 1 && !sources.empty(), "estimate needs two nodes and a source");
  const TreeSweep sweep = sweep_trees(csr, sources);
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
