// Correctness gates for the sampled path/load estimator
// (dsn/graph/estimator) and determinism gates for the shortcut-placement
// optimizer built on it (dsn/opt). The estimator's contract is exactness: in
// exact mode (sample = every source) it must equal the whole-graph sweep
// bit-for-bit, and on any graph its sweep must equal a plain per-source BFS
// reference written below. The optimizer's fronts are pinned by golden
// digests recorded while an incremental re-sweep estimator was still in use,
// so its removal is proven front-preserving on the families it served.
// The OptDeterminism suite is registered under `ctest -L determinism` via
// the determinism.opt entry.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/analysis/load_bound.hpp"
#include "dsn/common/json.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/graph/csr.hpp"
#include "dsn/graph/estimator.hpp"
#include "dsn/graph/metrics.hpp"
#include "dsn/opt/optimizer.hpp"
#include "dsn/topology/generators.hpp"

namespace dsn {
namespace {

TEST(OptEstimator, ExactModeMatchesWholeGraphSweep) {
  // n <= 1024 with auto sampling puts every source in the sample, so the
  // estimate IS the exact sweep: same integer hop sums, same division.
  const std::vector<std::string> names = {"dsn", "dln", "random-regular"};
  std::vector<Topology> topos;
  for (const std::string& name : names) topos.push_back(make_topology_by_name(name, 256, 3));
  topos.push_back(make_watts_strogatz(256, 4, 0.3, 5));
  for (const Topology& topo : topos) {
    const CsrView csr(topo.graph);
    const std::vector<NodeId> sources = sample_sources(csr.num_nodes(), EstimatorConfig{});
    ASSERT_EQ(sources.size(), topo.graph.num_nodes()) << topo.name;
    const EstimateView est = estimate_paths(csr, sources);

    const PathStats exact = compute_path_stats(csr);
    EXPECT_EQ(est.aspl, exact.avg_shortest_path) << topo.name;

    const analyze::TreeLoadBound bound = analyze::compute_tree_load_bound(csr);
    EXPECT_EQ(est.max_link_load, bound.max_load) << topo.name;
    EXPECT_EQ(est.max_normalized_load, bound.max_normalized) << topo.name;
    EXPECT_EQ(est.throughput_bound, bound.throughput_bound) << topo.name;
  }
}

TEST(OptEstimator, SampledEstimateConverges) {
  const Topology topo = make_topology_by_name("dsn", 1024, 1);
  const CsrView csr(topo.graph);
  const PathStats exact = compute_path_stats(csr);

  double prev_err = 1e9;
  for (const std::uint32_t samples : {128u, 256u, 1024u}) {
    EstimatorConfig cfg;
    cfg.sample_sources = samples;
    const EstimateView est = estimate_paths(csr, sample_sources(csr.num_nodes(), cfg));
    const double err = std::abs(est.aspl - exact.avg_shortest_path) / exact.avg_shortest_path;
    // Source means concentrate tightly (every source averages over all n-1
    // destinations), so even an eighth of the sources lands close.
    EXPECT_LT(err, 0.05) << "samples=" << samples;
    EXPECT_LE(err, prev_err + 1e-12) << "samples=" << samples;
    prev_err = err;
  }
  EXPECT_EQ(prev_err, 0.0);  // the full sample is the exact sweep
}

/// Plain reference for sweep_trees: one queue BFS per source, then each
/// reached node, children before parents (reverse BFS order), hands its
/// subtree weight to its min-(id, link) parent one level closer.
TreeSweep reference_sweep(NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges,
                          std::span<const NodeId> sources) {
  std::vector<std::vector<std::pair<NodeId, LinkId>>> adj(n);
  for (LinkId l = 0; l < edges.size(); ++l) {
    adj[edges[l].first].emplace_back(edges[l].second, l);
    adj[edges[l].second].emplace_back(edges[l].first, l);
  }
  TreeSweep ref;
  ref.link_loads.assign(edges.size(), 0);
  for (const NodeId s : sources) {
    std::vector<std::uint32_t> dist(n, kUnreachable);
    std::vector<NodeId> order{s};
    dist[s] = 0;
    for (std::size_t head = 0; head < order.size(); ++head) {
      for (const auto& [w, l] : adj[order[head]]) {
        if (dist[w] != kUnreachable) continue;
        dist[w] = dist[order[head]] + 1;
        order.push_back(w);
      }
    }
    std::vector<std::uint64_t> weight(n, 1);
    for (std::size_t k = order.size(); k-- > 1;) {
      const NodeId v = order[k];
      ref.sum_hops += dist[v];
      ++ref.reachable_pairs;
      std::pair<NodeId, LinkId> parent{kInvalidNode, 0};
      for (const auto& [u, l] : adj[v])
        if (dist[u] + 1 == dist[v]) parent = std::min(parent, std::pair{u, l});
      ref.link_loads[parent.second] += weight[v];
      weight[parent.first] += weight[v];
    }
  }
  return ref;
}

/// Ring of n nodes plus `chords` long chords: a large-diameter graph.
std::vector<std::pair<NodeId, NodeId>> ring_with_chords(NodeId n, NodeId chords) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  for (NodeId c = 0; c < chords; ++c) {
    const NodeId u = static_cast<NodeId>((c * n) / chords);
    edges.emplace_back(u, static_cast<NodeId>((u + n / 2 - 3 * c) % n));
  }
  return edges;
}

bool has_edge(const std::vector<std::pair<NodeId, NodeId>>& edges, NodeId a, NodeId b) {
  for (const auto& [u, v] : edges)
    if ((u == a && v == b) || (u == b && v == a)) return true;
  return false;
}

/// Apply 50 random valid swaps of the second endpoints of two links drawn
/// from [first_swappable, edges.size()), checking the sweep and the estimate
/// against the reference after each one.
void check_sweeps_against_reference(std::vector<std::pair<NodeId, NodeId>> edges, NodeId n,
                                    std::size_t first_swappable,
                                    std::span<const NodeId> sources, std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t pool = edges.size() - first_swappable;
  int swaps = 0;
  for (int attempt = 0; attempt < 2000 && swaps < 50; ++attempt) {
    const std::size_t c1 = first_swappable + rng.next_below(pool);
    std::size_t c2 = first_swappable + rng.next_below(pool - 1);
    if (c2 >= c1) ++c2;
    std::vector<std::pair<NodeId, NodeId>> next = edges;
    std::swap(next[c1].second, next[c2].second);
    const auto& n1 = next[c1];
    const auto& n2 = next[c2];
    if (n1.first == n1.second || n2.first == n2.second) continue;
    if (has_edge(edges, n1.first, n1.second) || has_edge(edges, n2.first, n2.second))
      continue;
    edges = std::move(next);
    ++swaps;

    const CsrView csr(n, edges);
    const TreeSweep got = sweep_trees(csr, sources);
    const TreeSweep want = reference_sweep(n, edges, sources);
    ASSERT_EQ(got.sum_hops, want.sum_hops) << "swap " << swaps;
    ASSERT_EQ(got.reachable_pairs, want.reachable_pairs) << "swap " << swaps;
    ASSERT_EQ(got.link_loads, want.link_loads) << "swap " << swaps;
    const EstimateView est = estimate_paths(csr, sources);
    ASSERT_EQ(est.sum_hops, want.sum_hops) << "swap " << swaps;
    ASSERT_EQ(est.reachable_pairs, want.reachable_pairs) << "swap " << swaps;
    ASSERT_EQ(est.max_link_load,
              *std::max_element(want.link_loads.begin(), want.link_loads.end()))
        << "swap " << swaps;
  }
  EXPECT_EQ(swaps, 50);
}

TEST(OptEstimator, SweepMatchesReferenceAfterSwaps) {
  // Ring + chords plus one isolated node, so unreachable pairs count too;
  // every source (7 MS-BFS batches, the last one partial). Only chords move.
  constexpr NodeId kRing = 400;
  std::vector<NodeId> all(kRing + 1);
  for (NodeId v = 0; v <= kRing; ++v) all[v] = v;
  check_sweeps_against_reference(ring_with_chords(kRing, 8), kRing + 1, kRing, all, 17);

  // DSN with a 150-source sample: any link moves, ring links included.
  const Topology topo = make_topology_by_name("dsn", 256, 2);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (LinkId l = 0; l < topo.graph.num_links(); ++l)
    edges.push_back(topo.graph.link_endpoints(l));
  const auto n = static_cast<NodeId>(topo.graph.num_nodes());
  check_sweeps_against_reference(edges, n, 0, sample_sources(n, 150, 5), 23);
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

TEST(OptDeterminism, FrontsMatchGoldenDigests) {
  // Digests of optimizer_result_to_json without the sweep counters, plus
  // best_shortcuts. Recorded while the optimizer still ran an incremental
  // estimator that re-swept single sources (189 re-sweeps on dln n = 192,
  // 41 on dln n = 2048); one sampled sweep per proposal reproduces them.
  const struct {
    const char* topology;
    NodeId n;
    std::uint64_t digest;
  } cases[] = {
      {"dsn", 192, 0x600d6d1324443259ULL},
      {"dsn", 2048, 0x6f92847f8b0a9e19ULL},
      {"dln", 192, 0x3976b4598a78ad40ULL},
      {"dln", 2048, 0x6449efb90da3b098ULL},
  };
  opt::OptimizerConfig cfg;
  cfg.passes = 2;
  cfg.iterations = 150;
  cfg.plateau = 40;
  for (const auto& c : cases) {
    const opt::OptimizerResult r =
        opt::optimize_shortcuts(make_topology_by_name(c.topology, c.n), cfg);
    EXPECT_EQ(r.resweeps, 0u);
    EXPECT_EQ(r.full_sweeps, r.proposals - r.invalid);
    const Json full = opt::optimizer_result_to_json(r);
    Json projection = Json::object();
    for (const auto& [key, value] : full.members())
      if (key != "resweeps" && key != "full_sweeps") projection.set(key, value);
    Json shortcuts = Json::array();
    for (const auto& [u, v] : r.best_shortcuts) {
      Json pair = Json::array();
      pair.push_back(static_cast<std::uint64_t>(u));
      pair.push_back(static_cast<std::uint64_t>(v));
      shortcuts.push_back(std::move(pair));
    }
    projection.set("best_shortcuts", std::move(shortcuts));
    const std::string bytes = projection.dump();
    EXPECT_EQ(fnv1a(bytes), c.digest) << c.topology << " n=" << c.n << ": " << bytes;
  }
}

TEST(OptDeterminism, RepeatedRunsAreIdentical) {
  opt::OptimizerConfig cfg;
  cfg.seed = 7;
  cfg.passes = 2;
  cfg.iterations = 60;
  cfg.plateau = 20;
  const Topology topo = make_topology_by_name("dsn", 192, 1);
  const opt::OptimizerResult a = opt::optimize_shortcuts(topo, cfg);
  const opt::OptimizerResult b = opt::optimize_shortcuts(topo, cfg);
  EXPECT_EQ(opt::optimizer_result_to_json(a).dump(), opt::optimizer_result_to_json(b).dump());
  EXPECT_EQ(a.best_shortcuts, b.best_shortcuts);
}

/// Run the real dsn-lint binary (path injected by CMake as DSN_LINT_PATH)
/// with an environment prefix, capturing stdout.
std::string run_lint(const std::string& env_prefix, const std::string& args,
                     int& exit_code) {
  const std::string cmd =
      env_prefix + " " + std::string(DSN_LINT_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string output;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof buf, pipe)) > 0) output.append(buf, got);
  const int status = pclose(pipe);
  exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
  return output;
}

TEST(OptDeterminism, LintOptimizeBytesInvariantUnderDsnThreads) {
  // The committed BENCH_opt.json front must not depend on the runner's core
  // count: the full --json projection (front, counters, every float) is
  // compared as bytes across thread-pool widths.
  const std::string args =
      "optimize --topology dsn --n 192 --passes 2 --iterations 80 --plateau 20 --json";
  int base_code = -1;
  const std::string base = run_lint("DSN_THREADS=1", args, base_code);
  ASSERT_EQ(base_code, 0) << base;
  for (const char* threads : {"4", "8"}) {
    int code = -1;
    const std::string out =
        run_lint(std::string("DSN_THREADS=") + threads, args, code);
    EXPECT_EQ(code, 0) << out;
    EXPECT_EQ(base, out) << "DSN_THREADS=" << threads;
  }
}

}  // namespace
}  // namespace dsn
