// Property tests for the flow tier's max-min fair-share solver: on fuzzed
// abstract problems and on real topologies, every converged allocation must
// satisfy the max-min invariant (feasible, every flow bottlenecked at a
// saturated resource where it holds a maximal rate), the solution must be
// invariant under flow-id permutation, and the event-driven solver must match
// a plain full-scan reference water-filler bit for bit. All randomness is
// seeded.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/common/rng.hpp"
#include "dsn/flow/fair_share.hpp"
#include "dsn/flow/flow_sim.hpp"
#include "dsn/flow/workload.hpp"

namespace dsn::flow {
namespace {

struct Problem {
  std::vector<double> capacity;
  std::vector<std::uint32_t> pool;
  std::vector<std::uint64_t> begin;
};

/// Fuzz a fair-share problem: `resources` capacities drawn from a few
/// magnitudes, `flows` routes of 1..5 resources each — distinct unless
/// `allow_repeats`.
Problem fuzz_problem(std::uint32_t resources, std::uint32_t flows, Rng& rng,
                     bool allow_repeats = false) {
  Problem p;
  p.capacity.resize(resources);
  for (double& c : p.capacity) c = 0.25 * static_cast<double>(1 + rng.next_below(16));
  p.begin.push_back(0);
  std::vector<std::uint32_t> route;
  for (std::uint32_t f = 0; f < flows; ++f) {
    route.clear();
    const std::uint32_t len =
        1 + static_cast<std::uint32_t>(rng.next_below(std::min(5u, resources)));
    while (route.size() < len) {
      const std::uint32_t c = rng.next_below(resources);
      if (allow_repeats || std::find(route.begin(), route.end(), c) == route.end())
        route.push_back(c);
    }
    p.pool.insert(p.pool.end(), route.begin(), route.end());
    p.begin.push_back(p.pool.size());
  }
  return p;
}

TEST(FlowFairness, FuzzedProblemsSatisfyMaxMinInvariant) {
  Rng rng(0xF10F109);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t resources = 2 + rng.next_below(40);
    const std::uint32_t flows = 1 + rng.next_below(120);
    const Problem p = fuzz_problem(resources, flows, rng);
    const FairShareResult r = max_min_fair_rates(p.capacity, p.pool, p.begin);
    ASSERT_TRUE(r.converged) << "trial " << trial;
    ASSERT_LE(r.rounds, resources) << "trial " << trial;
    const std::vector<std::string> violations =
        check_max_min(p.capacity, p.pool, p.begin, r);
    EXPECT_TRUE(violations.empty())
        << "trial " << trial << ": " << violations.front();
    for (std::uint32_t f = 0; f < flows; ++f) {
      EXPECT_NE(r.bottleneck[f], kNoBottleneck) << "trial " << trial << " flow " << f;
      EXPECT_GT(r.rate[f], 0.0) << "trial " << trial << " flow " << f;
    }
  }
}

TEST(FlowFairness, RatesInvariantUnderFlowPermutation) {
  Rng rng(0xBADC0DE);
  for (int trial = 0; trial < 50; ++trial) {
    const Problem p = fuzz_problem(2 + rng.next_below(20), 2 + rng.next_below(60), rng);
    const std::size_t flows = p.begin.size() - 1;

    std::vector<std::uint32_t> perm(flows);
    std::iota(perm.begin(), perm.end(), 0);
    for (std::size_t i = flows - 1; i > 0; --i)
      std::swap(perm[i], perm[rng.next_below(static_cast<std::uint32_t>(i + 1))]);

    Problem q;
    q.capacity = p.capacity;
    q.begin.push_back(0);
    for (const std::uint32_t f : perm) {
      q.pool.insert(q.pool.end(), p.pool.begin() + p.begin[f],
                    p.pool.begin() + p.begin[f + 1]);
      q.begin.push_back(q.pool.size());
    }

    const FairShareResult a = max_min_fair_rates(p.capacity, p.pool, p.begin);
    const FairShareResult b = max_min_fair_rates(q.capacity, q.pool, q.begin);
    ASSERT_TRUE(a.converged && b.converged);
    for (std::size_t i = 0; i < flows; ++i)
      EXPECT_EQ(a.rate[perm[i]], b.rate[i]) << "trial " << trial << " pos " << i;
  }
}

/// Reference water-filler: the plain per-round full-scan algorithm, serial.
/// Every round takes the tightest residual share over all resources, grows
/// every unfrozen flow by it, saturates resources, then freezes each
/// unfrozen flow crossing a saturated resource (bottleneck = first saturated
/// resource in route order).
FairShareResult reference_fair_rates(const Problem& p, std::uint32_t max_rounds) {
  const std::size_t flows = p.begin.size() - 1;
  const std::size_t caps = p.capacity.size();
  FairShareResult res;
  res.rate.assign(flows, 0.0);
  res.bottleneck.assign(flows, kNoBottleneck);
  std::vector<double> residual = p.capacity;
  std::vector<std::uint32_t> count(caps, 0);
  for (const std::uint32_t c : p.pool) ++count[c];
  std::vector<std::uint8_t> saturated(caps, 0);
  std::vector<std::uint8_t> frozen(flows, 0);
  const auto used = static_cast<std::uint32_t>(
      std::count_if(count.begin(), count.end(), [](std::uint32_t k) { return k > 0; }));
  const std::uint32_t limit = max_rounds != 0 ? max_rounds : used;
  std::size_t unfrozen = flows;
  while (unfrozen > 0 && res.rounds < limit) {
    ++res.rounds;
    double share = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < caps; ++c)
      if (count[c] != 0) share = std::min(share, residual[c] / count[c]);
    if (!std::isfinite(share)) break;
    for (std::size_t f = 0; f < flows; ++f)
      if (frozen[f] == 0) res.rate[f] += share;
    for (std::size_t c = 0; c < caps; ++c) {
      if (count[c] == 0) continue;
      residual[c] -= share * count[c];
      if (residual[c] <= 1e-9 * std::max(1.0, p.capacity[c])) saturated[c] = 1;
    }
    for (std::size_t f = 0; f < flows; ++f) {
      if (frozen[f] != 0) continue;
      for (std::uint64_t i = p.begin[f]; i < p.begin[f + 1]; ++i) {
        if (saturated[p.pool[i]] != 0) {
          res.bottleneck[f] = p.pool[i];
          break;
        }
      }
      if (res.bottleneck[f] == kNoBottleneck) continue;
      frozen[f] = 1;
      --unfrozen;
      for (std::uint64_t i = p.begin[f]; i < p.begin[f + 1]; ++i) --count[p.pool[i]];
    }
  }
  res.converged = unfrozen == 0;
  return res;
}

bool has_repeated_resource(const Problem& p) {
  for (std::size_t f = 0; f + 1 < p.begin.size(); ++f) {
    std::vector<std::uint32_t> route(p.pool.begin() + p.begin[f],
                                     p.pool.begin() + p.begin[f + 1]);
    std::sort(route.begin(), route.end());
    if (std::adjacent_find(route.begin(), route.end()) != route.end()) return true;
  }
  return false;
}

TEST(FlowFairness, SolverMatchesReferenceBitwise) {
  Rng rng(0x5A4D5);
  int stopped = 0, repeated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const bool allow_repeats = trial % 2 == 1;
    const Problem p = fuzz_problem(2 + rng.next_below(60), 1 + rng.next_below(300), rng,
                                   allow_repeats);
    // Every third problem runs under a small explicit round ceiling, which
    // stops most of them before they converge.
    const auto max_rounds =
        trial % 3 == 2 ? static_cast<std::uint32_t>(1 + rng.next_below(6)) : 0u;
    const FairShareResult want = reference_fair_rates(p, max_rounds);
    const FairShareResult got = max_min_fair_rates(p.capacity, p.pool, p.begin, max_rounds);
    stopped += want.converged ? 0 : 1;
    repeated += has_repeated_resource(p) ? 1 : 0;
    ASSERT_EQ(want.rounds, got.rounds) << "trial " << trial;
    ASSERT_EQ(want.converged, got.converged) << "trial " << trial;
    ASSERT_EQ(want.rate.size(), got.rate.size()) << "trial " << trial;
    for (std::size_t f = 0; f < want.rate.size(); ++f) {
      // Bitwise, not approximate: determinism gates replay these bytes.
      EXPECT_EQ(want.rate[f], got.rate[f]) << "trial " << trial << " flow " << f;
      EXPECT_EQ(want.bottleneck[f], got.bottleneck[f]) << "trial " << trial << " flow " << f;
    }
  }
  // The fuzz must actually reach both special cases.
  EXPECT_GT(stopped, 20);
  EXPECT_GT(repeated, 20);
}

TEST(FlowFairness, SingleLinkSharedEqually) {
  // Three flows over one unit resource: each gets exactly 1/3.
  const std::vector<double> capacity = {1.0};
  const std::vector<std::uint32_t> pool = {0, 0, 0};
  const std::vector<std::uint64_t> begin = {0, 1, 2, 3};
  const FairShareResult r = max_min_fair_rates(capacity, pool, begin);
  ASSERT_TRUE(r.converged);
  for (const double rate : r.rate) EXPECT_DOUBLE_EQ(rate, 1.0 / 3.0);
}

TEST(FlowFairness, WaterFillingFavorsShortFlow) {
  // Classic two-resource example: flow 0 crosses both links, flows 1 and 2
  // cross one each. Max-min gives the long flow 0.5 and each short flow 0.5
  // on the shared link — but if link 1 is bigger, the short flow there grows
  // past the frozen level.
  const std::vector<double> capacity = {1.0, 2.0};
  const std::vector<std::uint32_t> pool = {0, 1, 0, 1};
  const std::vector<std::uint64_t> begin = {0, 2, 3, 4};
  const FairShareResult r = max_min_fair_rates(capacity, pool, begin);
  ASSERT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.rate[0], 0.5);  // frozen at link 0
  EXPECT_DOUBLE_EQ(r.rate[1], 0.5);
  EXPECT_DOUBLE_EQ(r.rate[2], 1.5);  // takes link 1's slack
  EXPECT_TRUE(check_max_min(capacity, pool, begin, r).empty());
}

TEST(FlowFairness, SimulatorVerifiesOnFuzzedTopologies) {
  Rng rng(0x70F0F);
  const std::vector<std::string> families = {"dsn", "random-regular", "torus", "dln"};
  for (const std::string& family : families) {
    const Topology topo = make_topology_by_name(family, 64);
    FlowConfig cfg;
    cfg.verify = true;
    FlowSimulator sim(topo, cfg);

    std::vector<Demand> demands;
    for (int i = 0; i < 300; ++i) {
      const HostId src = rng.next_below(sim.num_hosts());
      const HostId dst = rng.next_below(sim.num_hosts());
      demands.push_back({src, dst, 1 + rng.next_below(512)});
    }
    const FlowResult res = sim.run(demands);
    EXPECT_TRUE(res.converged) << family;
    EXPECT_EQ(res.verify_violations, 0u) << family << ": " << res.verify_first;
    EXPECT_EQ(res.flows_completed, demands.size()) << family;
    EXPECT_NEAR(res.flits_delivered, static_cast<double>(res.flits_total),
                1e-6 * static_cast<double>(res.flits_total))
        << family;
    EXPECT_GT(res.makespan_cycles, 0.0) << family;
  }
}

TEST(FlowFairness, WorkloadDriversRunToCompletion) {
  const Topology topo = make_topology_by_name("dsn", 64);
  WorkloadParams params;
  params.rack_hosts = 16;
  params.clients = 12;
  params.units = 4;
  params.unit_flits = 128;
  params.seed = 7;
  for (const std::string& name : workload_names()) {
    FlowConfig cfg;
    cfg.verify = true;
    FlowSimulator sim(topo, cfg);
    params.hosts = sim.num_hosts();
    const std::unique_ptr<WorkloadDriver> driver = make_workload(name, params);
    const FlowResult res = sim.run(*driver);
    EXPECT_TRUE(res.converged) << name;
    EXPECT_EQ(res.verify_violations, 0u) << name << ": " << res.verify_first;
    EXPECT_EQ(res.flows, res.flows_completed) << name;
    EXPECT_GT(res.flows, 0u) << name;
  }
}

}  // namespace
}  // namespace dsn::flow
