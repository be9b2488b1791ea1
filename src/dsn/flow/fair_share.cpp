// dsn-slint: deterministic — see fair_share.hpp.
#include "dsn/flow/fair_share.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dsn/common/error.hpp"

namespace dsn::flow {

namespace {

/// Saturation threshold: a resource whose residual has fallen to numerical
/// noise relative to its capacity is full.
double saturation_eps(double capacity) { return 1e-9 * std::max(1.0, capacity); }

constexpr std::uint32_t kUnmapped = ~std::uint32_t{0};

/// Global resource id -> dense solve-local id. Sized to the capacity vector
/// once and reused across solves on this thread; each solve resets only the
/// entries it mapped, so a solve costs O(route pool + used resources), not
/// O(all resources).
std::vector<std::uint32_t>& dense_id_map(std::size_t caps) {
  thread_local std::vector<std::uint32_t> map;
  if (map.size() < caps) map.resize(caps, kUnmapped);
  return map;
}

}  // namespace

FairShareResult max_min_fair_rates(const std::vector<double>& capacity,
                                   const std::vector<std::uint32_t>& route_pool,
                                   const std::vector<std::uint64_t>& route_begin,
                                   std::uint32_t max_rounds) {
  DSN_REQUIRE(!route_begin.empty(), "route_begin must hold flows + 1 offsets");
  DSN_REQUIRE(route_begin.back() == route_pool.size(),
              "route_begin does not cover the route pool");
  const std::size_t flows = route_begin.size() - 1;
  const std::size_t caps = capacity.size();

  FairShareResult res;
  res.rate.assign(flows, 0.0);
  res.bottleneck.assign(flows, kNoBottleneck);
  if (flows == 0) return res;

  // Renumber the used resources densely, in order of first use, and rewrite
  // the routes in local ids. count[l] is the number of unfrozen flows
  // crossing l, with multiplicity when a route repeats a resource.
  std::vector<std::uint32_t>& id_map = dense_id_map(caps);
  std::vector<std::uint32_t> global;  // local id -> resource id
  struct ResetIdMap {
    std::vector<std::uint32_t>& map;
    const std::vector<std::uint32_t>& mapped;
    ~ResetIdMap() {
      for (const std::uint32_t c : mapped) map[c] = kUnmapped;
    }
  } reset_id_map{id_map, global};
  std::vector<std::uint32_t> count;
  std::vector<std::uint32_t> local_pool(route_pool.size());
  for (std::size_t f = 0; f < flows; ++f) {
    DSN_REQUIRE(route_begin[f + 1] > route_begin[f],
                "every flow must cross at least one resource");
    for (std::uint64_t i = route_begin[f]; i < route_begin[f + 1]; ++i) {
      const std::uint32_t c = route_pool[i];
      DSN_REQUIRE(c < caps, "route resource index out of range");
      if (id_map[c] == kUnmapped) {
        id_map[c] = static_cast<std::uint32_t>(global.size());
        global.push_back(c);
        count.push_back(0);
      }
      local_pool[i] = id_map[c];
      ++count[id_map[c]];
    }
  }
  const std::size_t used = global.size();

  // Inverted index: the flows crossing each local resource, in flow order.
  std::vector<std::uint64_t> users_begin(used + 1, 0);
  for (std::size_t l = 0; l < used; ++l) users_begin[l + 1] = users_begin[l] + count[l];
  std::vector<std::uint32_t> users(local_pool.size());
  {
    std::vector<std::uint64_t> fill(users_begin.begin(), users_begin.end() - 1);
    for (std::size_t f = 0; f < flows; ++f) {
      for (std::uint64_t i = route_begin[f]; i < route_begin[f + 1]; ++i)
        users[fill[local_pool[i]]++] = static_cast<std::uint32_t>(f);
    }
  }

  // Live resources (count > 0) and the first round's equal increment: the
  // tightest residual share. A min is order-independent, so the increment is
  // bitwise the same however the live list is ordered.
  std::vector<double> residual(used);
  std::vector<double> eps(used);
  std::vector<std::uint32_t> live(used);
  double share = std::numeric_limits<double>::infinity();
  for (std::size_t l = 0; l < used; ++l) {
    const double cap = capacity[global[l]];
    DSN_REQUIRE(cap > 0.0, "a used resource must have positive capacity");
    residual[l] = cap;
    eps[l] = saturation_eps(cap);
    live[l] = static_cast<std::uint32_t>(l);
    share = std::min(share, cap / count[l]);
  }
  std::vector<std::uint8_t> saturated(used, 0);
  std::vector<std::uint8_t> frozen(flows, 0);
  std::vector<std::uint32_t> newly_saturated;

  // Every round saturates at least one resource, so the loop needs at most
  // |used resources| rounds; max_rounds 0 means exactly that natural bound.
  const std::uint32_t round_limit =
      max_rounds != 0 ? max_rounds
                      : static_cast<std::uint32_t>(
                            std::min<std::size_t>(used, ~std::uint32_t{0}));
  // Every unfrozen flow has grown by the same increments in the same order,
  // so one cumulative level is each unfrozen flow's rate, bit for bit.
  double level = 0.0;
  std::size_t unfrozen = flows;
  while (unfrozen > 0 && res.rounds < round_limit) {
    ++res.rounds;
    if (!std::isfinite(share)) break;  // no capacitated resource left (cannot happen)
    level += share;

    newly_saturated.clear();
    for (const std::uint32_t l : live) {
      residual[l] -= share * count[l];
      if (residual[l] <= eps[l]) {
        saturated[l] = 1;
        newly_saturated.push_back(l);
      }
    }

    // Freeze the flows crossing a saturated resource at the current level;
    // their counts leave the sharing pool so the survivors split the
    // remaining headroom. The bottleneck is the first saturated resource in
    // route order, whichever saturated resource reached the flow.
    for (const std::uint32_t s : newly_saturated) {
      for (std::uint64_t u = users_begin[s]; u < users_begin[s + 1]; ++u) {
        const std::uint32_t f = users[u];
        if (frozen[f] != 0) continue;
        frozen[f] = 1;
        --unfrozen;
        res.rate[f] = level;
        std::uint32_t bottleneck = kNoBottleneck;
        for (std::uint64_t i = route_begin[f]; i < route_begin[f + 1]; ++i) {
          const std::uint32_t l = local_pool[i];
          if (bottleneck == kNoBottleneck && saturated[l] != 0) bottleneck = global[l];
          --count[l];
        }
        res.bottleneck[f] = bottleneck;
      }
    }

    // Drop resources no unfrozen flow crosses and take the next increment.
    share = std::numeric_limits<double>::infinity();
    std::size_t kept = 0;
    for (const std::uint32_t l : live) {
      if (count[l] == 0) continue;
      live[kept++] = l;
      share = std::min(share, residual[l] / count[l]);
    }
    live.resize(kept);
  }
  if (unfrozen > 0) {
    // Stopped early: the flows still growing hold the level reached.
    for (std::size_t f = 0; f < flows; ++f) {
      if (frozen[f] == 0) res.rate[f] = level;
    }
  }
  res.converged = unfrozen == 0;
  return res;
}

std::vector<std::string> check_max_min(const std::vector<double>& capacity,
                                       const std::vector<std::uint32_t>& route_pool,
                                       const std::vector<std::uint64_t>& route_begin,
                                       const FairShareResult& result, double tol,
                                       std::size_t max_violations) {
  const std::size_t flows = route_begin.size() - 1;
  const std::size_t caps = capacity.size();
  std::vector<std::string> violations;
  const auto report = [&](std::string msg) {
    if (violations.size() < max_violations) violations.push_back(std::move(msg));
  };

  // Serial index-order accumulation: usage and per-resource rate maxima.
  std::vector<double> usage(caps, 0.0);
  std::vector<double> max_rate(caps, 0.0);
  for (std::size_t f = 0; f < flows; ++f) {
    for (std::uint64_t i = route_begin[f]; i < route_begin[f + 1]; ++i) {
      usage[route_pool[i]] += result.rate[f];
      max_rate[route_pool[i]] = std::max(max_rate[route_pool[i]], result.rate[f]);
    }
  }

  for (std::size_t c = 0; c < caps; ++c) {
    if (usage[c] > capacity[c] * (1.0 + tol)) {
      report("resource " + std::to_string(c) + " over capacity: usage " +
             std::to_string(usage[c]) + " > " + std::to_string(capacity[c]));
    }
  }
  for (std::size_t f = 0; f < flows; ++f) {
    const std::uint32_t c = result.bottleneck[f];
    if (c == kNoBottleneck) {
      if (result.converged)
        report("flow " + std::to_string(f) + " has no bottleneck on a converged solve");
      continue;
    }
    const double slack = capacity[c] * tol + tol;
    if (usage[c] < capacity[c] - slack) {
      report("flow " + std::to_string(f) + " bottleneck " + std::to_string(c) +
             " is not saturated: usage " + std::to_string(usage[c]) + " < capacity " +
             std::to_string(capacity[c]));
    }
    if (result.rate[f] + slack < max_rate[c]) {
      report("flow " + std::to_string(f) + " rate " + std::to_string(result.rate[f]) +
             " is not maximal at its bottleneck " + std::to_string(c) + " (max " +
             std::to_string(max_rate[c]) + ")");
    }
  }
  return violations;
}

}  // namespace dsn::flow
