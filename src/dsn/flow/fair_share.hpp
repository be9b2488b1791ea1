// dsn-slint: deterministic — flow rates feed byte-identical replay gates;
// the solve is serial, every reduction is a min or an integer add, and all
// rates come from one cumulative level built in round order.
//
// Max-min fair-share allocation by progressive water-filling. Given resource
// capacities (directed link halves plus host injection/ejection ports) and
// one resource list per flow, all unfrozen flows grow at the same rate until
// some resource saturates; flows crossing a saturated resource freeze at the
// current level and the rest keep growing. The result is the unique max-min
// fair allocation: every flow is bottlenecked at a saturated resource where
// it holds a maximal rate.
//
// The solver is serial and event-driven. It renumbers the used resources
// densely, indexes the flows crossing each one, and per round scans only
// the resources some unfrozen flow still crosses; it freezes only the flows
// reached from the resources that saturated in that round. An earlier
// version sharded each round over the thread pool, which cost four pool
// barriers per round (about 61k rounds per paper-eval pass) and ran 2.3x
// slower at 4 workers than at 1 on a 4-core Xeon, so the tier keeps no
// parallel path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dsn::flow {

/// Sentinel bottleneck for a flow the solver never froze (only possible on a
/// non-converged solve).
inline constexpr std::uint32_t kNoBottleneck = ~std::uint32_t{0};

struct FairShareResult {
  std::vector<double> rate;               ///< flits/cycle per flow
  std::vector<std::uint32_t> bottleneck;  ///< saturated resource that froze the flow
  std::uint32_t rounds = 0;               ///< water-filling rounds used
  bool converged = true;                  ///< false iff max_rounds was hit
};

/// Solve the max-min allocation. Flow f uses resources
/// `route_pool[route_begin[f] .. route_begin[f+1])`; `capacity[c]` > 0 is the
/// capacity of resource c in flits/cycle. Every flow must cross at least one
/// resource. `max_rounds` 0 uses the natural bound (one saturated resource
/// per round, so at most the number of used resources); a positive value is
/// an explicit ceiling below which the solve may report converged=false.
/// A flow's bottleneck is the first saturated resource on its route.
FairShareResult max_min_fair_rates(const std::vector<double>& capacity,
                                   const std::vector<std::uint32_t>& route_pool,
                                   const std::vector<std::uint64_t>& route_begin,
                                   std::uint32_t max_rounds = 0);

/// Verify the max-min invariant on a solution: (a) feasibility — no resource
/// is used beyond capacity * (1 + tol); (b) bottleneck — every flow's
/// bottleneck resource is saturated (usage >= capacity * (1 - tol)) and the
/// flow holds a maximal rate there (rate >= max rate across the resource
/// - tol). Returns human-readable violations (empty = invariant holds),
/// capped at `max_violations`. Used by the property tests and dsn-lint flow.
std::vector<std::string> check_max_min(const std::vector<double>& capacity,
                                       const std::vector<std::uint32_t>& route_pool,
                                       const std::vector<std::uint64_t>& route_begin,
                                       const FairShareResult& result,
                                       double tol = 1e-6,
                                       std::size_t max_violations = 8);

}  // namespace dsn::flow
