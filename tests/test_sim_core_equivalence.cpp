// Golden byte-identical replay of the flit simulator across shard counts:
// every case runs the same input at 1, 4 and 8 shards, asserts the SimResult
// dumps — latency percentiles, degradation curves, fault records, drop/retry
// accounting and the conservation recount — and the packet traces are
// byte-identical, and checks the first run against a committed golden
// digest. The matrix covers every traffic pattern, both switching modes,
// zero-delay pipelines, custom-policy saturation, fuzzed fault schedules,
// trace replay, TTL strides and shard clamping. The digests were recorded
// while the retired full-scan core still ran and agreed byte-for-byte with
// the active-set core on every case. Grouped under `ctest -L determinism` via
// the determinism.core_equivalence entry.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/routing/sim_routing.hpp"
#include "dsn/sim/simulator.hpp"
#include "dsn/sim/trace.hpp"
#include "dsn/topology/dsn.hpp"
#include "golden.hpp"

namespace dsn {
namespace {

struct RunOutput {
  std::string dump;
  std::vector<PacketTrace> traces;
};

RunOutput run_core(const Topology& topo, SimRoutingPolicy& policy,
                   const TrafficPattern& traffic, SimConfig cfg,
                   std::uint32_t sim_threads, const FaultSchedule* faults,
                   const std::vector<TraceEntry>* injections) {
  cfg.sim_threads = sim_threads;
  Simulator sim(topo, policy, traffic, cfg);
  if (faults != nullptr) sim.set_fault_schedule(*faults);
  if (injections != nullptr) sim.set_injection_trace(*injections);
  const SimResult res = sim.run();
  return {to_json(res).dump(),
          {sim.packet_traces().begin(), sim.packet_traces().end()}};
}

/// Run at every shard count: the first run must match the committed golden
/// digest, and every later run must match the first byte-for-byte.
void expect_shards_match_golden(
    const Topology& topo, SimRoutingPolicy& policy, const TrafficPattern& traffic,
    const SimConfig& cfg, std::uint64_t golden,
    const FaultSchedule* faults = nullptr,
    const std::vector<TraceEntry>* injections = nullptr,
    std::initializer_list<std::uint32_t> shard_counts = {1u, 4u, 8u}) {
  const std::uint32_t first_threads = *shard_counts.begin();
  const RunOutput first =
      run_core(topo, policy, traffic, cfg, first_threads, faults, injections);
  const std::uint64_t digest = sim_run_digest(first.dump, first.traces);
  EXPECT_EQ(digest, golden) << std::hex << "digest 0x" << digest << std::dec
                            << " at sim_threads=" << first_threads;
  for (const std::uint32_t threads : shard_counts) {
    if (threads == first_threads) continue;
    const RunOutput other =
        run_core(topo, policy, traffic, cfg, threads, faults, injections);
    EXPECT_EQ(first.dump, other.dump) << "sim_threads=" << threads;
    EXPECT_TRUE(first.traces == other.traces) << "sim_threads=" << threads;
  }
}

SimConfig equivalence_config() {
  SimConfig cfg;
  cfg.warmup_cycles = 300;
  cfg.measure_cycles = 1'200;
  cfg.drain_cycles = 40'000;
  cfg.offered_gbps_per_host = 2.0;
  cfg.record_packet_traces = true;
  return cfg;
}

// A non-ring ("shortcut") link of the topology, or any link when none jumps.
LinkId find_shortcut_link(const Topology& topo) {
  const Graph& g = topo.graph;
  const NodeId n = g.num_nodes();
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto [u, v] = g.link_endpoints(l);
    const NodeId gap = u < v ? v - u : u - v;
    if (gap != 1 && gap != n - 1) return l;
  }
  return 0;
}

TEST(CoreEquivalence, SixTrafficPatternsByteIdentical) {
  // 64 switches x 4 hosts = 256 hosts: a square, power-of-two count, so the
  // 2-D (neighboring/transpose) and bit-permutation patterns all apply.
  const Topology topo = make_topology_by_name("dsn", 64);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  const SimConfig cfg = equivalence_config();
  const std::uint32_t hosts = 64 * cfg.hosts_per_switch;
  const struct {
    const char* pattern;
    std::uint64_t golden;
  } cases[] = {
      {"uniform", 0x91c87cdc8a9a5595ULL},   {"bit-reversal", 0xdc6835de3bffc300ULL},
      {"neighboring", 0x845bfa1d069dbc5aULL}, {"transpose", 0xfd57f6dc22eb0b3bULL},
      {"shuffle", 0x7dc89a2d9e47ebdcULL},   {"hotspot", 0xa2acb207509c3395ULL},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.pattern);
    const auto traffic = make_traffic(c.pattern, hosts);
    expect_shards_match_golden(topo, policy, *traffic, cfg, c.golden);
  }
}

TEST(CoreEquivalence, WormholeSwitchingByteIdentical) {
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.switching = SwitchingMode::kWormhole;
  cfg.buffer_flits = 8;  // packets span switches: credit stalls on every path
  const auto traffic = make_traffic("transpose", 16 * cfg.hosts_per_switch);
  expect_shards_match_golden(topo, policy, *traffic, cfg, 0x6800af38889fa4dbULL);
}

TEST(CoreEquivalence, ZeroDelayPipelineByteIdentical) {
  // router_delay = 0 makes head flits routable the cycle they arrive (the
  // active core appends to the in-flight calendar bucket mid-drain) and
  // link_delay = 0 exercises the next-cycle registration floor for pushes.
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.router_delay_ns = 0.0;
  cfg.link_delay_ns = 0.0;
  const auto traffic = make_traffic("uniform", 16 * cfg.hosts_per_switch);
  expect_shards_match_golden(topo, policy, *traffic, cfg, 0xaaf32dade095949eULL);
}

TEST(CoreEquivalence, CustomPolicyHighLoadByteIdentical) {
  // The table-free custom policy at a load past saturation: persistent
  // credit stalls keep the allocation pending lists full, so the blocked
  // re-arbitration path (not just the fast path) is compared.
  const Dsn dsn(32, dsn_default_x(32));
  const Topology& topo = dsn.topology();
  DsnCustomPolicy policy(dsn, 4);
  SimConfig cfg = equivalence_config();
  cfg.offered_gbps_per_host = 24.0;
  cfg.measure_cycles = 800;
  const auto traffic = make_traffic("uniform", 32 * cfg.hosts_per_switch);
  expect_shards_match_golden(topo, policy, *traffic, cfg, 0x2b1e5810d6e7f1b2ULL);
}

TEST(CoreEquivalence, FuzzedFaultScheduleByteIdentical) {
  // A seeded random link-flap storm plus a permanent switch death: purges,
  // retries with backoff, TTL expiries (strided NIC sweeps), routing
  // rebuilds, epoch curves and reconnect records all flow into the dump.
  const Topology topo = make_topology_by_name("dsn", 32);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.epoch_cycles = 500;
  cfg.packet_ttl_cycles = 3'000;
  cfg.retry_backoff_cycles = 32;

  const struct {
    std::uint32_t fuzz_seed;
    std::uint64_t golden;
  } cases[] = {{11u, 0x73e8fc9aba6e4e2dULL},
                 {29u, 0xa919cba51d3f49c4ULL}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.fuzz_seed);
    FaultSchedule schedule =
        make_link_flap_schedule(topo, 0.05, 200, 1'500, 12'000, c.fuzz_seed);
    schedule.switch_down(900, 7);
    const auto traffic = make_traffic("uniform", 32 * cfg.hosts_per_switch);
    expect_shards_match_golden(topo, policy, *traffic, cfg, c.golden, &schedule);
  }
}

TEST(CoreEquivalence, TraceReplayWithFaultsByteIdentical) {
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.packet_ttl_cycles = 3'000;

  std::vector<TraceEntry> injections;
  for (std::uint64_t c = 0; c < 900; c += 3) {
    injections.push_back({c, static_cast<HostId>(c % 64),
                          static_cast<HostId>((c * 13 + 5) % 64)});
  }
  FaultSchedule schedule;
  schedule.link_down(250, find_shortcut_link(topo)).switch_down(650, 3);
  const auto traffic = make_traffic("uniform", 16 * cfg.hosts_per_switch);
  expect_shards_match_golden(topo, policy, *traffic, cfg, 0x3e5c7e8cd1801b8aULL,
                         &schedule, &injections);
}

TEST(CoreEquivalence, TtlSweepStrideIsCoreInvariant) {
  // Different strides may change when queued packets expire, so each stride
  // has its own digest; for any fixed stride the shard counts must agree.
  const Topology topo = make_topology_by_name("dsn", 16);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 4);
  SimConfig cfg = equivalence_config();
  cfg.packet_ttl_cycles = 2'000;
  FaultSchedule schedule;
  schedule.switch_down(400, 5);  // never revives: its traffic must age out
  const auto traffic = make_traffic("uniform", 16 * cfg.hosts_per_switch);
  const struct {
    std::uint64_t stride;
    std::uint64_t golden;
  } cases[] = {{1, 0xaf719582fa8742dbULL},
                 {64, 0xaf719582fa8742dbULL},
                 {1'000, 0xaf719582fa8742dbULL}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.stride);
    cfg.ttl_sweep_stride = c.stride;
    expect_shards_match_golden(topo, policy, *traffic, cfg, c.golden, &schedule);
  }
}

TEST(CoreEquivalence, ThreadCountExceedingSwitchesClamps) {
  // More shards than switches (and sim_threads = 0: global pool size) must
  // clamp rather than mispartition.
  const Topology topo = make_topology_by_name("ring", 4);
  SimRouting routing(topo);
  AdaptiveUpDownPolicy policy(routing, 2);
  SimConfig cfg = equivalence_config();
  cfg.vcs = 2;
  cfg.measure_cycles = 600;
  const auto traffic = make_traffic("uniform", 4 * cfg.hosts_per_switch);
  expect_shards_match_golden(topo, policy, *traffic, cfg, 0xac56609285afa21dULL,
                         nullptr, nullptr, {0u, 3u, 16u});
}

}  // namespace
}  // namespace dsn
