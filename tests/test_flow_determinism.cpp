// Determinism gates for the flow tier: results must match committed golden
// digests of the full JSON projection (in-process) and be byte-identical for
// every DSN_THREADS value (subprocess, comparing `dsn-lint flow --json`
// output bytes across thread-pool widths). Registered under
// `ctest -L determinism` via the determinism.flow entry.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "dsn/analysis/factory.hpp"
#include "dsn/flow/flow_sim.hpp"
#include "dsn/flow/workload.hpp"
#include "golden.hpp"

namespace dsn::flow {
namespace {

/// One full closed-loop run, projected to bytes.
std::string run_to_bytes(const std::string& topology, const std::string& workload,
                         std::uint32_t n) {
  const Topology topo = make_topology_by_name(topology, n);
  FlowSimulator sim(topo, FlowConfig{});
  WorkloadParams params;
  params.hosts = sim.num_hosts();
  params.clients = 16;
  params.units = 6;
  params.unit_flits = 192;
  params.seed = 11;
  const std::unique_ptr<WorkloadDriver> driver = make_workload(workload, params);
  return to_json(sim.run(*driver)).dump();
}

TEST(FlowDeterminism, ResultsMatchGoldenDigests) {
  // Recorded from the sharded full-scan solver this tier used to run; any
  // change to a rate, round count or completion time moves a digest.
  const struct {
    const char* topology;
    const char* workload;
    std::uint64_t digest;
  } cases[] = {
      {"dsn", "shuffle", 0x779bf643164f52e8ULL},
      {"random-regular", "hdfs-write", 0x11abeccbc51ead79ULL},
      {"dln", "allreduce-ring", 0xfa305078d478d4b9ULL},
  };
  for (const auto& c : cases) {
    const std::string bytes = run_to_bytes(c.topology, c.workload, 128);
    EXPECT_EQ(fnv1a(bytes), c.digest) << c.topology << "/" << c.workload << ": " << bytes;
  }
}

TEST(FlowDeterminism, StaticBatchMatchesRepeatedRun) {
  // Two simulators fed the same expanded batch must agree byte-for-byte —
  // admission has no hidden per-instance state.
  const Topology topo = make_topology_by_name("dsn", 128);
  WorkloadParams params;
  params.clients = 16;
  params.units = 6;
  params.seed = 3;
  std::string first;
  for (int round = 0; round < 2; ++round) {
    FlowConfig cfg;
    FlowSimulator sim(topo, cfg);
    params.hosts = sim.num_hosts();
    const std::unique_ptr<WorkloadDriver> driver = make_workload("hdfs-read", params);
    const std::vector<Demand> batch = expand_all_demands(*driver);
    const std::string bytes = to_json(sim.run(batch)).dump();
    if (round == 0)
      first = bytes;
    else
      EXPECT_EQ(first, bytes);
  }
}

/// Run the real dsn-lint binary (path injected by CMake as DSN_LINT_PATH)
/// with an environment prefix, capturing stdout.
std::string run_lint_flow(const std::string& env_prefix, const std::string& args,
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

TEST(FlowDeterminism, LintFlowBytesInvariantUnderDsnThreads) {
  const std::string args =
      "flow --topology dsn --n 128 --workload shuffle --clients 16 --json";
  int base_code = -1;
  const std::string base = run_lint_flow("DSN_THREADS=1", args, base_code);
  ASSERT_EQ(base_code, 0) << base;
  for (const char* threads : {"4", "8"}) {
    int code = -1;
    const std::string out =
        run_lint_flow(std::string("DSN_THREADS=") + threads, args, code);
    EXPECT_EQ(code, 0) << out;
    EXPECT_EQ(base, out) << "DSN_THREADS=" << threads;
  }
}

}  // namespace
}  // namespace dsn::flow
