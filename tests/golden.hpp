// Golden-digest helpers for the determinism tests. A committed 64-bit FNV-1a
// digest of a result's serialized bytes pins that output exactly, so a test
// keeps guarding behaviour after the oracle that first produced the bytes is
// gone. On a mismatch, print the digest in hex next to the bytes so a
// deliberate behaviour change can be re-recorded in one pass.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsn/sim/packet.hpp"

namespace dsn {

/// 64-bit FNV-1a over `bytes`.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char ch : bytes) {
    h ^= ch;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Fixed text serialization of a simulator's packet traces: one line per
/// trace, every field in declaration order.
inline std::string packet_trace_bytes(const std::vector<PacketTrace>& traces) {
  std::string out;
  for (const PacketTrace& t : traces) {
    out += std::to_string(t.id) + ' ' + std::to_string(t.src_host) + ' ' +
           std::to_string(t.dst_host) + ' ' + std::to_string(t.gen_cycle) + ' ' +
           std::to_string(t.inject_cycle) + ' ' + std::to_string(t.eject_cycle) +
           ' ' + std::to_string(t.hops) + ' ' + std::to_string(t.retries) + '\n';
  }
  return out;
}

/// Digest of one simulator run: its to_json(SimResult).dump() bytes followed
/// by its packet traces.
inline std::uint64_t sim_run_digest(const std::string& result_dump,
                                    const std::vector<PacketTrace>& traces) {
  return fnv1a(result_dump + packet_trace_bytes(traces));
}

}  // namespace dsn
