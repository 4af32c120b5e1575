// Layer probes of the traced run: work replayed against one layer in
// isolation, so its cost can be read without the rest of the system.
//
//   graph.alloc_replay  Figure-3 allocations against copies of RM info bases
//   net.codec_replay    frame encode/decode of the run's heaviest messages
//   net.crc             CRC-32C over 64 B and 64 KiB buffers
//   net.loopback        ping-pong and bulk frames over a bench-owned
//                       SocketTransport on its own ports
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "core/peer_node.hpp"
#include "core/system.hpp"
#include "net/transport.hpp"
#include "util/stats.hpp"

namespace p2prm::bench_e2e {

// ---- graph ---------------------------------------------------------------------

struct AllocSnapshot {
  core::InfoBaseSnapshot info;
  util::SimTime at = 0;
};

// Copies the info bases of up to `max_rms` live RMs, lowest peer id first.
[[nodiscard]] std::vector<AllocSnapshot> snapshot_rms(core::System& system,
                                                      std::size_t max_rms);

// Draws one request against an RM's view (objects it knows, its members).
using QueryFn = std::function<core::AllocationRequest(
    const core::InfoBase& info, util::Rng& rng, util::SimTime now)>;

struct AllocReplay {
  util::Samples alloc_us;  // path cache on, as the RM runs
  std::uint64_t queries = 0;
  std::uint64_t vertices = 0;
  std::uint64_t candidates = 0;
  std::uint64_t feasible = 0;
  // Queries where the cached answer differs from a fresh enumeration in
  // `found` or in the candidate count.
  std::uint64_t mismatches = 0;
};

// Replays `per_rm` queries per snapshot twice, on one restored copy with the
// path cache kept warm and on another whose cache is cleared before every
// query, and accumulates into `out`.
void replay_allocations(const std::vector<AllocSnapshot>& snapshots,
                        const net::Transport& network,
                        const core::SystemConfig& config, const QueryFn& query,
                        std::uint64_t seed, std::size_t per_rm,
                        AllocReplay& out);

// ---- net -------------------------------------------------------------------------

// Live state the codec probe fills its sample messages from.
struct MessageSources {
  const core::InfoBase* info = nullptr;
  overlay::PeerSpec spec;
  core::PeerInventory inventory;
  media::MediaObject object;
  std::size_t bloom_bits = 4096;
  std::size_t bloom_hashes = 4;
};

struct CodecReplay {
  std::vector<std::string> types;  // the replayed message types
  double encode_ns_per_kib = 0.0;
  double decode_ns_per_kib = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t mismatches = 0;  // decode failures or re-encodes that differ
};

// Encodes and decodes sample frames of the `top` message types by bytes in
// `stats` (a fixed list of the usual heavy types when nothing was sent).
[[nodiscard]] CodecReplay replay_codec(const net::NetworkStats& stats,
                                       const MessageSources& sources,
                                       std::size_t top = 5);

// Nanoseconds per crc32c call over a `len`-byte buffer.
[[nodiscard]] double crc_ns(std::size_t len, std::size_t calls);

struct Loopback {
  util::Samples rtt_us;
  double mib_s = 0.0;
  bool ok = false;
  std::string error;
};

// Two peers on one SocketTransport listening on base_port and base_port+1:
// `pings` small-frame round trips, then `mib` MiB of 1 MiB frames with at
// most four in flight.
[[nodiscard]] Loopback loopback_probe(std::uint16_t base_port,
                                      std::size_t pings, std::size_t mib);

}  // namespace p2prm::bench_e2e
