// Continuous streaming execution engine (docs/STREAMING.md).
//
// Executes a workload::StreamPlan on a discrete-event simulator: channels
// emit chunks on a fixed period, viewers subscribe to per-(channel, target
// format) transcoding chains placed through a core::Allocator, and every
// chunk copy is walked hop by hop — inter-peer transfers serialize on the
// sending peer's bounded uplink, transcodes consume the hop peer's spare
// CPU — until it reaches each subscriber's sink on time (delivered), within
// the late grace (late), or not usefully at all (dropped).
//
// The engine keeps its own core::InfoBase (the RM's-eye view of the
// streaming pool: members, services, committed chain loads) so it can run
// standalone under a bench or share a System's simulator in the fuzzer,
// coupling to protocol-level faults only through an alive-probe callback.
// Everything it does is a deterministic function of (plan, registered
// peers, alive probe); digest() folds every chunk outcome into one value
// the byte-determinism tests compare.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/allocation.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/simulator.hpp"
#include "workload/streaming.hpp"

namespace p2prm::stream {

struct StreamStats {
  // Chunk copies (one per subscribed viewer per generated chunk).
  std::uint64_t chunks_generated = 0;
  std::uint64_t chunks_delivered = 0;  // arrived within the deadline
  std::uint64_t chunks_late = 0;       // within deadline + late_grace
  std::uint64_t chunks_dropped = 0;    // never usefully arrived
  std::uint64_t chunks_in_flight = 0;  // generated, outcome not committed yet
  // Chains.
  std::uint64_t chains_built = 0;       // distinct (channel, target) chains
  std::uint64_t chain_rebuilds = 0;     // re-placements after a peer loss
  std::uint64_t placement_failures = 0; // allocator found no feasible chain
  // Viewers.
  std::uint64_t viewers_joined = 0;
  std::uint64_t viewers_left = 0;
};

// Per-peer upload-link accounting; the delivery-time bandwidth cap.
struct UploadAccount {
  double capacity_bytes_per_s = 0.0;
  double bytes_sent = 0.0;
  util::SimDuration busy_time = 0;  // total reserved transmission time
};

class StreamEngine {
 public:
  // `config.allocator` selects the placement policy; the engine forces the
  // path cache on (pure memoization, docs/CONFIGURATION.md).
  StreamEngine(sim::Simulator& sim, const net::Transport& network,
               const core::SystemConfig& config, workload::StreamPlan plan);

  // Registers a pool peer before start(). Channel source peers must be
  // registered; every registered peer's uplink (spec.link) becomes its
  // delivery-time upload cap.
  void add_peer(const overlay::PeerSpec& spec,
                const std::vector<core::ServiceOffering>& services);

  // Liveness oracle consulted at every chunk tick and placement; install
  // it before start(). Without one every pool peer stays alive for the
  // whole run and liveness is never polled; the fuzzer couples this to
  // System peer state so fault plans break chains.
  void set_alive_probe(std::function<bool(util::PeerId)> probe);

  // Schedules the whole plan (chunk ticks, viewer joins/leaves) on the
  // simulator. Call once, before running the simulator.
  void start();

  [[nodiscard]] const StreamStats& stats() const { return stats_; }

  // The stream.accounting invariant: generated == delivered + late +
  // dropped + in_flight, globally and per viewer. nullopt when it holds.
  [[nodiscard]] std::optional<std::string> accounting_error() const;

  // FNV-1a over the plan and every committed chunk outcome.
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

  // On-time fraction of all generated chunk copies (1.0 when none).
  [[nodiscard]] double continuity_index() const;
  // (late + dropped) / generated (0.0 when none).
  [[nodiscard]] double deadline_miss_rate() const;
  // Jain fairness over per-peer uploaded bytes across the whole pool.
  [[nodiscard]] double jain_upload_fairness() const;
  // busy_time / elapsed per peer; the max is the pool's hottest uplink.
  [[nodiscard]] double max_upload_saturation() const;

  // Sorted per-peer upload accounts (tests assert the cap invariant).
  [[nodiscard]] std::vector<std::pair<util::PeerId, UploadAccount>>
  upload_accounts() const;

  // Publishes stream.* metrics (docs/OBSERVABILITY.md naming).
  void publish(obs::MetricsRegistry& reg) const;

  [[nodiscard]] std::size_t active_chains() const { return chains_.size(); }

  // Latest simulated time at which an outcome can still commit; running the
  // simulator past this drains every in-flight chunk.
  [[nodiscard]] util::SimTime horizon() const { return horizon_; }

 private:
  struct PeerState {
    overlay::PeerSpec spec;
    core::PeerAnnounce announce;  // kept for revival re-registration
    UploadAccount upload;
    util::SimTime busy_until = 0;  // uplink serialization point
    double committed_ops = 0.0;    // load of chains currently through it
    bool marked_dead = false;
  };

  using ChainKey = std::pair<std::uint32_t, media::MediaFormat>;
  struct Chain {
    std::uint32_t channel = 0;
    media::MediaFormat target{};
    std::vector<graph::ServiceHop> hops;
    std::vector<std::pair<util::PeerId, double>> load_deltas;
    bool placed = false;
    std::vector<std::uint32_t> subscribers;  // viewer ids, join order
  };

  struct ViewerState {
    std::uint64_t expected = 0;  // chunk copies generated while subscribed
    std::uint64_t on_time = 0;
    std::uint64_t late = 0;
    std::uint64_t dropped = 0;
    bool active = false;
  };

  [[nodiscard]] bool alive(util::PeerId peer) const;
  [[nodiscard]] const workload::ViewerPlan& viewer_plan(
      std::uint32_t id) const {
    return plan_.viewers[viewer_index_[id]];
  }
  PeerState* peer_state(util::PeerId peer);
  void sweep_liveness();
  void push_report(util::PeerId peer);
  void apply_deltas(const std::vector<std::pair<util::PeerId, double>>& deltas,
                    double sign);
  bool place_chain(Chain& chain, util::SimTime now);
  void release_chain(Chain& chain);
  void on_tick(std::uint32_t channel, std::uint32_t chunk);
  void on_join(const workload::ViewerPlan& v);
  void on_leave(const workload::ViewerPlan& v);
  void deliver_chunk(Chain& chain, util::SimTime tick);
  void commit_outcome(std::uint32_t viewer, util::SimTime at, int outcome);
  // Reserves `bytes` on `sender`'s uplink starting no earlier than `ready`;
  // returns the transmission-complete time (excluding propagation).
  util::SimTime reserve_upload(util::PeerId sender, util::SimTime ready,
                               double bytes);
  [[nodiscard]] util::SimDuration propagation(util::PeerId from,
                                              util::PeerId to) const;
  [[nodiscard]] double chunk_bytes(const media::MediaFormat& f) const;

  sim::Simulator& sim_;
  const net::Transport& network_;
  core::SystemConfig config_;
  workload::StreamPlan plan_;
  std::unique_ptr<core::Allocator> allocator_;
  core::InfoBase info_;
  util::Rng rng_;
  std::function<bool(util::PeerId)> alive_probe_;

  std::map<util::PeerId, PeerState> peers_;
  std::map<ChainKey, Chain> chains_;
  std::vector<ViewerState> viewers_;
  std::vector<std::uint32_t> viewer_index_;  // viewer id -> plan_.viewers index
  StreamStats stats_;
  std::uint64_t digest_ = 0;
  std::uint64_t next_task_ = 1;
  std::uint64_t report_seq_ = 0;
  util::SimTime started_at_ = 0;
  util::SimTime horizon_ = 0;  // time of the last possible outcome commit
  bool started_ = false;
};

}  // namespace p2prm::stream
