// Deterministic scenario specifications for the simulation fuzzer.
//
// A ScenarioSpec is the complete, self-contained description of one fuzz
// run: topology size and heterogeneity, workload mix, churn schedule, link
// faults and the timed partition/crash events of a fault::FaultPlan. Every
// stochastic decision in the run derives from the spec's seed, so a spec
// reproduces byte-for-byte — and the whole spec round-trips through a
// single-line repro string (`repro()` / `parse()`) that CI prints when a
// seed fails and developers replay with `p2prm_fuzz --repro=...`.
// See docs/TESTING.md for the repro workflow.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace p2prm::check {

// Stochastic message-level faults applied to every link (mirrors
// fault::LinkFaults, kept separate so the spec serializes independently of
// that struct's evolution).
struct LinkFaultSpec {
  double loss = 0.0;     // drop probability
  double dup = 0.0;      // duplicate probability
  double reorder = 0.0;  // reorder probability
  util::SimDuration delay = 0;   // fixed extra one-way delay
  util::SimDuration jitter = 0;  // + U[0, jitter] per message

  [[nodiscard]] bool trivial() const {
    return loss == 0.0 && dup == 0.0 && reorder == 0.0 && delay == 0 &&
           jitter == 0;
  }
  friend bool operator==(const LinkFaultSpec&, const LinkFaultSpec&) = default;
};

// Isolate the current primary RM at `at` (workload-relative), heal after
// `hold`.
struct PartitionSpec {
  util::SimDuration at = 0;
  util::SimDuration hold = util::seconds(10);
  friend bool operator==(const PartitionSpec&, const PartitionSpec&) = default;
};

// Crash a peer at `at` (workload-relative); restart it `down` later.
// down < 0 means the peer never comes back.
struct CrashSpec {
  util::SimDuration at = 0;
  util::SimDuration down = util::seconds(10);
  bool target_rm = true;       // victim = current primary RM at fire time
  std::uint32_t peer_index = 0;  // else: index into the bootstrap order
  friend bool operator==(const CrashSpec&, const CrashSpec&) = default;
};

struct ScenarioSpec {
  std::uint64_t seed = 1;

  // --- topology / population -----------------------------------------------
  std::uint32_t peers = 12;
  std::uint32_t max_domain_size = 8;
  std::uint32_t het = 1;  // workload::CapacityDistribution

  // --- workload mix ---------------------------------------------------------
  std::uint32_t task_cap = 20;       // hard cap on submitted tasks
  double arrival_rate = 0.8;         // Poisson, tasks per second
  util::SimDuration workload = util::seconds(25);
  util::SimDuration drain = util::seconds(80);

  // --- churn schedule -------------------------------------------------------
  bool churn = false;
  double mean_session_s = 45.0;
  double crash_fraction = 0.5;
  double mean_offline_s = 8.0;
  bool respawn = true;

  // --- faults ---------------------------------------------------------------
  LinkFaultSpec link{};
  std::vector<PartitionSpec> partitions;
  std::vector<CrashSpec> crashes;

  // --- ablation toggles (flipped by the oracle replays) ---------------------
  bool path_cache = true;
  bool spans = false;

  // --- lazy population scale (docs/SCALING.md) ------------------------------
  // lazy_peers flat registry rows are added after bootstrap. During the
  // workload window every boundary tick materializes wave_peers of them
  // (round-robin) and demotes idle materialized peers, fuzzing the
  // materialize/demote lifecycle under workload, churn and faults.
  // hierarchical flips both hierarchical-infobase knobs (aggregate
  // decisions + aggregate gossip).
  std::uint32_t lazy_peers = 0;
  std::uint32_t wave_peers = 0;
  bool hierarchical = false;

  // --- streaming overlay (docs/STREAMING.md) --------------------------------
  // When `stream` is set the runner drives a stream::StreamEngine on the
  // same simulator: stream_channels live channels, stream_viewers churning
  // viewers (plus a stream_flash flash crowd when nonzero), one chunk every
  // stream_chunk_ms, all under the placement policy stream_alloc indexes
  // ({paper-bfs, max-util, det-stream}). The engine couples to the fault
  // plan through a liveness probe and its accounting identity is checked at
  // every event-loop boundary ("stream.accounting"). Stream scenarios are
  // sim-transport only.
  bool stream = false;
  std::uint32_t stream_channels = 2;
  std::uint32_t stream_viewers = 8;
  std::uint32_t stream_flash = 0;
  std::uint32_t stream_chunk_ms = 500;
  std::uint32_t stream_alloc = 0;  // {0: paper-bfs, 1: max-util, 2: det-stream}

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;

  // Draws a random scenario, fully determined by `seed`.
  [[nodiscard]] static ScenarioSpec generate(std::uint64_t seed);

  // Scale-flavored scenario: generate(seed) plus `lazy_peers` lazy rows,
  // a drawn materialization wave size and (half the seeds) hierarchical
  // mode. CI's nightly scale job sweeps these at >= 100k lazy rows.
  [[nodiscard]] static ScenarioSpec generate_scale(std::uint64_t seed,
                                                   std::uint32_t lazy_peers);

  // Streaming-flavored scenario: generate(seed) plus a streaming overlay
  // drawn from a dedicated rng stream, so the base scenario `seed` already
  // names is untouched. `p2prm_fuzz --stream` sweeps these.
  [[nodiscard]] static ScenarioSpec generate_stream(std::uint64_t seed);

  // Single-line repro string: "p2prm-fuzz/1;seed=..;peers=..;...". Contains
  // every field, so parse(repro()) == *this.
  [[nodiscard]] std::string repro() const;
  [[nodiscard]] static std::optional<ScenarioSpec> parse(std::string_view s);

  // The fault plan this spec describes, with all event times shifted by
  // `t0` (the workload start, i.e. the sim time right after bootstrap).
  // `bootstrap_order` resolves CrashSpec::peer_index to concrete ids.
  [[nodiscard]] fault::FaultPlan fault_plan(
      util::SimTime t0, const std::vector<util::PeerId>& bootstrap_order) const;
};

}  // namespace p2prm::check
