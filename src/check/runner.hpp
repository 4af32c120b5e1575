// Executes a ScenarioSpec under invariant checking.
//
// run_scenario builds the full stack a spec describes — System, synthesized
// population, Poisson workload, churn, fault plan — runs it with boundary
// invariant checks every couple of simulated seconds, drains, and finishes
// with the quiescent checks. fuzz_seed additionally replays clean runs
// against the ablation oracles: a determinism rerun and the cache-off /
// spans-on configurations, whose behavior digests must match bit-for-bit
// (the PR2/PR3 equivalence guarantees, now enforced over random scenarios).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "check/scenario.hpp"

namespace p2prm::core {
struct SystemConfig;
}  // namespace p2prm::core

namespace p2prm::check {

// Outcome summary of one scenario execution. `digest` is an FNV-1a hash of
// the run's observable behavior — task records, non-hop trace events and the
// final domain census — deliberately excluding hop/span events and transport
// counters so that ablation replays (cache off, spans on) must reproduce it.
struct RunResult {
  std::vector<Violation> violations;
  std::uint64_t digest = 0;
  util::SimTime end_time = 0;

  // Report counters (all from the ledger / network / census at the end).
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t failed = 0;
  std::size_t orphaned = 0;
  std::size_t missed = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t net_sent = 0;
  std::uint64_t net_delivered = 0;
  std::size_t domains = 0;
  std::size_t alive = 0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
};

// Runs `spec` against `checker` (which accumulates violations; pass a fresh
// one per run). Boundary checks fire every `boundary_period`. `inspect`, when
// set, runs on the final quiescent system before teardown — tests use it to
// probe end-state beyond what RunResult summarizes.
using InspectFn = std::function<void(core::System&)>;
// `tweak`, when set, runs on the assembled SystemConfig before the System is
// built — the fuzzer's --transport=socket uses it to switch the backend,
// which a ScenarioSpec deliberately does not serialize.
using ConfigTweakFn = std::function<void(core::SystemConfig&)>;
RunResult run_scenario(const ScenarioSpec& spec, InvariantChecker& checker,
                       util::SimDuration boundary_period = util::seconds(2),
                       const InspectFn& inspect = {},
                       const ConfigTweakFn& tweak = {});

// Convenience: fresh default checker.
RunResult run_scenario(const ScenarioSpec& spec);

// One fuzz iteration: generate the spec for `seed`, run it, and — when the
// base run is clean and `oracles` is set — replay it under the equivalence
// oracles. Oracle mismatches surface as violations named "oracle.*".
struct SeedOutcome {
  ScenarioSpec spec;
  RunResult result;

  [[nodiscard]] bool ok() const { return result.ok(); }
};

SeedOutcome fuzz_seed(std::uint64_t seed, bool oracles = true);

// Runs the spec (plus oracles when enabled) and reports the outcome — the
// shared path behind fuzz_seed and `p2prm_fuzz --repro`. `tweak` applies to
// the base run only (oracle replays keep the untweaked config) — the
// fuzzer's --transport=socket rides this hook, which is also why socket
// runs force oracles off: replay digests are timing-dependent there.
SeedOutcome run_spec(const ScenarioSpec& spec, bool oracles = true,
                     const ConfigTweakFn& tweak = {});

}  // namespace p2prm::check
