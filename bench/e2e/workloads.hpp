// The five bench_e2e workloads. Each pass sets up its world (a fixed
// deployment plus traffic drawn from the seed), runs the measured phase in
// fixed sim-time slices, and fills a Report with end-to-end metrics,
// per-layer counts and output checks. A traced pass additionally records
// spans, runs the layer probes and derives per-layer timings from them.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace p2prm::bench_e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 42;
  // Length of the measured phase in wall seconds on the reference machine;
  // each workload turns it into a fixed amount of simulated work, so the
  // same value means the same work on every commit.
  double seconds = 10.0;
  bool smoke = false;  // about 1/20 of the population and run length
  bool traced = false;
  // Stop once the world is set up; the report then holds setup_s alone.
  bool setup_only = false;
  // Socket workload deployment ports and the loopback probe's ports.
  std::uint16_t deploy_port = 20000;
  std::uint16_t probe_port = 29000;
};

// Throws std::invalid_argument for an unknown workload name.
void run_pass(const RunOptions& options, Spans& spans, Report& report);

}  // namespace p2prm::bench_e2e
