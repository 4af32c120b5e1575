// Deterministic simulation fuzzer for the p2prm middleware.
//
//   p2prm_fuzz --seeds=0..200            sweep a seed range (end exclusive)
//   p2prm_fuzz --repro='p2prm-fuzz/1;…'  replay one serialized scenario
//   p2prm_fuzz --json                    machine-readable report on stdout
//   p2prm_fuzz --artifact=repro.txt      write failing repro strings to a file
//   p2prm_fuzz --no-oracles              skip determinism/cache/span replays
//   p2prm_fuzz --no-shrink               report the original failing scenario
//   p2prm_fuzz --trace-dump=FILE         single scenario only: write every
//                                        trace event (one per line) to FILE
//   p2prm_fuzz --spans                   force span (hop) events on, so the
//                                        trace dump carries per-hop detail
//   p2prm_fuzz --scale=N                 scale-flavored sweep: each generated
//                                        scenario carries N lazy registry
//                                        rows, materialization waves and
//                                        (half the seeds) hierarchical mode
//                                        (ScenarioSpec::generate_scale); CI's
//                                        nightly scale job runs this at 100k
//   p2prm_fuzz --stream                  streaming-flavored sweep: each
//                                        generated scenario additionally runs
//                                        a live-streaming overlay (viewer
//                                        churn, flash crowds, chain placement
//                                        under the fault plan) with the
//                                        stream.accounting invariant checked
//                                        at every boundary
//                                        (ScenarioSpec::generate_stream).
//                                        Sim transport only.
//   p2prm_fuzz --transport=sim|socket    control-plane backend (default sim).
//                                        socket runs each scenario over real
//                                        loopback TCP (docs/TRANSPORT.md): it
//                                        forces --no-oracles (replay digests
//                                        are timing-dependent). Fault plans
//                                        run through the socket fault shim
//                                        with all invariants checked.
//                                        Tune with --time-scale / --base-port.
//
// Every scenario is fully determined by its seed: the same build and the
// same --seeds range produce a byte-identical report (CI runs the sweep
// twice and cmp's the output). Exit code: 0 all clean, 1 violations found,
// 2 usage error. See docs/TESTING.md for the repro workflow.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "check/runner.hpp"
#include "check/shrink.hpp"
#include "core/system.hpp"
#include "core/trace.hpp"
#include "util/args.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace {

using p2prm::check::ScenarioSpec;
using p2prm::check::SeedOutcome;

struct SeedRange {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;  // exclusive
};

bool parse_seed_range(const std::string& s, SeedRange& out) {
  const auto dots = s.find("..");
  if (dots == std::string::npos) return false;
  try {
    out.begin = std::stoull(s.substr(0, dots));
    out.end = std::stoull(s.substr(dots + 2));
  } catch (...) {
    return false;
  }
  return out.begin <= out.end;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  static const char* digits = "0123456789abcdef";
  for (int i = 15; i >= 0; --i) {
    buf[15 - i] = digits[(v >> (4 * i)) & 0xf];
  }
  buf[16] = '\0';
  return std::string(buf);
}

struct FailureReport {
  std::uint64_t seed = 0;
  bool from_repro = false;
  std::string repro;
  std::string invariant;
  std::string message;
  std::string shrunk_repro;
  std::size_t shrink_runs = 0;
  std::size_t shrink_steps = 0;
};

void write_json(std::ostream& os, const std::vector<SeedOutcome>& outcomes,
                const std::vector<std::uint64_t>& seeds,
                const std::vector<FailureReport>& failures) {
  p2prm::util::JsonWriter w(os);
  w.begin_object();
  w.key("schema").value("p2prm-fuzz-report/1");
  w.key("runs").value(static_cast<std::uint64_t>(outcomes.size()));
  w.key("failures").value(static_cast<std::uint64_t>(failures.size()));
  w.key("results").begin_array();
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    const auto& r = o.result;
    w.begin_object();
    if (i < seeds.size()) w.key("seed").value(seeds[i]);
    w.key("repro").value(o.spec.repro());
    w.key("ok").value(r.ok());
    w.key("digest").value(hex64(r.digest));
    w.key("submitted").value(static_cast<std::uint64_t>(r.submitted));
    w.key("completed").value(static_cast<std::uint64_t>(r.completed));
    w.key("rejected").value(static_cast<std::uint64_t>(r.rejected));
    w.key("failed").value(static_cast<std::uint64_t>(r.failed));
    w.key("orphaned").value(static_cast<std::uint64_t>(r.orphaned));
    w.key("missed").value(static_cast<std::uint64_t>(r.missed));
    w.key("trace_events").value(r.trace_events);
    w.key("net_sent").value(r.net_sent);
    w.key("net_delivered").value(r.net_delivered);
    w.key("domains").value(static_cast<std::uint64_t>(r.domains));
    w.key("alive").value(static_cast<std::uint64_t>(r.alive));
    w.key("violations").begin_array();
    for (const auto& v : r.violations) {
      w.begin_object();
      w.key("invariant").value(v.invariant);
      w.key("at").value(v.at);
      w.key("message").value(v.message);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("shrunk").begin_array();
  for (const auto& f : failures) {
    w.begin_object();
    w.key("seed").value(f.seed);
    w.key("invariant").value(f.invariant);
    w.key("repro").value(f.repro);
    w.key("shrunk_repro").value(f.shrunk_repro);
    w.key("shrink_runs").value(static_cast<std::uint64_t>(f.shrink_runs));
    w.key("shrink_steps").value(static_cast<std::uint64_t>(f.shrink_steps));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  p2prm::util::Args args(argc, argv);
  const std::string seeds_arg = args.get("seeds", "0..20");
  const std::string repro_arg = args.get("repro", "");
  const bool json = args.get_bool("json", false);
  const bool oracles = !args.get_bool("no-oracles", false);
  const bool do_shrink = !args.get_bool("no-shrink", false);
  const std::string artifact = args.get("artifact", "");
  const std::string trace_dump = args.get("trace-dump", "");
  const bool force_spans = args.get_bool("spans", false);
  const long scale_arg = args.get_int("scale", 0);
  if (scale_arg < 0 || scale_arg > 10000000) {
    std::cerr << "bad --scale; expected 0..10000000 lazy rows, got "
              << scale_arg << '\n';
    return 2;
  }
  const auto scale_lazy = static_cast<std::uint32_t>(scale_arg);
  const bool stream_mode = args.get_bool("stream", false);
  const std::string transport_arg = args.get("transport", "sim");
  const double time_scale = args.get_double("time-scale", 0.05);
  const auto base_port =
      static_cast<std::uint16_t>(args.get_int("base-port", 19000));
  const std::string log = args.get("log", "");
  if (log == "debug") {
    p2prm::util::Logger::instance().set_level(p2prm::util::LogLevel::Debug);
  } else if (log == "info") {
    p2prm::util::Logger::instance().set_level(p2prm::util::LogLevel::Info);
  } else if (!log.empty()) {
    std::cerr << "bad --log; expected debug or info\n";
    return 2;
  }
  for (const auto& key : args.unused()) {
    std::cerr << "unknown flag --" << key << '\n';
    return 2;
  }

  bool socket_transport = false;
  if (transport_arg == "socket") {
    socket_transport = true;
  } else if (transport_arg != "sim") {
    std::cerr << "bad --transport; expected sim or socket, got "
              << transport_arg << '\n';
    return 2;
  }
  bool run_oracles = oracles;
  p2prm::check::ConfigTweakFn tweak;
  if (socket_transport) {
    if (run_oracles) {
      std::cerr << "note: --transport=socket forces --no-oracles (socket "
                   "replay digests are timing-dependent)\n";
      run_oracles = false;
    }
    tweak = [time_scale, base_port](p2prm::core::SystemConfig& sys) {
      sys.transport = p2prm::core::TransportKind::Socket;
      sys.socket.time_scale = time_scale;
      sys.socket.base_port = base_port;
    };
  }

  std::vector<ScenarioSpec> specs;
  std::vector<std::uint64_t> seeds;
  bool from_repro = false;
  if (!repro_arg.empty()) {
    auto spec = ScenarioSpec::parse(repro_arg);
    if (!spec) {
      std::cerr << "unparseable repro string: " << repro_arg << '\n';
      return 2;
    }
    specs.push_back(*spec);
    seeds.push_back(spec->seed);
    from_repro = true;
  } else {
    SeedRange range;
    if (!parse_seed_range(seeds_arg, range)) {
      std::cerr << "bad --seeds; expected A..B (end exclusive), got "
                << seeds_arg << '\n';
      return 2;
    }
    if (stream_mode && scale_lazy > 0) {
      std::cerr << "--stream and --scale are mutually exclusive scenario "
                   "flavors\n";
      return 2;
    }
    for (std::uint64_t s = range.begin; s < range.end; ++s) {
      specs.push_back(stream_mode ? ScenarioSpec::generate_stream(s)
                      : scale_lazy > 0
                          ? ScenarioSpec::generate_scale(s, scale_lazy)
                          : ScenarioSpec::generate(s));
      seeds.push_back(s);
    }
  }
  for (const auto& spec : specs) {
    if (spec.stream && socket_transport) {
      std::cerr << "stream scenarios require --transport=sim\n";
      return 2;
    }
  }

  if (!trace_dump.empty()) {
    // Dedicated single-scenario mode: run once and write the full trace,
    // one event per line.
    if (specs.size() != 1) {
      std::cerr << "--trace-dump needs exactly one scenario (a single-seed "
                   "--seeds range or a --repro), got "
                << specs.size() << '\n';
      return 2;
    }
    ScenarioSpec spec = specs.front();
    if (force_spans) spec.spans = true;
    std::ofstream dump(trace_dump);
    if (!dump) {
      std::cerr << "cannot open " << trace_dump << " for writing\n";
      return 2;
    }
    std::size_t dumped = 0;
    const auto inspect = [&](p2prm::core::System& system) {
      const auto* tracer = system.tracer();
      if (tracer == nullptr) return;
      for (const auto& e : tracer->events()) {
        dump << e.at << ' ' << p2prm::core::trace_kind_name(e.kind);
        if (e.peer.valid()) dump << " peer=" << e.peer.value();
        if (e.task.valid()) dump << " task=" << e.task.value();
        if (e.domain.valid()) dump << " domain=" << e.domain.value();
        if (!e.detail.empty()) dump << ' ' << e.detail;
        dump << '\n';
        ++dumped;
      }
    };
    auto checker = p2prm::check::InvariantChecker::with_defaults();
    const auto result = p2prm::check::run_scenario(
        spec, checker, p2prm::util::seconds(2), inspect, tweak);
    std::cout << "seed=" << seeds.front() << " digest=" << hex64(result.digest)
              << " events=" << dumped << " -> " << trace_dump << '\n';
    for (const auto& v : result.violations) {
      std::cerr << "violation " << v.invariant << ": " << v.message << '\n';
    }
    return result.ok() ? 0 : 1;
  }

  std::vector<SeedOutcome> outcomes;
  std::vector<FailureReport> failures;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SeedOutcome outcome =
        p2prm::check::run_spec(specs[i], run_oracles, tweak);
    if (!outcome.ok()) {
      FailureReport f;
      f.seed = seeds[i];
      f.from_repro = from_repro;
      f.repro = outcome.spec.repro();
      f.invariant = outcome.result.violations.front().invariant;
      f.message = outcome.result.violations.front().message;
      f.shrunk_repro = f.repro;
      if (do_shrink) {
        const auto shrunk = p2prm::check::shrink(
            outcome.spec,
            p2prm::check::make_same_invariant_predicate(f.invariant));
        f.shrunk_repro = shrunk.minimal.repro();
        f.shrink_runs = shrunk.runs;
        f.shrink_steps = shrunk.steps;
      }
      if (!json) {
        std::cerr << "FAIL seed=" << f.seed << " invariant=" << f.invariant
                  << "\n  " << f.message << "\n  repro: " << f.repro
                  << "\n  shrunk: " << f.shrunk_repro << '\n';
      }
      failures.push_back(std::move(f));
    } else if (!json) {
      std::cout << "ok seed=" << seeds[i] << " digest="
                << hex64(outcome.result.digest) << " tasks="
                << outcome.result.submitted << '\n';
    }
    outcomes.push_back(std::move(outcome));
  }

  if (json) write_json(std::cout, outcomes, seeds, failures);

  if (!artifact.empty() && !failures.empty()) {
    std::ofstream out(artifact);
    for (const auto& f : failures) {
      out << "seed=" << f.seed << " invariant=" << f.invariant << '\n'
          << "repro: " << f.repro << '\n'
          << "shrunk: " << f.shrunk_repro << '\n'
          << "message: " << f.message << '\n';
    }
  }
  if (!json) {
    std::cout << outcomes.size() << " scenario(s), " << failures.size()
              << " failure(s)\n";
  }
  return failures.empty() ? 0 : 1;
}
