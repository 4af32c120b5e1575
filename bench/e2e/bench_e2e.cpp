// bench_e2e — the repository's end-to-end + per-layer benchmark
// (bench/e2e/README.md).
//
//   bench_e2e --workload=NAME [--seed=42] [--seconds=10] [--trace=FILE]
//             [--smoke]
//
// Without --trace one plain pass runs and reports the end-to-end metrics
// plus per-layer counts, with setup_s the median of five set-ups (four more
// after the run). With --trace=FILE the same workload and seed run
// twice in this process: a plain pass (counts, untraced run wall) and a
// traced pass (SystemConfig::enable_spans, the bench's span recorder, the
// layer probes), whose spans are written to FILE as JSONL. Every metric is
// printed as `name value unit`, then one p2prm-bench-e2e/1 JSON object.
// Exit status: 0 when every output check passes, 1 when one fails, 2 on a
// usage error.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "util/args.hpp"
#include "util/json_writer.hpp"
#include "workloads.hpp"

using namespace p2prm;
using namespace p2prm::bench_e2e;

namespace {

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

// Traced run wall without the allocation snapshots it pauses for, over the
// plain pass's run wall.
double trace_overhead(const Spans& spans, const Report& plain) {
  const Report::Metric* plain_wall = plain.find("run_wall_s");
  const double traced = spans.total("run") - spans.total("graph.alloc_snapshot");
  return plain_wall != nullptr && plain_wall->value > 0.0
             ? traced / plain_wall->value
             : 0.0;
}

// The plain pass's metrics and checks, plus what only the traced pass
// measures, the traced pass's checks (prefixed "traced.") and the checks
// comparing the two.
Report merge(const RunOptions& o, const Report& plain, const Report& traced,
             const Spans& spans) {
  Report out = plain;
  for (const Report::Metric& m : traced.metrics()) {
    if (plain.find(m.name) == nullptr) {
      out.set(m.name, m.value, m.unit, m.samples);
    }
  }
  for (const Report::Check& c : traced.checks()) {
    out.check("traced." + c.name, c.ok, c.detail);
  }
  if (o.workload == "socket") {
    // Wall-clock pacing makes socket outcomes vary run to run; the plan
    // (and so the submissions) may not, and goodput must stay close.
    const double a = plain.find("goodput")->value;
    const double b = traced.find("goodput")->value;
    out.check("trace.outcomes_match",
              plain.attempted == traced.attempted && std::fabs(a - b) <= 0.02,
              "goodput " + number(a) + " vs " + number(b));
  } else {
    out.check("trace.digest_matches", plain.digest == traced.digest,
              "plain and traced ledger outcome digests differ");
  }
  out.set("trace.overhead", trace_overhead(spans, plain), "ratio");

  // The spans must account for the root's time and the measured run's: the
  // time no child span covers is at most 1% of each.
  const std::vector<double> self = spans.self_times();
  for (std::size_t i = 0; i < self.size(); ++i) {
    const Spans::Record& s = spans.records()[i];
    if (s.parent >= 0 && s.name != "run") continue;
    const double d = s.end - s.start;
    out.check("trace." + s.name + "_covered", self[i] <= 0.01 * d,
              number(self[i]) + " s of " + number(d) +
                  " s outside its child spans");
  }
  return out;
}

// setup_s is the median of kSetups set-ups: the run's own, then passes that
// stop once their world is set up. Those come after the run, so they leave
// its peak_rss_mib alone and do not all share one stretch of machine load.
constexpr std::size_t kSetups = 5;

void median_setup(const RunOptions& o, Report& report) {
  std::vector<double> t{report.find("setup_s")->value};
  RunOptions s = o;
  s.setup_only = true;
  while (t.size() < kSetups) {
    Spans off(false);
    Report r;
    run_pass(s, off, r);
    t.push_back(r.find("setup_s")->value);
  }
  std::sort(t.begin(), t.end());
  report.set("setup_s", t[t.size() / 2], "s", t.size());
}

void print(const RunOptions& o, const Report& r, bool traced) {
  for (const Report::Metric& m : r.metrics()) {
    std::cout << m.name << ' ' << number(m.value) << ' ' << m.unit;
    if (m.samples > 0) std::cout << " n=" << m.samples;
    std::cout << '\n';
  }
  for (const Report::Check& c : r.checks()) {
    if (!c.ok) std::cout << "CHECK FAILED " << c.name << ": " << c.detail << '\n';
  }
  char digest[32];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(r.digest));
  util::JsonWriter w(std::cout);
  w.begin_object();
  w.field("schema", "p2prm-bench-e2e/1");
  w.field("workload", o.workload);
  w.field("seed", o.seed);
  w.field("seconds", o.seconds);
  w.field("smoke", o.smoke);
  w.field("mode", traced ? "traced" : "plain");
  w.field("hardware_threads",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.field("correct", r.correct());
  w.field("attempted", r.attempted);
  w.field("failed", r.failed);
  w.field("digest", std::string_view(digest));
  w.key("metrics").begin_object();
  for (const Report::Metric& m : r.metrics()) {
    w.key(m.name).begin_object();
    w.field("value", m.value);
    w.field("unit", m.unit);
    if (m.samples > 0) w.field("samples", m.samples);
    w.end_object();
  }
  w.end_object();
  w.key("checks").begin_array();
  for (const Report::Check& c : r.checks()) {
    w.begin_object();
    w.field("name", c.name);
    w.field("ok", c.ok);
    w.field("detail", c.detail);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::cout << std::endl;
}

int run(const util::Args& args) {
  RunOptions o;
  o.workload = args.get("workload", "");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  o.seconds = args.get_double("seconds", 10.0);
  o.smoke = args.get_bool("smoke", false);
  const std::string trace_path = args.get("trace", "");
  if (!args.unused().empty() || !(o.seconds > 0.0)) {
    std::cerr << "usage: bench_e2e --workload=NAME [--seed=S] [--seconds=N] "
                 "[--trace=FILE] [--smoke]\n";
    return 2;
  }
  // Ports below the ephemeral range, spread by pid so concurrent runs on
  // one host do not collide.
  const auto pid = static_cast<unsigned>(::getpid());
  o.deploy_port = static_cast<std::uint16_t>(20000 + (pid % 400) * 24);
  o.probe_port = static_cast<std::uint16_t>(30000 + (pid % 1300) * 2);

  if (trace_path.empty()) {
    Spans off(false);
    Report report;
    run_pass(o, off, report);
    median_setup(o, report);
    print(o, report, false);
    return report.correct() ? 0 : 1;
  }

  Report plain;
  {
    Spans off(false);
    run_pass(o, off, plain);
  }
  RunOptions t = o;
  t.traced = true;
  Spans spans(true);
  Report traced;
  run_pass(t, spans, traced);
  const Report report = merge(o, plain, traced, spans);
  std::ofstream out(trace_path);
  spans.write_jsonl(out, o.workload);
  if (!out) {
    std::cerr << "bench_e2e: cannot write " << trace_path << "\n";
    return 2;
  }
  print(o, report, true);
  return report.correct() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(util::Args(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 1;
  }
}
