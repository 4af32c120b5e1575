// Shared measurement machinery of bench_e2e: wall/CPU/RSS clocks, the
// in-memory span recorder, the metric/check report, and TaskWatch, which
// turns a core::Tracer's event stream into per-task admission latencies
// (and, in traced runs, critical-path sums) one slice at a time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/system.hpp"
#include "core/trace.hpp"
#include "util/stats.hpp"

namespace p2prm::bench_e2e {

[[nodiscard]] double wall_s();  // steady clock, arbitrary epoch
[[nodiscard]] double cpu_s();   // user + sys of this process
[[nodiscard]] double peak_rss_mib();

// Spans recorded around the bench's own calls into each layer. Disabled
// recorders cost one branch per scope and never read the clock.
class Spans {
 public:
  struct Record {
    std::string name;
    double start = 0.0;  // wall_s()
    double end = 0.0;
    int parent = -1;     // index into records(), -1 for the root
  };

  explicit Spans(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Spans& spans, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int id_;
  };

  [[nodiscard]] const std::vector<Record>& records() const { return records_; }
  // Duration minus the time covered by direct children, per record.
  [[nodiscard]] std::vector<double> self_times() const;
  // Summed duration / self time of every span with this name.
  [[nodiscard]] double total(std::string_view name) const;
  [[nodiscard]] double self(std::string_view name) const;
  [[nodiscard]] util::Samples durations(std::string_view name) const;
  // One JSON object per span: id, name, start_s, end_s, parent, workload.
  void write_jsonl(std::ostream& out, std::string_view workload) const;

 private:
  int open(std::string_view name);
  void close(int id);

  bool enabled_;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

// Metrics and named output checks of one run.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;  // behind a percentile; 0 when not one
  };
  struct Check {
    std::string name;
    bool ok = false;
    std::string detail;
  };

  void set(std::string name, double value, std::string unit,
           std::uint64_t samples = 0);
  // Median and p99 of `s`, both carrying the sample count, plus a check
  // that the p99 has at least 1000 samples behind it.
  void percentiles(const std::string& p50, const std::string& p99,
                   const std::string& unit, const util::Samples& s);
  void check(std::string name, bool ok, std::string detail = {});

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<Check>& checks() const { return checks_; }
  [[nodiscard]] const Metric* find(std::string_view name) const;
  [[nodiscard]] bool correct() const;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;

 private:
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
};

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
void fnv_mix(std::uint64_t& h, std::uint64_t v);

// Owns the run's Tracer (attached to `system` for its lifetime) and drains
// it after every slice, so the ring only ever holds one slice of events.
// With `spans` on, each task's events are kept until its terminal event and
// folded into critical-path sums (obs::critical_path).
class TaskWatch {
 public:
  // `wall_per_sim` converts sim durations into reported wall time: 1 in sim
  // mode, the realtime driver's time_scale in socket mode.
  TaskWatch(core::System& system, double wall_per_sim, bool spans);
  ~TaskWatch();
  TaskWatch(const TaskWatch&) = delete;
  TaskWatch& operator=(const TaskWatch&) = delete;

  void drain();

  // Starts the measured phase: tasks submitted from now on are its tasks,
  // submitted()[marked()..].
  void mark() { mark_ = submitted_.size(); }
  [[nodiscard]] std::size_t marked() const { return mark_; }
  // Every task id in TaskSubmitted order.
  [[nodiscard]] const std::vector<util::TaskId>& submitted() const {
    return submitted_;
  }
  // First TaskAdmitted/TaskRejected of the task minus its TaskSubmitted,
  // in reported milliseconds; negative when it never got a decision.
  [[nodiscard]] double admit_ms(util::TaskId task) const;
  [[nodiscard]] bool dropped_any() const { return dropped_; }

  struct PathSums {
    double admission = 0.0;  // sim seconds
    double hop = 0.0;
    double coordination = 0.0;
    std::uint64_t tasks = 0;
  };
  [[nodiscard]] const PathSums& path_sums() const { return path_; }

 private:
  struct Decision {
    util::SimTime submitted = 0;
    util::SimTime decided = -1;
  };

  core::System& system_;
  double wall_per_sim_;
  bool spans_;
  core::Tracer tracer_;
  bool dropped_ = false;
  std::vector<util::TaskId> submitted_;
  std::size_t mark_ = 0;
  std::unordered_map<util::TaskId, Decision> decisions_;
  std::unordered_map<util::TaskId, std::vector<core::TraceEvent>> timelines_;
  PathSums path_;
};

}  // namespace p2prm::bench_e2e
