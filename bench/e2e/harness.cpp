#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "obs/span.hpp"
#include "util/json_writer.hpp"

namespace p2prm::bench_e2e {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// ---- Spans -------------------------------------------------------------------

Spans::Scope::Scope(Spans& spans, std::string_view name)
    : spans_(spans), id_(spans.enabled_ ? spans.open(name) : -1) {}

Spans::Scope::~Scope() {
  if (id_ >= 0) spans_.close(id_);
}

int Spans::open(std::string_view name) {
  Record r;
  r.name = std::string(name);
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.start = wall_s();
  records_.push_back(std::move(r));
  const int id = static_cast<int>(records_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Spans::close(int id) {
  records_[static_cast<std::size_t>(id)].end = wall_s();
  stack_.pop_back();
}

std::vector<double> Spans::self_times() const {
  std::vector<double> self(records_.size());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    self[i] = records_[i].end - records_[i].start;
  }
  for (const Record& r : records_) {
    if (r.parent >= 0) {
      self[static_cast<std::size_t>(r.parent)] -= r.end - r.start;
    }
  }
  return self;
}

double Spans::total(std::string_view name) const {
  double sum = 0.0;
  for (const Record& r : records_) {
    if (r.name == name) sum += r.end - r.start;
  }
  return sum;
}

double Spans::self(std::string_view name) const {
  const std::vector<double> self = self_times();
  double sum = 0.0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name == name) sum += self[i];
  }
  return sum;
}

util::Samples Spans::durations(std::string_view name) const {
  util::Samples s;
  for (const Record& r : records_) {
    if (r.name == name) s.add(r.end - r.start);
  }
  return s;
}

void Spans::write_jsonl(std::ostream& out, std::string_view workload) const {
  char start[32], end[32];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(start, sizeof start, "%.9f", r.start);
    std::snprintf(end, sizeof end, "%.9f", r.end);
    out << "{\"id\":" << i << ",\"name\":";
    util::JsonWriter::write_escaped(out, r.name);
    out << ",\"start_s\":" << start << ",\"end_s\":" << end
        << ",\"parent\":" << r.parent << ",\"workload\":";
    util::JsonWriter::write_escaped(out, workload);
    out << "}\n";
  }
}

// ---- Report ------------------------------------------------------------------

void Report::set(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{std::move(name), value, std::move(unit), samples};
      return;
    }
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Report::percentiles(const std::string& p50, const std::string& p99,
                         const std::string& unit, const util::Samples& s) {
  const std::uint64_t n = s.count();
  set(p50, n ? s.quantile(0.5) : 0.0, unit, n);
  set(p99, n ? s.quantile(0.99) : 0.0, unit, n);
  check("samples." + p99, n >= 1000,
        std::to_string(n) + " samples behind the p99 (need 1000)");
}

void Report::check(std::string name, bool ok, std::string detail) {
  checks_.push_back(Check{std::move(name), ok, std::move(detail)});
}

const Report::Metric* Report::find(std::string_view name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

bool Report::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 0x100000001b3ULL;
  }
}

// ---- TaskWatch -------------------------------------------------------------------

TaskWatch::TaskWatch(core::System& system, double wall_per_sim, bool spans)
    : system_(system),
      wall_per_sim_(wall_per_sim),
      spans_(spans),
      tracer_(std::size_t{1} << 18) {
  system_.set_tracer(&tracer_);
}

TaskWatch::~TaskWatch() { system_.set_tracer(nullptr); }

void TaskWatch::drain() {
  dropped_ = dropped_ || tracer_.dropped_any();
  for (const core::TraceEvent& e : tracer_.events()) {
    if (!e.task.valid()) continue;
    switch (e.kind) {
      case core::TraceKind::TaskSubmitted:
        submitted_.push_back(e.task);
        decisions_[e.task].submitted = e.at;
        break;
      case core::TraceKind::TaskAdmitted:
      case core::TraceKind::TaskRejected: {
        const auto it = decisions_.find(e.task);
        if (it != decisions_.end() && it->second.decided < 0) {
          it->second.decided = e.at;
        }
        break;
      }
      default:
        break;
    }
    if (!spans_) continue;
    auto& timeline = timelines_[e.task];
    timeline.push_back(e);
    const bool terminal = e.kind == core::TraceKind::TaskCompleted ||
                          e.kind == core::TraceKind::TaskRejected ||
                          e.kind == core::TraceKind::TaskFailed;
    if (!terminal) continue;
    if (e.kind == core::TraceKind::TaskCompleted) {
      core::Tracer one(timeline.size());
      for (core::TraceEvent& t : timeline) one.record(std::move(t));
      for (const obs::TaskSpan& span : obs::build_task_spans(one)) {
        for (const obs::PathSegment& seg : obs::critical_path(span)) {
          const double s = util::to_seconds(seg.duration);
          if (seg.name == "admission") {
            path_.admission += s;
          } else if (seg.name == "coordination") {
            path_.coordination += s;
          } else {
            path_.hop += s;
          }
        }
        ++path_.tasks;
      }
    }
    timelines_.erase(e.task);
  }
  tracer_.clear();
}

double TaskWatch::admit_ms(util::TaskId task) const {
  const auto it = decisions_.find(task);
  if (it == decisions_.end() || it->second.decided < 0) return -1.0;
  return util::to_milliseconds(it->second.decided - it->second.submitted) *
         wall_per_sim_;
}

}  // namespace p2prm::bench_e2e
