// Minimal leveled logging.
//
// Off (Warn) by default so tests and benches stay quiet; examples flip it
// to Info/Debug to narrate protocol activity. The level is an atomic (the
// hot enabled() check stays lock-free) and each write is serialized under
// a mutex, so concurrent writers interleave but never tear lines.
#pragma once

#include <atomic>
#include <mutex>
#include <sstream>
#include <string>

namespace p2prm::util {

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) {
    level_.store(level, std::memory_order_relaxed);
  }
  [[nodiscard]] LogLevel level() const {
    return level_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled(LogLevel level) const { return level >= this->level(); }

  // `sim_now_seconds` < 0 means "no simulated clock available".
  void write(LogLevel level, const std::string& component,
             const std::string& message, double sim_now_seconds = -1.0);

  // Benches/tests can capture output instead of printing. Call only while
  // no other thread is logging (setup/teardown).
  void set_sink(std::ostream* sink) {
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = sink;
  }

 private:
  Logger() = default;
  std::atomic<LogLevel> level_{LogLevel::Warn};
  std::ostream* sink_ = nullptr;  // guarded by mu_
  std::mutex mu_;
};

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string component, double now)
      : level_(level), component_(std::move(component)), now_(now) {}
  ~LogLine() { Logger::instance().write(level_, component_, os_.str(), now_); }
  template <typename T>
  LogLine& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  double now_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace p2prm::util

// Usage: P2PRM_LOG(Info, "rm", now_s) << "peer " << id << " joined";
#define P2PRM_LOG(level, component, now_s)                                \
  if (!::p2prm::util::Logger::instance().enabled(                        \
          ::p2prm::util::LogLevel::level)) {                             \
  } else                                                                 \
    ::p2prm::util::detail::LogLine(::p2prm::util::LogLevel::level,       \
                                   (component), (now_s))
