#include "metrics/collectors.hpp"

#include <algorithm>

namespace p2prm::metrics {

LoadProbe::LoadProbe(core::System& system, util::SimDuration period)
    : system_(system), period_(period) {}

LoadProbe::~LoadProbe() { stop(); }

void LoadProbe::start() {
  if (timer_.active()) return;
  prev_time_ = system_.simulator().now();
  primed_ = false;
  baseline_busy_.clear();
  for (const auto id : system_.alive_peer_ids()) {
    if (auto* node = system_.peer(id)) {
      baseline_busy_[id] = node->processor().busy_time();
    }
  }
  timer_ = system_.simulator().every(period_, [this] { tick(); });
}

double LoadProbe::cumulative_fairness() const {
  std::vector<double> loads;
  for (const auto id : system_.alive_peer_ids()) {
    auto* node = system_.peer(id);
    if (node == nullptr) continue;
    util::SimDuration busy = node->processor().busy_time();
    const auto it = baseline_busy_.find(id);
    if (it != baseline_busy_.end()) busy -= it->second;
    // Work done, weighted by capacity: the time-integral of the paper's
    // l_i = capacity x utilization.
    loads.push_back(util::to_seconds(busy) * node->spec().capacity_ops_per_s);
  }
  return fairness::jain_index(loads);
}

void LoadProbe::stop() { timer_.cancel(); }

void LoadProbe::tick() {
  const util::SimTime now = system_.simulator().now();
  const double period_s = util::to_seconds(now - prev_time_);
  std::vector<double> loads;
  double util_sum = 0.0;
  double util_max = 0.0;
  std::size_t n = 0;

  for (const auto id : system_.alive_peer_ids()) {
    auto* node = system_.peer(id);
    if (node == nullptr) continue;
    const util::SimDuration busy = node->processor().busy_time();
    const auto it = prev_busy_.find(id);
    double utilization = 0.0;
    if (it != prev_busy_.end() && period_s > 0.0) {
      utilization = std::clamp(
          util::to_seconds(busy - it->second) / period_s, 0.0, 1.0);
    }
    prev_busy_[id] = busy;
    if (primed_) {
      loads.push_back(utilization * node->spec().capacity_ops_per_s);
      util_sum += utilization;
      util_max = std::max(util_max, utilization);
      ++n;
    }
  }
  prev_time_ = now;
  if (primed_ && n > 0) {
    const double t = util::to_seconds(now);
    fairness_.add(t, fairness::jain_index(loads));
    mean_util_.add(t, util_sum / static_cast<double>(n));
    max_util_.add(t, util_max);
  }
  primed_ = true;
}

RmAggregate aggregate_rm_stats(const core::System& system) {
  RmAggregate agg;
  for (const auto id : system.resource_manager_ids()) {
    const auto& s = system.peer(id)->resource_manager()->stats();
    agg.queries += s.queries_received;
    agg.admitted += s.tasks_admitted;
    agg.rejected += s.tasks_rejected;
    agg.redirects_out += s.redirects_out;
    agg.reassignments += s.reassignments;
    agg.recoveries_attempted += s.recoveries_attempted;
    agg.recoveries_succeeded += s.recoveries_succeeded;
    agg.member_failures += s.member_failures;
    agg.search_vertices_popped += s.search_vertices_popped;
    agg.path_cache_hits += s.path_cache_hits;
    agg.path_cache_misses += s.path_cache_misses;
    ++agg.domains;
  }
  return agg;
}

RetryAggregate aggregate_retry_stats(const core::System& system) {
  RetryAggregate agg;
  for (const auto id : system.materialized_peer_ids()) {
    const auto* node = system.peer(id);
    const auto& s = node->stats();
    agg.query_retries += s.query_retry.retries;
    agg.query_acked += s.query_retry.acked;
    agg.query_exhausted += s.query_retry.exhausted;
    agg.report_retries += s.report_retry.retries;
    agg.report_acked += s.report_retry.acked;
    agg.join_retries += s.join_retries;
    const auto* rm = node->resource_manager();
    if (rm == nullptr || !node->alive()) continue;
    agg.backup_sync_retries += rm->stats().backup_sync_retry.retries;
    agg.backup_sync_acked += rm->stats().backup_sync_retry.acked;
    agg.duplicate_queries += rm->stats().duplicate_queries;
    agg.duplicate_reports += rm->stats().duplicate_reports;
    agg.gossip_anti_entropy_pushes += rm->gossip().stats().anti_entropy_pushes;
  }
  return agg;
}

TrafficSplit split_traffic(const net::NetworkStats& stats) {
  TrafficSplit split;
  for (const auto& [type, count] : stats.per_type_count) {
    const auto bytes = stats.per_type_bytes.at(type);
    if (type == "core.stream_data") {
      split.data_messages += count;
      split.data_bytes += bytes;
    } else {
      split.control_messages += count;
      split.control_bytes += bytes;
    }
  }
  return split;
}

}  // namespace p2prm::metrics
