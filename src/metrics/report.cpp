#include "metrics/report.hpp"

#include <fstream>
#include <sstream>

#include "metrics/publish.hpp"
#include "obs/export.hpp"
#include "util/json_writer.hpp"

namespace p2prm::metrics {

util::Table task_table(const core::TaskLedger& ledger) {
  util::Table t({"metric", "value"});
  t.cell("tasks submitted").cell(ledger.submitted()).end_row();
  t.cell("completed on time").cell(ledger.completed_on_time()).end_row();
  t.cell("completed late").cell(ledger.missed()).end_row();
  t.cell("rejected").cell(ledger.rejected()).end_row();
  t.cell("failed").cell(ledger.failed()).end_row();
  t.cell("orphaned").cell(ledger.orphaned()).end_row();
  t.cell("pending").cell(ledger.pending()).end_row();
  t.cell("goodput").cell(ledger.goodput(), 4).end_row();
  t.cell("miss ratio").cell(ledger.miss_ratio(), 4).end_row();
  const auto& rt = ledger.response_times_s();
  if (!rt.empty()) {
    t.cell("response time p50 (s)").cell(rt.quantile(0.5), 3).end_row();
    t.cell("response time p95 (s)").cell(rt.quantile(0.95), 3).end_row();
  }
  return t;
}

util::Table traffic_table(const net::NetworkStats& stats) {
  util::Table t({"message type", "count", "bytes"});
  for (const auto& [type, count] : stats.per_type_count) {
    t.cell(type).cell(count).cell(stats.per_type_bytes.at(type)).end_row();
  }
  const auto split = split_traffic(stats);
  t.cell("TOTAL control").cell(split.control_messages).cell(split.control_bytes)
      .end_row();
  t.cell("TOTAL data").cell(split.data_messages).cell(split.data_bytes)
      .end_row();
  if (stats.messages_fault_dropped + stats.messages_duplicated +
          stats.messages_delayed >
      0) {
    t.cell("FAULT dropped").cell(stats.messages_fault_dropped).cell(0).end_row();
    t.cell("FAULT duplicated").cell(stats.messages_duplicated).cell(0).end_row();
    t.cell("FAULT delayed").cell(stats.messages_delayed).cell(0).end_row();
  }
  return t;
}

util::Table domain_table(const core::System& system) {
  util::Table t({"domain", "rm peer", "members", "admitted", "rejected",
                 "redirects out", "recoveries"});
  for (const auto id : system.resource_manager_ids()) {
    const auto* rm = system.peer(id)->resource_manager();
    const auto& s = rm->stats();
    t.cell(util::to_string(rm->info().domain().id()))
        .cell(util::to_string(id))
        .cell(rm->info().domain().size())
        .cell(s.tasks_admitted)
        .cell(s.tasks_rejected)
        .cell(s.redirects_out)
        .cell(s.recoveries_succeeded)
        .end_row();
  }
  return t;
}

util::Table retry_table(const core::System& system) {
  const RetryAggregate agg = aggregate_retry_stats(system);
  util::Table t({"retry metric", "value"});
  t.cell("task-query retries").cell(agg.query_retries).end_row();
  t.cell("task-query acked").cell(agg.query_acked).end_row();
  t.cell("task-query exhausted").cell(agg.query_exhausted).end_row();
  t.cell("report retries").cell(agg.report_retries).end_row();
  t.cell("backup-sync retries").cell(agg.backup_sync_retries).end_row();
  t.cell("join retries").cell(agg.join_retries).end_row();
  t.cell("duplicate queries suppressed").cell(agg.duplicate_queries).end_row();
  t.cell("duplicate reports suppressed").cell(agg.duplicate_reports).end_row();
  t.cell("gossip anti-entropy pushes")
      .cell(agg.gossip_anti_entropy_pushes)
      .end_row();
  return t;
}

std::string metrics_json(const core::System& system) {
  const auto& ledger = system.ledger();
  const auto& net = system.transport().stats();
  const RetryAggregate retry = aggregate_retry_stats(system);
  const RmAggregate rm = aggregate_rm_stats(system);

  // v1: the flat key/value object CI consumers (bench gate, fault matrix)
  // parse. Numbers keep the historical %.6g rendering; `schema_version`
  // distinguishes it from the self-describing v2 (metrics_json_v2).
  std::ostringstream out;
  util::JsonWriter w(out);
  w.begin_object();
  w.field("schema_version", 1);
  const auto field = [&w](const char* key, double value) {
    w.field_fmt(key, value, "%.6g");
  };
  field("tasks_submitted", static_cast<double>(ledger.submitted()));
  field("tasks_admitted", static_cast<double>(ledger.admitted()));
  field("tasks_completed", static_cast<double>(ledger.completed()));
  field("tasks_completed_on_time",
        static_cast<double>(ledger.completed_on_time()));
  field("tasks_rejected", static_cast<double>(ledger.rejected()));
  field("tasks_failed", static_cast<double>(ledger.failed()));
  field("tasks_orphaned", static_cast<double>(ledger.orphaned()));
  field("goodput", ledger.goodput());
  field("miss_ratio", ledger.miss_ratio());
  field("rm_queries", static_cast<double>(rm.queries));
  field("rm_admitted", static_cast<double>(rm.admitted));
  field("rm_rejected", static_cast<double>(rm.rejected));
  field("rm_recoveries_succeeded",
        static_cast<double>(rm.recoveries_succeeded));
  field("search_vertices_popped",
        static_cast<double>(rm.search_vertices_popped));
  field("path_cache_hits", static_cast<double>(rm.path_cache_hits));
  field("path_cache_misses", static_cast<double>(rm.path_cache_misses));
  field("domains", static_cast<double>(rm.domains));
  field("messages_sent", static_cast<double>(net.messages_sent));
  field("messages_delivered", static_cast<double>(net.messages_delivered));
  field("messages_dropped", static_cast<double>(net.messages_dropped));
  field("messages_partitioned", static_cast<double>(net.messages_partitioned));
  field("fault_dropped", static_cast<double>(net.messages_fault_dropped));
  field("fault_duplicated", static_cast<double>(net.messages_duplicated));
  field("fault_delayed", static_cast<double>(net.messages_delayed));
  field("query_retries", static_cast<double>(retry.query_retries));
  field("query_acked", static_cast<double>(retry.query_acked));
  field("query_exhausted", static_cast<double>(retry.query_exhausted));
  field("report_retries", static_cast<double>(retry.report_retries));
  field("backup_sync_retries",
        static_cast<double>(retry.backup_sync_retries));
  field("join_retries", static_cast<double>(retry.join_retries));
  field("duplicate_queries", static_cast<double>(retry.duplicate_queries));
  field("duplicate_reports", static_cast<double>(retry.duplicate_reports));
  field("gossip_anti_entropy_pushes",
        static_cast<double>(retry.gossip_anti_entropy_pushes));
  w.end_object();
  out << '\n';
  return out.str();
}

bool write_metrics_json(const core::System& system, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << metrics_json(system);
  return static_cast<bool>(out);
}

std::string metrics_json_v2(const core::System& system) {
  obs::MetricsRegistry registry;
  publish_all(system, registry);
  return obs::to_json(registry);
}

bool write_metrics_json_v2(const core::System& system,
                           const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << metrics_json_v2(system);
  return static_cast<bool>(out);
}

std::string metrics_prometheus(const core::System& system) {
  obs::MetricsRegistry registry;
  publish_all(system, registry);
  return obs::to_prometheus(registry);
}

bool write_metrics_prometheus(const core::System& system,
                              const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << metrics_prometheus(system);
  return static_cast<bool>(out);
}

}  // namespace p2prm::metrics
