// All tunables of the middleware in one place.
//
// Defaults reproduce the paper's described behaviour: LLS local scheduling,
// fairness-maximizing allocation over the Fig. 3 BFS, admission control
// with inter-domain redirection, adaptive reassignment, backup RMs, and
// lazy gossip of Bloom summaries. Experiments toggle individual features
// for ablations.
#pragma once

#include <cstdint>
#include <string_view>

#include "gossip/gossip_engine.hpp"
#include "media/transcoder.hpp"
#include "net/socket_transport.hpp"
#include "net/topology.hpp"
#include "overlay/peer.hpp"
#include "sched/scheduler.hpp"
#include "util/backoff.hpp"
#include "util/time.hpp"

namespace p2prm::core {

enum class AllocatorKind {
  PaperBfs,     // Fig. 3: BFS + QoS pruning + max fairness
  Exhaustive,   // all simple paths + max fairness (ablation upper bound)
  MinHop,       // first feasible path found by BFS (fewest hops)
  Random,       // uniformly random feasible path
  LeastLoaded,  // feasible path minimizing max post-assignment utilization
  MaxUtil,      // consolidating best-fit: max mean post-assignment utilization
  DetStream,    // deterministic min completion time (docs/STREAMING.md)
};
[[nodiscard]] std::string_view allocator_name(AllocatorKind k);
[[nodiscard]] AllocatorKind allocator_from_name(std::string_view name);

// Which net::Transport backend carries the control plane
// (docs/TRANSPORT.md). Sim is the deterministic simulated network; Socket
// runs the same protocol over real loopback TCP, paced by the realtime
// driver.
enum class TransportKind { Sim, Socket };
[[nodiscard]] std::string_view transport_kind_name(TransportKind k);
[[nodiscard]] TransportKind transport_kind_from_name(std::string_view name);

// Per-message-class retry/timeout/backoff policies (see docs/FAULT_MODEL.md).
// A policy's `initial` is that class's ack timeout; `max_attempts` counts
// the original send. Set max_attempts = 1 to disable retries for a class.
struct RetryConfig {
  // Join attempts through a fresh random contact after a dead-ended try.
  // A detached peer whose every attempt finds nobody reachable founds a
  // fresh domain once the attempts are exhausted (sole-survivor rule).
  util::BackoffPolicy join{util::seconds(2), 1.5, util::seconds(10), 5, 0.0};
  // TaskQuery -> TaskAccept/TaskReject (the task-allocation RPC). Timeout
  // must comfortably exceed a WAN round trip plus allocation time.
  util::BackoffPolicy task_query{util::milliseconds(1500), 2.0,
                                 util::seconds(6), 4, 0.1};
  // ProfilerReport -> ReportAck. Bounded well under the report period so a
  // retried report still lands before the next one supersedes it.
  util::BackoffPolicy profiler_report{util::milliseconds(150), 2.0,
                                      util::milliseconds(300), 2, 0.0};
  // BackupSync -> BackupSyncAck. Snapshots are the failover lifeline; retry
  // harder than reports but give up before the next sync period.
  util::BackoffPolicy backup_sync{util::milliseconds(250), 2.0,
                                  util::milliseconds(500), 3, 0.0};
};

struct SystemConfig {
  std::uint64_t seed = 42;

  // --- substrate -----------------------------------------------------------
  net::TopologyConfig topology{};
  double message_drop_probability = 0.0;

  // --- transport (docs/TRANSPORT.md) ---------------------------------------
  // Socket mode runs the identical protocol stack over loopback TCP, paced
  // by the wall clock. Fault plans work in both modes: System arms a
  // per-frame SocketFaultInjector instead of hooking the simulated Network.
  TransportKind transport = TransportKind::Sim;
  net::SocketConfig socket{};
  // First value minted by every id family (tasks, jobs, services, ...).
  // Per-process deployments give each process a disjoint base so ids stay
  // globally unique across the wire; 0 keeps classic single-process ids.
  std::uint64_t id_base = 0;

  // --- retry / timeout hardening -------------------------------------------
  // The protocol tolerates loss passively (watchdogs, GC, periodic gossip);
  // these make the critical exchanges *actively* reliable under injected
  // faults. Acks cost one tiny message per report/sync; disable for
  // overhead ablations.
  RetryConfig retry{};
  bool ack_profiler_reports = true;
  bool ack_backup_sync = true;

  // --- overlay / domains (§4.1) ---------------------------------------------
  // "The only parameter determining the domain size is the maximum number
  // of processing peers a Resource Manager can manage."
  std::size_t max_domain_size = 32;
  overlay::QualificationConfig qualification{};
  std::size_t max_connections = 64;

  // --- local scheduling (§2) --------------------------------------------------
  sched::Policy scheduling_policy = sched::Policy::LeastLaxity;
  bool drop_hopeless_jobs = false;

  // --- profiler feedback (§4.4) ----------------------------------------------
  util::SimDuration report_period = util::milliseconds(500);
  double ewma_alpha = 0.3;
  // "The application QoS requirements determine the appropriate update
  // frequency" (§4.4): when enabled, the RM derives the report period from
  // the tightest running deadline (headroom / 10, clamped to
  // [report_period_min, report_period]) and announces it in heartbeats.
  bool adaptive_report_period = false;
  util::SimDuration report_period_min = util::milliseconds(100);

  // --- failure detection / RM succession (§4.1) --------------------------------
  util::SimDuration heartbeat_period = util::milliseconds(500);
  util::SimDuration rm_failure_timeout = util::milliseconds(1800);
  util::SimDuration member_failure_timeout = util::milliseconds(2500);
  util::SimDuration backup_sync_period = util::seconds(1);
  bool enable_backup_rm = true;

  // --- gossip / summaries (§3.1, §4.4) ------------------------------------------
  gossip::GossipConfig gossip{};
  std::size_t bloom_bits = 4096;
  std::size_t bloom_hashes = 4;
  // Hierarchical info base: admission reads the per-domain aggregate
  // (gossip::DomainAggregate, O(domains) state) instead of per-peer rows.
  // The aggregate is built from the same incrementally maintained
  // LoadIndex values legacy admission reads, so decisions — and therefore
  // whole deterministic runs — are bit-identical either way
  // (tests/scale_test.cpp differential, seeds 1..50). Deliberately does
  // NOT touch the wire; that is gossip_domain_aggregates below.
  bool enable_hierarchical_infobase = false;
  // Attach the fixed-size DomainAggregate digest to outgoing
  // DomainSummary gossip so remote RMs can answer capability /
  // load-quantile questions without per-peer rows. Grows each summary by
  // DomainAggregate::wire_size() bytes, which shifts transmission times —
  // kept separate from enable_hierarchical_infobase so the decision knob
  // is timing-neutral and golden traces only change when asked.
  bool gossip_domain_aggregates = false;

  // --- allocation (§4.3) --------------------------------------------------------
  AllocatorKind allocator = AllocatorKind::PaperBfs;
  std::size_t exhaustive_max_hops = 6;
  // Memoize Figure 3 enumerations per (start, goal) state pair until a
  // service or load change bumps the resource-graph epoch. Pure
  // memoization: results are identical with the cache off, just slower
  // (path_cache_test.cpp enforces this).
  bool enable_path_cache = true;
  // Floor on assumed spare capacity when estimating compute times on a
  // loaded peer (prevents divide-by-zero optimism inversion).
  double min_spare_capacity_fraction = 0.10;
  // Blend profiler-measured per-service execution times (§4.4 feedback)
  // into the RM's estimates: the estimate never undercuts what the peer
  // has actually been achieving. Ablation: off = pure cost model.
  bool use_measured_execution_times = true;

  // --- admission & adaptation (§4.5) ----------------------------------------------
  bool admission_control = true;
  // "if the processor or network load is constantly above a certain
  // threshold for all peers" -> overloaded domain.
  double overload_utilization = 0.90;
  int overload_consecutive_reports = 3;
  // A saturated CPU is normal while a transcode runs; a peer only counts
  // as overloaded when work is also *waiting* (queue depth / backlog).
  std::size_t overload_min_queue = 2;
  double overload_backlog_seconds = 3.0;
  // Network-load overload (§4.5 lists "processor or network load"): a peer
  // whose used bandwidth exceeds this fraction of its link also counts.
  double overload_bandwidth_fraction = 0.90;
  // Value-based admission (optional extension, after Jensen et al. [10]):
  // when the domain's mean utilization exceeds `busy_utilization`, tasks
  // with importance below `min_importance_when_busy` are turned away so the
  // remaining capacity serves the valuable work. 0 disables the gate.
  double busy_utilization = 0.75;
  double min_importance_when_busy = 0.0;
  bool enable_reassignment = true;
  util::SimDuration adaptation_period = util::seconds(1);
  // Reassignment restarts the pipeline from the source; bound how often a
  // single task may be moved and give fresh compositions time to make
  // progress before judging them.
  int max_reassignments_per_task = 2;
  util::SimDuration reassignment_cooldown = util::seconds(5);
  // Tasks still in the info base this long past their deadline are garbage
  // collected (their completion reports were lost, e.g. across an RM
  // failover) so they stop pinning load commitments.
  util::SimDuration task_gc_grace = util::minutes(1);
  bool redirect_across_domains = true;
  int max_redirects = 3;

  // --- observability ---------------------------------------------------------------
  // Emit HopStarted/HopCompleted trace events so obs::build_task_spans can
  // reconstruct full per-task span trees (docs/OBSERVABILITY.md). Off by
  // default: the coarse lifecycle events stay byte-identical to the golden
  // traces and hop volume can dwarf the trace ring on long runs.
  bool enable_spans = false;

  // --- workload-facing cost model -------------------------------------------------
  media::CostModelConfig cost_model{};
};

}  // namespace p2prm::core
