// The System facade: owns the simulator, the network, every peer, and the
// global task ledger. This is the entry point examples and experiments use.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/peer_node.hpp"
#include "core/peer_registry.hpp"
#include "core/trace.hpp"
#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "net/realtime.hpp"
#include "net/socket_transport.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace p2prm::fault {
class FaultInjector;
class SocketFaultInjector;
}

namespace p2prm::core {

// Terminal status of a task as observed at its origin peer.
enum class TaskStatus { Pending, Completed, Rejected, Failed, Orphaned };
[[nodiscard]] std::string_view task_status_name(TaskStatus s);

struct TaskRecord {
  util::TaskId id;
  util::PeerId origin;
  util::SimTime submitted = 0;
  util::SimDuration deadline = 0;
  TaskStatus status = TaskStatus::Pending;
  bool missed_deadline = false;
  util::SimTime finished = -1;
  // The RM's execution-time prediction at admission (from TaskAccept);
  // negative when the task never got that far. Lets experiments score the
  // estimator against the realized response time.
  util::SimDuration estimated_execution = -1;
  std::string reason;  // reject/fail reason

  [[nodiscard]] util::SimDuration response_time() const {
    return finished >= 0 ? finished - submitted : -1;
  }
};

// Aggregated outcome bookkeeping for experiments.
class TaskLedger {
 public:
  void on_submitted(const TaskRecord& record);
  void on_estimate(util::TaskId id, util::SimDuration estimated);
  // QoS renegotiation: the deadline the outcome is judged against changes.
  void on_deadline_update(util::TaskId id, util::SimDuration new_deadline);
  void on_completed(util::TaskId id, util::SimTime at, bool missed);
  void on_rejected(util::TaskId id, const std::string& reason);
  void on_failed(util::TaskId id, const std::string& reason);
  // Marks every still-pending task as orphaned (end-of-run cleanup).
  void orphan_pending(util::SimTime at);

  [[nodiscard]] const TaskRecord* record(util::TaskId id) const;
  [[nodiscard]] std::size_t submitted() const { return records_.size(); }
  // Tasks for which the origin saw an admission (TaskAccept, or completion
  // when the accept itself was lost). Survives RM crash-restarts, unlike
  // per-RM counters.
  [[nodiscard]] std::size_t admitted() const { return admitted_; }
  [[nodiscard]] std::size_t completed() const { return completed_; }
  [[nodiscard]] std::size_t completed_on_time() const {
    return completed_ - missed_;
  }
  [[nodiscard]] std::size_t missed() const { return missed_; }
  [[nodiscard]] std::size_t rejected() const { return rejected_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] std::size_t orphaned() const { return orphaned_; }
  [[nodiscard]] std::size_t pending() const;

  // Fraction of *finished* tasks that made their deadline.
  [[nodiscard]] double on_time_ratio() const;
  // Fraction of submitted tasks that missed, were rejected, failed or
  // orphaned — the paper's notion of not "meeting their deadlines".
  [[nodiscard]] double miss_ratio() const;
  [[nodiscard]] double goodput() const;  // on-time completions / submitted
  [[nodiscard]] const util::Samples& response_times_s() const {
    return response_times_;
  }

 private:
  std::unordered_map<util::TaskId, TaskRecord> records_;
  std::size_t admitted_ = 0;
  std::size_t completed_ = 0;
  std::size_t missed_ = 0;
  std::size_t rejected_ = 0;
  std::size_t failed_ = 0;
  std::size_t orphaned_ = 0;
  util::Samples response_times_;
};

class System {
 public:
  explicit System(SystemConfig config);
  ~System();

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // --- population ------------------------------------------------------------
  // Creates, places and starts a peer. With no explicit contact, an alive
  // peer is picked at random (the "random peer who redirects it to the
  // Resource Manager" of §4.1); the very first peer founds domain 0.
  util::PeerId add_peer(const overlay::PeerSpec& spec_template,
                        PeerInventory inventory,
                        std::optional<net::Coordinates> at = std::nullopt,
                        std::optional<util::PeerId> contact = std::nullopt);
  void leave_peer(util::PeerId peer);   // graceful
  void crash_peer(util::PeerId peer);   // abrupt failure
  // Brings a previously crashed/left peer back with the same identity,
  // placement and inventory (a process restart: uptime history resets, the
  // peer rejoins through a random contact). Returns false when the id is
  // unknown or the peer is still alive.
  bool restart_peer(util::PeerId peer);

  // --- lazy population (docs/SCALING.md) -------------------------------------
  // Pre-sizes the flat registry for a bulk registration (exact bytes/peer
  // accounting at scale; optional otherwise).
  void reserve_peers(std::size_t n) { registry_.reserve(n); }
  // Registers a peer as a bare registry row: coordinates are drawn (or
  // taken from `at`) and the inventory stashed, but no PeerNode, network
  // endpoint or join traffic exists until the peer is first touched. Costs
  // a few dozen bytes (PeerRegistry::footprint_bytes accounts it exactly).
  util::PeerId add_lazy_peer(const overlay::PeerSpec& spec_template,
                             PeerInventory inventory,
                             std::optional<net::Coordinates> at = std::nullopt);
  // First touch: builds the lazy peer's full state (node, endpoint, join).
  // No-op (false) unless the id names a Lazy row. submit_task materializes
  // its origin implicitly; the first tasks can still be rejected
  // "origin-unavailable" while the join handshake runs — cold-start
  // semantics, see docs/SCALING.md.
  bool materialize_peer(util::PeerId peer,
                        std::optional<util::PeerId> contact = std::nullopt);
  // Returns a quiescent, joined, non-RM peer to a bare row: graceful
  // leave, endpoint detached, inventory stashed back, node destroyed.
  // Refuses (false) peers with any in-flight local state (sessions, query
  // retries, queued jobs) or an RM role.
  bool demote_peer(util::PeerId peer);
  // Demotes every materialized peer with no application activity (task
  // submissions, job completions) for at least `min_idle`. Returns how
  // many were demoted.
  std::size_t demote_idle_peers(util::SimDuration min_idle);

  [[nodiscard]] const PeerRegistry& peer_registry() const { return registry_; }

  // --- fault injection -------------------------------------------------------
  // Installs and arms a deterministic fault plan (docs/FAULT_MODEL.md):
  // link-level loss/delay/duplication/reordering plus scheduled partitions
  // and crash-restarts, all reproducible from plan.seed. Call before
  // running the simulation. Works on both transports: sim mode hooks the
  // Network's delivery pipeline (fault::FaultInjector, exposed via
  // fault_injector()); socket mode installs a frame-granularity shim on
  // the SocketTransport plus the same scheduled partition/crash events
  // (fault::SocketFaultInjector, exposed via socket_fault_injector()).
  void install_fault_plan(fault::FaultPlan plan);
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return fault_injector_.get();
  }
  [[nodiscard]] fault::SocketFaultInjector* socket_fault_injector() {
    return socket_fault_.get();
  }

  [[nodiscard]] PeerNode* peer(util::PeerId id);
  [[nodiscard]] const PeerNode* peer(util::PeerId id) const;
  // Every registered peer id, lazy rows included, sorted. O(population):
  // prefer materialized_peer_ids() in per-snapshot paths at scale, and
  // peer_count() when only the number is needed.
  [[nodiscard]] std::vector<util::PeerId> peer_ids() const;
  // Registered peers, lazy rows included. O(1).
  [[nodiscard]] std::size_t peer_count() const { return registry_.size(); }
  // The censuses below walk materialized peers only, never lazy rows, so
  // they cost O(materialized) however large the registered population.
  // Ids of peers that currently own a PeerNode, sorted.
  [[nodiscard]] std::vector<util::PeerId> materialized_peer_ids() const;
  [[nodiscard]] std::vector<util::PeerId> alive_peer_ids() const;
  [[nodiscard]] std::vector<util::PeerId> resource_manager_ids() const;
  // A uniformly drawn alive, joined peer other than `exclude` (one draw
  // from the placement rng over the candidates in id order).
  [[nodiscard]] std::optional<util::PeerId> random_alive_peer(
      util::PeerId exclude);
  [[nodiscard]] std::size_t alive_count() const;

  // --- workload entry point ------------------------------------------------------
  // Submits a user query at `origin`; returns the task id (recorded in the
  // ledger immediately).
  util::TaskId submit_task(util::PeerId origin, QoSRequirements q);
  // Dynamic QoS renegotiation (§4.5): the user at the task's origin changes
  // the deadline (still relative to the original submission). Returns false
  // if the origin is gone or never owned the task.
  bool update_task_deadline(util::TaskId task, util::SimDuration new_deadline);

  // --- run -------------------------------------------------------------------------
  // Sim mode: runs the event loop to the target sim time. Socket mode: the
  // realtime driver paces sim time against the wall clock and pumps socket
  // I/O between event batches.
  void run_for(util::SimDuration d) { run_until(sim_.now() + d); }
  void run_until(util::SimTime t);
  // Socket mode only: linger up to `wall_ms`, flushing outbound frames and
  // processing stragglers, before a process exits. No-op in sim mode.
  void drain_transport(int wall_ms);

  // --- access ------------------------------------------------------------------------
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const sim::Simulator& simulator() const { return sim_; }
  // The control-plane message fabric. All protocol traffic (joins, task
  // queries, gossip, stream data) goes through this interface; in sim mode
  // it is the deterministic net::Network, in socket mode a
  // net::SocketTransport speaking length-prefixed frames over loopback.
  [[nodiscard]] net::Transport& transport() { return *transport_; }
  [[nodiscard]] const net::Transport& transport() const { return *transport_; }
  // The simulated network, when running in sim mode (partitions, fault
  // hooks, topology-derived delays). nullptr-deref hazard in socket mode:
  // guard with has_sim_network() in code that may run under either.
  [[nodiscard]] bool has_sim_network() const { return network_ != nullptr; }
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const net::Network& network() const { return *network_; }
  [[nodiscard]] net::Topology& topology() { return topology_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] TaskLedger& ledger() { return ledger_; }
  [[nodiscard]] const TaskLedger& ledger() const { return ledger_; }
  [[nodiscard]] util::Rng& workload_rng() { return workload_rng_; }

  // --- tracing ---------------------------------------------------------------------
  // Attach a tracer to capture structured control-plane events (task
  // lifecycle, membership, failover). nullptr (default) disables tracing.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] Tracer* tracer() { return tracer_; }
  // Emits one event if a tracer is attached (timestamp filled in here).
  // Payload is typed attrs; the legacy `detail` string is derived from them
  // (core::derive_detail), so call sites state each fact exactly once.
  void trace(TraceKind kind, util::PeerId peer,
             util::TaskId task = util::TaskId::invalid(),
             util::DomainId domain = util::DomainId::invalid(),
             obs::Attrs attrs = {});

  // Global id factories (unique across the whole system).
  [[nodiscard]] util::TaskId next_task_id() { return task_ids_.next(); }
  [[nodiscard]] util::JobId next_job_id() { return job_ids_.next(); }
  [[nodiscard]] util::ServiceId next_service_id() { return service_ids_.next(); }
  [[nodiscard]] util::ObjectId next_object_id() { return object_ids_.next(); }
  [[nodiscard]] util::PeerId next_peer_id() { return peer_ids_gen_.next(); }
  [[nodiscard]] util::DomainId next_domain_id() { return domain_ids_.next(); }

  // Domain census: (domain id, rm peer, member count) per live RM.
  struct DomainInfo {
    util::DomainId domain;
    util::PeerId rm;
    std::size_t members;
  };
  [[nodiscard]] std::vector<DomainInfo> domains() const;

 private:
  // Constructs a PeerNode for a registered row and wires its network
  // endpoint (shared by add_peer, materialize_peer and restart_peer).
  PeerNode* build_node(std::uint32_t row, overlay::PeerSpec spec,
                       PeerInventory inventory);

  SystemConfig config_;
  sim::Simulator sim_;
  net::Topology topology_;
  // Exactly one of these two backends exists, per config_.transport.
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::SocketTransport> socket_transport_;
  // Points at whichever backend is live. Never null after construction.
  net::Transport* transport_ = nullptr;
  // Paces sim time against the wall clock in socket mode; null in sim mode.
  std::unique_ptr<net::RealtimeDriver> realtime_;
  // Flat SoA rows for every peer; PeerNodes only for materialized ones.
  PeerRegistry registry_;
  // Crashed nodes replaced by restart_peer(). Kept alive until teardown:
  // simulator callbacks they scheduled may still fire (guarded by alive_).
  // (Demotion, by contrast, *destroys* the node — every deferred callback
  // a node schedules is routed through its lifetime guard, so that is
  // safe; restart keeps the parking behaviour to stay byte-identical.)
  std::vector<std::unique_ptr<PeerNode>> retired_;
  std::unique_ptr<fault::FaultInjector> fault_injector_;
  // Socket-mode counterpart (declared after socket_transport_, so it is
  // destroyed first and clears its shim pointer off the live transport).
  std::unique_ptr<fault::SocketFaultInjector> socket_fault_;
  TaskLedger ledger_;
  Tracer* tracer_ = nullptr;
  util::Rng placement_rng_;
  util::Rng workload_rng_;

  util::IdGenerator<util::TaskId> task_ids_;
  util::IdGenerator<util::JobId> job_ids_;
  util::IdGenerator<util::ServiceId> service_ids_;
  util::IdGenerator<util::ObjectId> object_ids_;
  util::IdGenerator<util::PeerId> peer_ids_gen_;
  util::IdGenerator<util::DomainId> domain_ids_;
};

}  // namespace p2prm::core
