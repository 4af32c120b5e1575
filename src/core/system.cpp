#include "core/system.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/wire_registry.hpp"
#include "fault/fault_injector.hpp"
#include "fault/frame_shim.hpp"

namespace p2prm::core {

std::string_view task_status_name(TaskStatus s) {
  switch (s) {
    case TaskStatus::Pending: return "pending";
    case TaskStatus::Completed: return "completed";
    case TaskStatus::Rejected: return "rejected";
    case TaskStatus::Failed: return "failed";
    case TaskStatus::Orphaned: return "orphaned";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// TaskLedger

void TaskLedger::on_submitted(const TaskRecord& record) {
  records_[record.id] = record;
}

void TaskLedger::on_estimate(util::TaskId id, util::SimDuration estimated) {
  const auto it = records_.find(id);
  // A late (retried/duplicated) accept after the terminal outcome must not
  // count again: on_completed already credited the admission.
  if (it == records_.end() || it->second.status != TaskStatus::Pending) return;
  if (it->second.estimated_execution < 0) ++admitted_;
  it->second.estimated_execution = estimated;
}

void TaskLedger::on_deadline_update(util::TaskId id,
                                    util::SimDuration new_deadline) {
  const auto it = records_.find(id);
  if (it == records_.end() || it->second.status != TaskStatus::Pending) return;
  it->second.deadline = new_deadline;
}

void TaskLedger::on_completed(util::TaskId id, util::SimTime at, bool missed) {
  const auto it = records_.find(id);
  if (it == records_.end() || it->second.status != TaskStatus::Pending) return;
  it->second.status = TaskStatus::Completed;
  it->second.missed_deadline = missed;
  it->second.finished = at;
  // A completion implies admission even if the TaskAccept itself was lost.
  if (it->second.estimated_execution < 0) ++admitted_;
  ++completed_;
  if (missed) ++missed_;
  response_times_.add(util::to_seconds(at - it->second.submitted));
}

void TaskLedger::on_rejected(util::TaskId id, const std::string& reason) {
  const auto it = records_.find(id);
  if (it == records_.end() || it->second.status != TaskStatus::Pending) return;
  it->second.status = TaskStatus::Rejected;
  it->second.reason = reason;
  ++rejected_;
}

void TaskLedger::on_failed(util::TaskId id, const std::string& reason) {
  const auto it = records_.find(id);
  if (it == records_.end() || it->second.status != TaskStatus::Pending) return;
  it->second.status = TaskStatus::Failed;
  it->second.reason = reason;
  ++failed_;
}

void TaskLedger::orphan_pending(util::SimTime at) {
  for (auto& [_, record] : records_) {
    if (record.status == TaskStatus::Pending) {
      record.status = TaskStatus::Orphaned;
      record.finished = at;
      ++orphaned_;
    }
  }
}

const TaskRecord* TaskLedger::record(util::TaskId id) const {
  const auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

std::size_t TaskLedger::pending() const {
  return records_.size() - completed_ - rejected_ - failed_ - orphaned_;
}

double TaskLedger::on_time_ratio() const {
  return completed_ ? static_cast<double>(completed_ - missed_) /
                          static_cast<double>(completed_)
                    : 0.0;
}

double TaskLedger::miss_ratio() const {
  if (records_.empty()) return 0.0;
  const std::size_t bad = missed_ + rejected_ + failed_ + orphaned_;
  return static_cast<double>(bad) / static_cast<double>(records_.size());
}

double TaskLedger::goodput() const {
  if (records_.empty()) return 0.0;
  return static_cast<double>(completed_ - missed_) /
         static_cast<double>(records_.size());
}

// ---------------------------------------------------------------------------
// System

System::System(SystemConfig config)
    : config_(config),
      sim_(config.seed),
      topology_(config.topology),
      placement_rng_(sim_.rng().fork()),
      workload_rng_(sim_.rng().fork()) {
  if (config_.id_base != 0) {
    task_ids_ = util::IdGenerator<util::TaskId>(config_.id_base);
    job_ids_ = util::IdGenerator<util::JobId>(config_.id_base);
    service_ids_ = util::IdGenerator<util::ServiceId>(config_.id_base);
    object_ids_ = util::IdGenerator<util::ObjectId>(config_.id_base);
    peer_ids_gen_ = util::IdGenerator<util::PeerId>(config_.id_base);
    domain_ids_ = util::IdGenerator<util::DomainId>(config_.id_base);
  }
  if (config_.transport == TransportKind::Socket) {
    socket_transport_ = std::make_unique<net::SocketTransport>(
        config_.socket, &decode_message);
    transport_ = socket_transport_.get();
    realtime_ = std::make_unique<net::RealtimeDriver>(
        sim_, *socket_transport_, config_.socket.time_scale);
  } else {
    network_ = std::make_unique<net::Network>(
        sim_, topology_, config.message_drop_probability);
    transport_ = network_.get();
  }
}

void System::run_until(util::SimTime t) {
  if (realtime_ != nullptr) {
    realtime_->run_until(t);
  } else {
    sim_.run_until(t);
  }
}

void System::drain_transport(int wall_ms) {
  if (realtime_ != nullptr) realtime_->drain(wall_ms);
}

System::~System() = default;

PeerNode* System::build_node(std::uint32_t row, overlay::PeerSpec spec,
                             PeerInventory inventory) {
  auto node = std::make_unique<PeerNode>(*this, spec, std::move(inventory));
  PeerNode* raw = registry_.attach_node(row, std::move(node));
  transport_->attach(spec.id, spec.link,
                     [raw](util::PeerId from, const net::Message& m) {
                       raw->handle_message(from, m);
                     });
  return raw;
}

util::PeerId System::add_peer(const overlay::PeerSpec& spec_template,
                              PeerInventory inventory,
                              std::optional<net::Coordinates> at,
                              std::optional<util::PeerId> contact) {
  overlay::PeerSpec spec = spec_template;
  if (!spec.id.valid()) spec.id = next_peer_id();
  // A peer's uptime history may predate joining this overlay (the caller
  // sets online_since in the past to model long-running machines, which is
  // what makes RM qualification attainable); never let it sit in the future.
  if (spec.online_since > sim_.now()) spec.online_since = sim_.now();

  net::Coordinates coords;
  if (at) {
    coords = *at;
    topology_.place_at(spec.id, coords);
  } else {
    coords = topology_.place(spec.id, placement_rng_);
  }

  const std::uint32_t row = registry_.add_row(spec, coords, PeerState::Live);
  PeerNode* raw = build_node(row, spec, std::move(inventory));

  std::optional<util::PeerId> boot = contact;
  if (!boot) boot = random_alive_peer(spec.id);
  raw->start(boot);
  return spec.id;
}

util::PeerId System::add_lazy_peer(const overlay::PeerSpec& spec_template,
                                   PeerInventory inventory,
                                   std::optional<net::Coordinates> at) {
  overlay::PeerSpec spec = spec_template;
  if (!spec.id.valid()) spec.id = next_peer_id();
  if (spec.online_since > sim_.now()) spec.online_since = sim_.now();
  // Coordinates are drawn now (same rng the eager path uses) but live only
  // in the row until materialization keeps the topology table O(materialized).
  const net::Coordinates coords = at ? *at : topology_.draw(placement_rng_);
  registry_.add_row(spec, coords, PeerState::Lazy);
  registry_.stash_inventory(spec.id, std::move(inventory));
  return spec.id;
}

bool System::materialize_peer(util::PeerId peer,
                              std::optional<util::PeerId> contact) {
  const std::uint32_t row = registry_.row_of(peer);
  if (row == PeerRegistry::kNoSlot ||
      registry_.state(row) != PeerState::Lazy) {
    return false;
  }
  overlay::PeerSpec spec = registry_.spec(row);
  if (spec.online_since > sim_.now()) spec.online_since = sim_.now();
  topology_.place_at(peer, registry_.coordinates(row));
  registry_.set_state(row, PeerState::Live);
  PeerNode* raw = build_node(row, spec, registry_.take_inventory(peer));
  std::optional<util::PeerId> boot = contact;
  if (!boot) boot = random_alive_peer(peer);
  raw->start(boot);
  return true;
}

bool System::demote_peer(util::PeerId peer) {
  const std::uint32_t row = registry_.row_of(peer);
  if (row == PeerRegistry::kNoSlot) return false;
  PeerNode* node = registry_.node(row);
  if (node == nullptr || !node->quiescent()) return false;
  // Graceful departure so the RM drops the member promptly, then tear the
  // node down for real. Destroying mid-run is safe: every deferred
  // callback a node schedules is routed through its lifetime guard
  // (PeerNode::defer_after), timers/retry-ops are cancelled by
  // stop_local_work, and in-flight network deliveries are invalidated by
  // the endpoint epoch bump on detach.
  node->leave();
  transport_->detach(peer);
  topology_.remove(peer);
  registry_.stash_inventory(peer, node->inventory());
  registry_.detach_node(row).reset();
  registry_.set_state(row, PeerState::Lazy);
  return true;
}

std::size_t System::demote_idle_peers(util::SimDuration min_idle) {
  // Candidates first: demote_peer mutates the node storage mid-iteration.
  std::vector<util::PeerId> idle;
  registry_.for_each_node([&](std::uint32_t row, const PeerNode& node) {
    if (node.quiescent() && sim_.now() - node.last_activity() >= min_idle) {
      idle.push_back(registry_.id(row));
    }
  });
  std::sort(idle.begin(), idle.end());
  std::size_t demoted = 0;
  for (const util::PeerId id : idle) {
    if (demote_peer(id)) ++demoted;
  }
  return demoted;
}

void System::leave_peer(util::PeerId peer) {
  const std::uint32_t row = registry_.row_of(peer);
  if (row == PeerRegistry::kNoSlot) return;
  PeerNode* node = registry_.node(row);
  if (node == nullptr) return;
  node->leave();
  transport_->detach(peer);
  if (registry_.state(row) == PeerState::Live) {
    registry_.set_state(row, PeerState::Left);
  }
}

void System::crash_peer(util::PeerId peer) {
  const std::uint32_t row = registry_.row_of(peer);
  if (row == PeerRegistry::kNoSlot) return;
  PeerNode* node = registry_.node(row);
  if (node == nullptr) return;
  transport_->detach(peer);  // detach first: a crash sends nothing
  node->crash();
  if (registry_.state(row) == PeerState::Live) {
    registry_.set_state(row, PeerState::Crashed);
  }
}

bool System::restart_peer(util::PeerId peer) {
  const std::uint32_t row = registry_.row_of(peer);
  if (row == PeerRegistry::kNoSlot) return false;
  PeerNode* old = registry_.node(row);
  if (old == nullptr || old->alive()) return false;
  overlay::PeerSpec spec = old->spec();
  PeerInventory inventory = old->inventory();
  // The process restarted: uptime history starts over (this matters for RM
  // qualification), but identity, placement and stored media survive.
  spec.online_since = sim_.now();
  registry_.set_online_since(row, spec.online_since);
  // The dead node may still be referenced by simulator callbacks it
  // scheduled before crashing (they no-op once !alive_). Park it instead of
  // destroying it — restarts keep the historical never-free-mid-run
  // behaviour (demotion is the lifecycle that proves destruction safe).
  retired_.push_back(registry_.detach_node(row));
  registry_.set_state(row, PeerState::Live);
  PeerNode* raw = build_node(row, spec, std::move(inventory));
  raw->start(random_alive_peer(spec.id));
  trace(TraceKind::PeerJoined, spec.id, util::TaskId::invalid(),
        util::DomainId::invalid(), {{"reason", "restarted"}});
  return true;
}

void System::install_fault_plan(fault::FaultPlan plan) {
  fault::FaultInjector::Hooks hooks;
  hooks.crash = [this](util::PeerId p) { crash_peer(p); };
  hooks.restart = [this](util::PeerId p) { restart_peer(p); };
  hooks.primary_rm = [this] {
    const auto rms = resource_manager_ids();
    return rms.empty() ? util::PeerId::invalid() : rms.front();
  };
  if (network_ != nullptr) {
    // Sim mode: the injector hooks the Network's delivery pipeline.
    fault_injector_ = std::make_unique<fault::FaultInjector>(
        sim_, *network_, std::move(plan), std::move(hooks));
    fault_injector_->arm();
    return;
  }
  // Socket mode: a frame-granularity shim on the transport executes the
  // link faults and partition cuts (docs/TRANSPORT.md); crash/restart
  // events reuse the same peer-lifecycle hooks (crash_peer detaches the
  // listener, so remote frames drop exactly as for a killed process).
  socket_fault_ = std::make_unique<fault::SocketFaultInjector>(
      sim_, *socket_transport_, std::move(plan), std::move(hooks));
  socket_fault_->arm();
}

PeerNode* System::peer(util::PeerId id) { return registry_.node_of(id); }

const PeerNode* System::peer(util::PeerId id) const {
  return registry_.node_of(id);
}

std::vector<util::PeerId> System::peer_ids() const {
  std::vector<util::PeerId> out;
  out.reserve(registry_.size());
  registry_.for_each_row(
      [&](std::uint32_t row) { out.push_back(registry_.id(row)); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<util::PeerId> System::materialized_peer_ids() const {
  std::vector<util::PeerId> out;
  out.reserve(registry_.materialized());
  registry_.for_each_node([&](std::uint32_t row, const PeerNode&) {
    out.push_back(registry_.id(row));
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<util::PeerId> System::alive_peer_ids() const {
  std::vector<util::PeerId> out;
  registry_.for_each_node([&](std::uint32_t row, const PeerNode& node) {
    if (node.alive()) out.push_back(registry_.id(row));
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<util::PeerId> System::resource_manager_ids() const {
  std::vector<util::PeerId> out;
  registry_.for_each_node([&](std::uint32_t row, const PeerNode& node) {
    if (node.alive() && node.resource_manager() != nullptr) {
      out.push_back(registry_.id(row));
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::optional<util::PeerId> System::random_alive_peer(util::PeerId exclude) {
  std::vector<util::PeerId> candidates;
  registry_.for_each_node([&](std::uint32_t row, const PeerNode& node) {
    const util::PeerId id = registry_.id(row);
    if (id != exclude && node.alive() && node.joined()) {
      candidates.push_back(id);
    }
  });
  if (candidates.empty()) return std::nullopt;
  // The k-th smallest id, as if sorted: slot order never leaks into the draw.
  const auto k = static_cast<std::ptrdiff_t>(
      placement_rng_.below(candidates.size()));
  std::nth_element(candidates.begin(), candidates.begin() + k,
                   candidates.end());
  return candidates[static_cast<std::size_t>(k)];
}

std::size_t System::alive_count() const {
  std::size_t n = 0;
  registry_.for_each_node([&](std::uint32_t, const PeerNode& node) {
    if (node.alive()) ++n;
  });
  return n;
}

util::TaskId System::submit_task(util::PeerId origin, QoSRequirements q) {
  const util::TaskId id = next_task_id();
  TaskRecord record;
  record.id = id;
  record.origin = origin;
  record.submitted = sim_.now();
  record.deadline = q.deadline;
  ledger_.on_submitted(record);
  trace(TraceKind::TaskSubmitted, origin, id);

  PeerNode* node = peer(origin);
  if (node == nullptr) {
    // First touch of a lazy peer: materialize it and start its join. The
    // join handshake takes network round-trips, so this first task is
    // still rejected — cold-start semantics (docs/SCALING.md): the touch
    // buys *future* submissions a live origin.
    materialize_peer(origin);
    node = peer(origin);
  }
  if (node == nullptr || !node->alive() || !node->joined()) {
    ledger_.on_rejected(id, "origin-unavailable");
    return id;
  }
  node->submit_request(id, std::move(q));
  return id;
}

void System::trace(TraceKind kind, util::PeerId peer, util::TaskId task,
                   util::DomainId domain, obs::Attrs attrs) {
  if (tracer_ == nullptr) return;
  TraceEvent e;
  e.at = sim_.now();
  e.kind = kind;
  e.peer = peer;
  e.task = task;
  e.domain = domain;
  e.detail = derive_detail(kind, attrs);
  e.attrs = std::move(attrs);
  tracer_->record(std::move(e));
}

bool System::update_task_deadline(util::TaskId task,
                                  util::SimDuration new_deadline) {
  const auto* record = ledger_.record(task);
  if (record == nullptr || record->status != TaskStatus::Pending) return false;
  PeerNode* origin = peer(record->origin);
  if (origin == nullptr || !origin->alive() || !origin->joined()) return false;
  ledger_.on_deadline_update(task, new_deadline);
  origin->request_qos_update(task, new_deadline);
  return true;
}

std::vector<System::DomainInfo> System::domains() const {
  std::vector<DomainInfo> out;
  registry_.for_each_node([&](std::uint32_t row, const PeerNode& node) {
    const auto* rm = node.resource_manager();
    if (node.alive() && rm != nullptr) {
      out.push_back(DomainInfo{rm->info().domain().id(), registry_.id(row),
                               rm->info().domain().size()});
    }
  });
  std::sort(out.begin(), out.end(), [](const DomainInfo& a, const DomainInfo& b) {
    return a.domain < b.domain;
  });
  return out;
}

}  // namespace p2prm::core
