#include "core/system.hpp"

#include <algorithm>
#include <cmath>
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
  if (config_.transport == TransportKind::Socket && config_.num_threads > 1) {
    // The parallel engine's ordered-commit machinery is a property of the
    // simulated event loop; real sockets are paced by the wall clock.
    throw std::invalid_argument(
        "socket transport requires num_threads == 1");
  }
  if (config_.num_threads > 1) {
    sim::ParallelConfig pc;
    pc.threads = config_.num_threads;
    pc.lookahead = topology_.min_latency();
    pc.mode = sim::ParallelMode::OrderedCommit;
    if (config_.enable_shard_rebalance) {
      pc.rebalance_interval_windows = config_.rebalance_interval_windows;
    }
    sim_.enable_parallel(pc);
    // The router mutates the domain_events_ tally (a util::FlatMap, not
    // thread-safe). That is sound only because System pins OrderedCommit,
    // where every handler — and therefore every schedule call that
    // consults the router — runs serially on the coordinator. If System
    // ever adopts ShardConcurrent, the tally must become per-shard or
    // atomic before this router can be installed.
    sim_.set_shard_router(
        [this](util::PeerId peer) { return route_peer(peer); });
    if (config_.enable_shard_rebalance) {
      sim_.parallel_engine()->set_rebalance_hook(
          [this](const std::vector<double>& ewma) { rebalance_shards(ewma); });
    }
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

sim::ShardId System::domain_shard(util::DomainId d) const {
  if (const sim::ShardId* s = shard_overrides_.find(d.value())) return *s;
  return static_cast<sim::ShardId>(d.value() % config_.num_threads);
}

sim::ShardId System::shard_of(util::PeerId peer) const {
  if (config_.num_threads <= 1) return 0;
  const PeerNode* node = registry_.node_of(peer);
  if (node == nullptr) return 0;
  const util::DomainId d = node->domain();
  if (!d.valid()) return 0;
  return domain_shard(d);
}

sim::ShardId System::route_peer(util::PeerId peer) {
  if (config_.num_threads <= 1) return 0;
  const PeerNode* node = registry_.node_of(peer);
  if (node == nullptr) return 0;
  const util::DomainId d = node->domain();
  if (!d.valid()) return 0;
  // Tally traffic per domain so the rebalancer knows what is hot. The
  // tally influences only routing decisions, never event content, so it is
  // free to live on the scheduling hot path. Unsynchronized by design:
  // under OrderedCommit (the only mode System runs) scheduling is
  // serialized on the coordinator — see the note at the router
  // installation in the constructor.
  if (config_.enable_shard_rebalance) domain_events_[d.value()] += 1.0;
  return domain_shard(d);
}

void System::rebalance_shards(const std::vector<double>& shard_ewma) {
  auto* engine = sim_.parallel_engine();
  if (engine == nullptr || shard_ewma.size() < 2) return;
  const auto n = static_cast<sim::ShardId>(shard_ewma.size());

  // Hot/cool shard from the engine's executed-per-window EWMA; ties break
  // toward the lower shard id so the decision is deterministic.
  sim::ShardId hot = 0, cool = 0;
  double total = 0.0;
  for (sim::ShardId s = 0; s < n; ++s) {
    total += shard_ewma[s];
    if (shard_ewma[s] > shard_ewma[hot]) hot = s;
    if (shard_ewma[s] < shard_ewma[cool]) cool = s;
  }
  const double mean = total / static_cast<double>(n);
  if (hot != cool && mean > 0.0 &&
      shard_ewma[hot] > config_.rebalance_imbalance * mean) {
    // Migrate the heaviest domain currently homed on the hot shard, by the
    // decayed per-domain traffic tally (ties toward the lower domain id).
    // One domain per invocation: small deterministic steps, re-evaluated
    // next interval with fresh EWMAs.
    std::uint64_t best_domain = 0;
    double best_weight = 0.0;
    bool found = false;
    domain_events_.for_each([&](const std::uint64_t& d, double& w) {
      if (domain_shard(util::DomainId{d}) != hot) return;
      if (!found || w > best_weight || (w == best_weight && d < best_domain)) {
        found = true;
        best_domain = d;
        best_weight = w;
      }
    });
    if (found && best_weight > 0.0) {
      if (static_cast<sim::ShardId>(best_domain % config_.num_threads) ==
          cool) {
        shard_overrides_.erase(best_domain);  // cool is its hash home
      } else {
        shard_overrides_.insert_or_assign(best_domain, cool);
      }
    }
  }
  // Halve the tallies so old traffic fades; drop domains that fell silent
  // (collect first — the flat map must not be mutated mid-iteration).
  std::vector<std::uint64_t> faded;
  domain_events_.for_each([&](const std::uint64_t& d, double& w) {
    w *= 0.5;
    if (w < 0.5) faded.push_back(d);
  });
  for (const auto d : faded) domain_events_.erase(d);
  // Membership or routing may have shifted: refresh the per-pair lookahead
  // matrix from the current shard bounding boxes.
  engine->set_pair_lookahead(compute_pair_lookahead());
}

std::vector<util::SimDuration> System::compute_pair_lookahead() const {
  const auto n = static_cast<std::size_t>(config_.num_threads);
  struct Box {
    double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
    bool any = false;
  };
  std::vector<Box> boxes(n);
  // Min/max folds are commutative, so the unordered peer iteration cannot
  // leak ordering into the result.
  registry_.for_each_node([&](std::uint32_t row, const PeerNode& node) {
    const util::PeerId id = registry_.id(row);
    if (!node.alive() || !topology_.contains(id)) return;
    const util::DomainId d = node.domain();
    const sim::ShardId s = d.valid() ? domain_shard(d) : 0;
    const net::Coordinates c = topology_.coordinates(id);
    Box& b = boxes[s];
    if (!b.any) {
      b = Box{c.x, c.y, c.x, c.y, true};
    } else {
      b.min_x = std::min(b.min_x, c.x);
      b.min_y = std::min(b.min_y, c.y);
      b.max_x = std::max(b.max_x, c.x);
      b.max_y = std::max(b.max_y, c.y);
    }
  });
  std::vector<util::SimDuration> matrix(n * n, topology_.min_latency());
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst || !boxes[src].any || !boxes[dst].any) continue;
      // Box-to-box distance lower-bounds the distance of any member pair,
      // so the latency floor at that distance lower-bounds any src -> dst
      // message delay.
      const double dx = std::max(
          {0.0, boxes[src].min_x - boxes[dst].max_x,
           boxes[dst].min_x - boxes[src].max_x});
      const double dy = std::max(
          {0.0, boxes[src].min_y - boxes[dst].max_y,
           boxes[dst].min_y - boxes[src].max_y});
      matrix[src * n + dst] =
          topology_.latency_floor(std::sqrt(dx * dx + dy * dy));
    }
  }
  return matrix;
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
