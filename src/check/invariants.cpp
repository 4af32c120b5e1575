#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/info_base.hpp"
#include "core/peer_node.hpp"
#include "core/resource_manager.hpp"
#include "core/system.hpp"
#include "gossip/gossip_engine.hpp"
#include "net/network.hpp"
#include "sched/job.hpp"
#include "sched/processor.hpp"

namespace p2prm::check {

std::string_view check_phase_name(CheckPhase phase) {
  switch (phase) {
    case CheckPhase::Boundary: return "boundary";
    case CheckPhase::Quiescent: return "quiescent";
  }
  return "?";
}

void InvariantChecker::add(std::string name, bool quiescent_only, Fn fn) {
  entries_.push_back(Entry{std::move(name), quiescent_only, false,
                           std::move(fn)});
}

std::size_t InvariantChecker::check(core::System& system, CheckPhase phase) {
  std::size_t found = 0;
  for (auto& entry : entries_) {
    if (entry.fired) continue;  // report each broken invariant once
    if (entry.quiescent_only && phase != CheckPhase::Quiescent) continue;
    auto failure = entry.fn(system, phase);
    if (!failure) continue;
    entry.fired = true;
    ++found;
    violations_.push_back(
        Violation{entry.name, system.simulator().now(), std::move(*failure)});
  }
  return found;
}

void InvariantChecker::reset() {
  violations_.clear();
  for (auto& entry : entries_) entry.fired = false;
}

std::vector<std::string> InvariantChecker::invariant_names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& entry : entries_) names.push_back(entry.name);
  return names;
}

namespace {

using core::System;

// --- ledger conservation ----------------------------------------------------

std::optional<std::string> ledger_conservation(System& system,
                                               CheckPhase phase) {
  const auto& ledger = system.ledger();
  const std::size_t accounted = ledger.completed() + ledger.rejected() +
                                ledger.failed() + ledger.orphaned() +
                                ledger.pending();
  if (ledger.submitted() != accounted) {
    std::ostringstream msg;
    msg << "submitted=" << ledger.submitted() << " != completed="
        << ledger.completed() << " + rejected=" << ledger.rejected()
        << " + failed=" << ledger.failed() << " + orphaned="
        << ledger.orphaned() << " + pending=" << ledger.pending();
    return msg.str();
  }
  if (ledger.missed() > ledger.completed()) {
    return "missed count exceeds completed count";
  }
  if (ledger.admitted() > ledger.submitted()) {
    return "admitted count exceeds submitted count";
  }
  if (phase != CheckPhase::Quiescent) return std::nullopt;

  // After orphan_pending() nothing may still be pending, and every terminal
  // record must be self-consistent.
  if (ledger.pending() != 0) {
    return "tasks still pending after quiescence";
  }
  for (std::uint64_t id = 0;; ++id) {
    const auto* r = ledger.record(util::TaskId{id});
    if (r == nullptr) break;
    if (r->status == core::TaskStatus::Completed) {
      if (r->finished < r->submitted) {
        return "task " + util::to_string(r->id) + " finished before submission";
      }
      const bool late = r->finished > r->submitted + r->deadline;
      if (r->missed_deadline != late) {
        return "task " + util::to_string(r->id) +
               " missed_deadline flag disagrees with timestamps";
      }
    }
    if ((r->status == core::TaskStatus::Rejected ||
         r->status == core::TaskStatus::Failed) &&
        r->reason.empty()) {
      return "task " + util::to_string(r->id) + " terminal without a reason";
    }
  }
  return std::nullopt;
}

// --- network conservation -----------------------------------------------------

std::optional<std::string> net_conservation(System& system, CheckPhase) {
  const auto& s = system.transport().stats();
  // Every send (plus injected duplicates) ends in at most one terminal
  // counter; the remainder is still in flight.
  const std::uint64_t terminal = s.messages_delivered + s.messages_dropped +
                                 s.messages_partitioned +
                                 s.messages_undeliverable +
                                 s.messages_fault_dropped;
  if (terminal > s.messages_sent + s.messages_duplicated) {
    std::ostringstream msg;
    msg << "terminal outcomes " << terminal << " exceed sends "
        << s.messages_sent << " + duplicates " << s.messages_duplicated;
    return msg.str();
  }
  return std::nullopt;
}

// --- LoadIndex vs. linear recompute -------------------------------------------

std::optional<std::string> load_index_equivalence(System& system, CheckPhase) {
  const util::SimTime now = system.simulator().now();
  for (const auto rm_id : system.resource_manager_ids()) {
    auto& info = system.peer(rm_id)->resource_manager()->info();
    info.purge_commitments(now);  // same normalization admission applies
    const auto& index = info.load_index();
    const auto members = info.domain().member_ids();
    if (index.size() != members.size()) {
      std::ostringstream msg;
      msg << "RM " << rm_id << ": index tracks " << index.size()
          << " peers, domain has " << members.size();
      return msg.str();
    }
    double total_load = 0.0, total_capacity = 0.0;
    double min_util = std::numeric_limits<double>::infinity();
    for (const auto member : members) {
      const auto* rec = info.domain().member(member);
      const double load = info.effective_load(member);
      const double capacity = rec->spec.capacity_ops_per_s;
      const double fresh = capacity > 0.0 ? load / capacity : 1.0;
      const double indexed = index.utilization(member);
      if (std::abs(indexed - fresh) >
          1e-9 * std::max({1.0, std::abs(indexed), std::abs(fresh)})) {
        std::ostringstream msg;
        msg << "RM " << rm_id << " member " << member << ": indexed util "
            << indexed << " != recomputed " << fresh;
        return msg.str();
      }
      total_load += load;
      total_capacity += capacity;
      min_util = std::min(min_util, fresh);
    }
    if (!members.empty()) {
      const double fresh_mean =
          total_capacity > 0.0 ? total_load / total_capacity : 1.0;
      if (std::abs(index.mean_utilization() - fresh_mean) > 1e-9) {
        std::ostringstream msg;
        msg << "RM " << rm_id << ": indexed mean " << index.mean_utilization()
            << " != recomputed " << fresh_mean;
        return msg.str();
      }
      if (std::abs(index.min_utilization() - min_util) > 1e-9) {
        std::ostringstream msg;
        msg << "RM " << rm_id << ": indexed min " << index.min_utilization()
            << " != recomputed " << min_util;
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

// --- per-dispatch LLS laxity ordering -----------------------------------------

std::optional<std::string> lls_laxity_ordering(System& system, CheckPhase) {
  // The processor schedules exact laxity-crossover preemption checks, so
  // between events the running job carries the minimum laxity *up to the
  // policy's anti-thrashing hysteresis*: a waiting job may lead by at most
  // kLlsLaxityQuantum before its crossover check fires (scheduler.hpp).
  // The extra microsecond covers integer-nanosecond rounding of crossover
  // instants.
  constexpr util::SimDuration kTolerance =
      sched::kLlsLaxityQuantum + util::microseconds(1);
  for (const auto peer_id : system.alive_peer_ids()) {
    auto& processor = system.peer(peer_id)->processor();
    if (processor.policy() != sched::Policy::LeastLaxity) continue;
    const auto view = processor.laxity_view();
    const auto running = std::find_if(
        view.begin(), view.end(),
        [](const sched::JobLaxity& j) { return j.running; });
    if (running == view.end()) continue;
    for (const auto& waiting : view) {
      if (waiting.running) continue;
      if (waiting.laxity + kTolerance < running->laxity) {
        std::ostringstream msg;
        msg << "peer " << peer_id << ": running job "
            << util::to_string(running->id) << " laxity "
            << util::to_seconds(running->laxity) << "s but waiting job "
            << util::to_string(waiting.id) << " has laxity "
            << util::to_seconds(waiting.laxity) << "s";
        return msg.str();
      }
    }
  }
  return std::nullopt;
}

// --- RM <-> backup info-base convergence ---------------------------------------

// Canonical digest of the parts of a snapshot that are stable at
// quiescence: membership, inventory, active tasks, summary version. Load
// samples are excluded — they trail the profiler feedback loop by design.
std::string snapshot_signature(const core::InfoBaseSnapshot& snap) {
  std::ostringstream out;
  out << "domain=" << util::to_string(snap.domain.id())
      << " ver=" << snap.summary_version << '\n';
  out << "members:";
  for (const auto id : snap.domain.member_ids()) {
    out << ' ' << util::to_string(id);
  }
  out << '\n';
  std::vector<std::string> lines;
  for (const auto& [peer, objects] : snap.objects) {
    std::vector<std::uint64_t> ids;
    ids.reserve(objects.size());
    for (const auto& o : objects) ids.push_back(o.id.value());
    std::sort(ids.begin(), ids.end());
    std::ostringstream line;
    line << "obj " << util::to_string(peer) << ':';
    for (const auto id : ids) line << ' ' << id;
    lines.push_back(line.str());
  }
  for (const auto& [peer, services] : snap.services) {
    std::vector<std::uint64_t> ids;
    ids.reserve(services.size());
    for (const auto& s : services) ids.push_back(s.id.value());
    std::sort(ids.begin(), ids.end());
    std::ostringstream line;
    line << "svc " << util::to_string(peer) << ':';
    for (const auto id : ids) line << ' ' << id;
    lines.push_back(line.str());
  }
  std::sort(lines.begin(), lines.end());
  for (const auto& line : lines) out << line << '\n';
  std::vector<std::uint64_t> task_ids;
  for (const auto& t : snap.tasks) task_ids.push_back(t.sg.task().value());
  std::sort(task_ids.begin(), task_ids.end());
  out << "tasks:";
  for (const auto id : task_ids) out << ' ' << id;
  out << '\n';
  return out.str();
}

std::optional<std::string> backup_convergence(System& system, CheckPhase) {
  if (!system.config().enable_backup_rm) return std::nullopt;
  for (const auto rm_id : system.resource_manager_ids()) {
    auto* rm = system.peer(rm_id)->resource_manager();
    const auto backup = rm->info().domain().backup();
    if (!backup) continue;
    auto* backup_node = system.peer(*backup);
    // Only judge a settled pairing: the backup must be alive, attached to
    // this RM, know it is the designated backup, and hold a synced copy.
    // (A designation that rotated within the last sync period legitimately
    // has no copy yet — that is lag, not divergence.)
    if (backup_node == nullptr || !backup_node->alive() ||
        !backup_node->joined() || backup_node->current_rm() != rm_id ||
        backup_node->designated_backup() != *backup ||
        !backup_node->backup_snapshot().has_value()) {
      continue;
    }
    const std::string want = snapshot_signature(rm->info().snapshot());
    const std::string got = snapshot_signature(*backup_node->backup_snapshot());
    if (want != got) {
      std::ostringstream msg;
      msg << "RM " << rm_id << " and backup " << util::to_string(*backup)
          << " diverge at quiescence:\n--- RM ---\n"
          << want << "--- backup ---\n"
          << got;
      return msg.str();
    }
  }
  return std::nullopt;
}

// --- Bloom summary supersets ----------------------------------------------------

std::optional<std::string> summary_superset(System& system, CheckPhase) {
  // Current (domain -> summary_version) census of live RMs.
  struct Actual {
    core::ResourceManager* rm;
    std::uint64_t version;
  };
  std::vector<std::pair<util::DomainId, Actual>> census;
  for (const auto rm_id : system.resource_manager_ids()) {
    auto* rm = system.peer(rm_id)->resource_manager();
    census.emplace_back(rm->domain_id(),
                        Actual{rm, rm->info().summary_version()});
  }

  for (const auto rm_id : system.resource_manager_ids()) {
    auto* rm = system.peer(rm_id)->resource_manager();
    for (const auto& [domain, actual] : census) {
      const auto* summary = rm->gossip().summary_of(domain);
      if (summary == nullptr) continue;  // never learned of it: lag, not a bug
      if (rm->domain_id() == domain && summary->version != actual.version) {
        std::ostringstream msg;
        msg << "RM " << rm_id << " publishes version " << summary->version
            << " of its own domain but the info base is at version "
            << actual.version;
        return msg.str();
      }
      // Freshest-wins gossip may lag behind the source; only a copy that
      // claims to be current must actually contain the domain's inventory.
      if (summary->version != actual.version) continue;
      const auto& info = actual.rm->info();
      auto objects = info.all_objects();
      std::sort(objects.begin(), objects.end());
      for (const auto object : objects) {
        if (!summary->objects.possibly_contains(object)) {
          std::ostringstream msg;
          msg << "RM " << rm_id << ": SumO of domain "
              << util::to_string(domain) << " (version " << summary->version
              << ") lacks object " << util::to_string(object);
          return msg.str();
        }
      }
      std::vector<std::uint64_t> service_keys;
      for (const auto* edge : info.resource_graph().all_services()) {
        service_keys.push_back(edge->type.type_key());
      }
      std::sort(service_keys.begin(), service_keys.end());
      for (const auto key : service_keys) {
        if (!summary->services.possibly_contains(key)) {
          std::ostringstream msg;
          msg << "RM " << rm_id << ": SumS of domain "
              << util::to_string(domain) << " (version " << summary->version
              << ") lacks service key " << key;
          return msg.str();
        }
      }
    }
  }
  return std::nullopt;
}

// --- post-drain cleanliness -----------------------------------------------------

std::optional<std::string> core_cleanliness(System& system, CheckPhase) {
  const util::SimTime elapsed = system.simulator().now();
  for (const auto peer_id : system.alive_peer_ids()) {
    auto* node = system.peer(peer_id);
    if (node->active_sessions() != 0) {
      return "peer " + util::to_string(peer_id) + " leaked " +
             std::to_string(node->active_sessions()) + " hop sessions";
    }
    if (node->buffered_early_data() != 0) {
      return "peer " + util::to_string(peer_id) + " leaked early stream data";
    }
    if (node->processor().queue_length() != 0) {
      return "peer " + util::to_string(peer_id) + " still has " +
             std::to_string(node->processor().queue_length()) +
             " queued jobs after the drain";
    }
    if (node->processor().busy_time() > elapsed) {
      return "peer " + util::to_string(peer_id) +
             " busy longer than wall time";
    }
  }
  for (const auto rm_id : system.resource_manager_ids()) {
    auto* rm = system.peer(rm_id)->resource_manager();
    const auto running = rm->info().running_task_ids();
    if (!running.empty()) {
      return "RM " + util::to_string(rm_id) + " still tracks " +
             std::to_string(running.size()) + " running tasks";
    }
    rm->info().purge_commitments(system.simulator().now());
    for (const auto member : rm->info().domain().member_ids()) {
      const auto* rec = rm->info().domain().member(member);
      if (rm->info().effective_load(member) >= rec->spec.capacity_ops_per_s &&
          rec->spec.capacity_ops_per_s > 0.0) {
        return "RM " + util::to_string(rm_id) + " member " +
               util::to_string(member) +
               " carries a full-capacity load after the drain (stale "
               "commitment?)";
      }
    }
    const double fairness = rm->info().current_fairness();
    if (fairness < 0.0 || fairness > 1.0 + 1e-9) {
      return "RM " + util::to_string(rm_id) + " fairness index " +
             std::to_string(fairness) + " out of [0,1]";
    }
  }
  return std::nullopt;
}

// --- membership sanity -----------------------------------------------------------

std::optional<std::string> membership_attached(System& system, CheckPhase) {
  std::size_t joined = 0;
  for (const auto peer_id : system.alive_peer_ids()) {
    auto* node = system.peer(peer_id);
    if (!node->joined()) continue;
    ++joined;
    auto* rm_node = system.peer(node->current_rm());
    if (rm_node == nullptr || !rm_node->alive()) {
      return "peer " + util::to_string(peer_id) +
             " is attached to dead RM " + util::to_string(node->current_rm());
    }
  }
  const std::size_t alive = system.alive_count();
  if (alive > 0 && joined < alive * 8 / 10) {
    return std::to_string(joined) + " of " + std::to_string(alive) +
           " survivors re-attached to a domain (< 80%)";
  }
  return std::nullopt;
}

}  // namespace

void InvariantChecker::register_defaults(InvariantChecker& checker) {
  checker.add("ledger.conservation", false, ledger_conservation);
  checker.add("net.conservation", false, net_conservation);
  checker.add("load_index.equivalence", false, load_index_equivalence);
  checker.add("sched.lls_laxity", false, lls_laxity_ordering);
  checker.add("rm.backup_convergence", true, backup_convergence);
  checker.add("gossip.summary_superset", true, summary_superset);
  checker.add("core.cleanliness", true, core_cleanliness);
  checker.add("membership.attached", true, membership_attached);
}

InvariantChecker InvariantChecker::with_defaults() {
  InvariantChecker checker;
  register_defaults(checker);
  return checker;
}

}  // namespace p2prm::check
