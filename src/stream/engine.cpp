#include "stream/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "fairness/fairness.hpp"

namespace p2prm::stream {

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_mix_u64(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

// Chunk copy outcomes (digest codes).
constexpr int kDelivered = 0;
constexpr int kLate = 1;
constexpr int kDropped = 2;

}  // namespace

StreamEngine::StreamEngine(sim::Simulator& sim, const net::Transport& network,
                           const core::SystemConfig& config,
                           workload::StreamPlan plan)
    : sim_(sim),
      network_(network),
      config_(config),
      plan_(std::move(plan)),
      allocator_(core::make_allocator(config.allocator)),
      info_(util::DomainId{0xE10}, util::PeerId{0}),
      rng_(plan_.config.seed * 0x2545f4914f6cdd1dULL + 0x5eed0e10ULL) {
  // The cache is pure memoization (path_cache_test proves equivalence);
  // chain (re)placements hit the same (start, goal) pairs constantly.
  config_.enable_path_cache = true;
}

void StreamEngine::add_peer(const overlay::PeerSpec& spec,
                            const std::vector<core::ServiceOffering>& services) {
  if (started_) {
    throw std::logic_error("StreamEngine::add_peer after start()");
  }
  PeerState st;
  st.spec = spec;
  st.announce.spec = spec;
  st.announce.services = services;
  st.upload.capacity_bytes_per_s = spec.link.uplink_bytes_per_s;
  info_.add_member(spec, sim_.now());
  info_.add_inventory(st.announce);
  peers_.emplace(spec.id, std::move(st));
  push_report(spec.id);
}

void StreamEngine::set_alive_probe(std::function<bool(util::PeerId)> probe) {
  if (started_) {
    throw std::logic_error("StreamEngine::set_alive_probe after start()");
  }
  alive_probe_ = std::move(probe);
}

bool StreamEngine::alive(util::PeerId peer) const {
  return alive_probe_ ? alive_probe_(peer) : true;
}

StreamEngine::PeerState* StreamEngine::peer_state(util::PeerId peer) {
  const auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : &it->second;
}

void StreamEngine::push_report(util::PeerId peer) {
  PeerState* st = peer_state(peer);
  if (st == nullptr || st->marked_dead) return;
  core::ProfilerReport report;
  report.sample.at = sim_.now();
  report.sample.smoothed_load_ops = st->committed_ops;
  report.seq = ++report_seq_;
  info_.record_report(peer, report, sim_.now());
}

void StreamEngine::apply_deltas(
    const std::vector<std::pair<util::PeerId, double>>& deltas, double sign) {
  for (const auto& [peer, rate] : deltas) {
    if (PeerState* st = peer_state(peer)) {
      st->committed_ops = std::max(0.0, st->committed_ops + sign * rate);
      push_report(peer);
    }
  }
}

void StreamEngine::sweep_liveness() {
  // Without a probe alive() is always true, so no peer is ever marked dead
  // and the sweep could change nothing.
  if (!alive_probe_) return;
  for (auto& [id, st] : peers_) {
    const bool a = alive(id);
    if (!a && !st.marked_dead) {
      st.marked_dead = true;
      (void)info_.remove_peer(id);
    } else if (a && st.marked_dead) {
      st.marked_dead = false;
      info_.add_member(st.spec, sim_.now());
      info_.add_inventory(st.announce);
      push_report(id);
    }
  }
}

void StreamEngine::start() {
  if (started_) throw std::logic_error("StreamEngine::start called twice");
  started_ = true;
  started_at_ = sim_.now();
  digest_ = plan_.digest();

  const double chunk_s = util::to_seconds(plan_.config.chunk_period);
  for (std::uint32_t c = 0; c < plan_.channels.size(); ++c) {
    const workload::ChannelPlan& ch = plan_.channels[c];
    PeerState* src = peer_state(ch.source);
    if (src == nullptr) {
      throw std::invalid_argument("stream engine: channel source peer " +
                                  std::to_string(ch.source.value()) +
                                  " is not a registered pool peer");
    }
    media::MediaObject obj;
    obj.id = ch.object;
    obj.name = "channel-" + std::to_string(ch.id);
    obj.format = ch.source_format;
    obj.duration_s = chunk_s;  // the allocation unit is one chunk
    obj.content_hash = ch.object.value();
    src->announce.objects.push_back(obj);
    core::PeerAnnounce a;
    a.spec.id = ch.source;
    a.objects = {obj};
    info_.add_inventory(a);

    // Self-rescheduling tick chain; one live event per channel at a time.
    const auto tick_at = [this, c](std::uint32_t k, const auto& self) -> void {
      const workload::ChannelPlan& chan = plan_.channels[c];
      if (k >= chan.chunk_count) return;
      sim_.schedule_at(
          started_at_ + chan.start +
              static_cast<util::SimDuration>(k) * plan_.config.chunk_period,
          [this, c, k, self] {
            on_tick(c, k);
            self(k + 1, self);
          });
    };
    tick_at(0, tick_at);
  }

  viewers_.assign(plan_.viewers.size(), ViewerState{});
  viewer_index_.assign(plan_.viewers.size(), 0);
  for (std::size_t i = 0; i < plan_.viewers.size(); ++i) {
    viewer_index_[plan_.viewers[i].id] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = 0; i < plan_.viewers.size(); ++i) {
    const workload::ViewerPlan& v = plan_.viewers[i];
    sim_.schedule_at(started_at_ + v.join,
                     [this, i] { on_join(plan_.viewers[i]); });
    sim_.schedule_at(started_at_ + v.leave,
                     [this, i] { on_leave(plan_.viewers[i]); });
  }
}

bool StreamEngine::place_chain(Chain& chain, util::SimTime now) {
  const workload::ChannelPlan& ch = plan_.channels[chain.channel];
  core::AllocationRequest req;
  req.task = util::TaskId{next_task_++};
  req.q.object = ch.object;
  req.q.acceptable_formats = {chain.target};
  req.q.deadline = plan_.config.chunk_deadline + plan_.config.late_grace;
  // Representative sink: the earliest still-subscribed viewer.
  assert(!chain.subscribers.empty());
  req.sink = viewer_plan(chain.subscribers.front()).sink;
  req.now = req.submitted_at = now;

  const core::AllocationResult result =
      allocator_->allocate(info_, network_, config_, req, rng_);
  if (!result.found) {
    ++stats_.placement_failures;
    chain.placed = false;
    return false;
  }
  chain.hops = result.sg.hops();
  chain.load_deltas = result.load_deltas;
  apply_deltas(chain.load_deltas, +1.0);
  chain.placed = true;
  return true;
}

void StreamEngine::release_chain(Chain& chain) {
  if (!chain.placed) return;
  apply_deltas(chain.load_deltas, -1.0);
  chain.hops.clear();
  chain.load_deltas.clear();
  chain.placed = false;
}

double StreamEngine::chunk_bytes(const media::MediaFormat& f) const {
  return static_cast<double>(f.bitrate_kbps) * 1000.0 / 8.0 *
         util::to_seconds(plan_.config.chunk_period);
}

util::SimDuration StreamEngine::propagation(util::PeerId from,
                                            util::PeerId to) const {
  return network_.estimate_delay(from, to, 0);
}

util::SimTime StreamEngine::reserve_upload(util::PeerId sender,
                                           util::SimTime ready, double bytes) {
  PeerState& st = peers_.at(sender);
  const util::SimTime start = std::max(ready, st.busy_until);
  const util::SimDuration tx = util::from_seconds(
      bytes / std::max(st.upload.capacity_bytes_per_s, 1.0));
  st.busy_until = start + tx;
  st.upload.bytes_sent += bytes;
  st.upload.busy_time += tx;
  horizon_ = std::max(horizon_, st.busy_until);
  return st.busy_until;
}

void StreamEngine::commit_outcome(std::uint32_t viewer, util::SimTime at,
                                  int outcome) {
  assert(stats_.chunks_in_flight > 0);
  --stats_.chunks_in_flight;
  ViewerState& vs = viewers_[viewer];
  switch (outcome) {
    case kDelivered:
      ++stats_.chunks_delivered;
      ++vs.on_time;
      break;
    case kLate:
      ++stats_.chunks_late;
      ++vs.late;
      break;
    default:
      ++stats_.chunks_dropped;
      ++vs.dropped;
      break;
  }
  fnv_mix_u64(digest_, viewer);
  fnv_mix_u64(digest_, static_cast<std::uint64_t>(at));
  fnv_mix_u64(digest_, static_cast<std::uint64_t>(outcome));
}

void StreamEngine::on_join(const workload::ViewerPlan& v) {
  ++stats_.viewers_joined;
  viewers_[v.id].active = true;
  const ChainKey key{v.channel, v.target};
  auto it = chains_.find(key);
  if (it == chains_.end()) {
    Chain chain;
    chain.channel = v.channel;
    chain.target = v.target;
    chain.subscribers.push_back(v.id);
    ++stats_.chains_built;
    it = chains_.emplace(key, std::move(chain)).first;
    sweep_liveness();
    if (alive(plan_.channels[v.channel].source)) {
      place_chain(it->second, sim_.now());
    }
  } else {
    it->second.subscribers.push_back(v.id);
  }
}

void StreamEngine::on_leave(const workload::ViewerPlan& v) {
  ++stats_.viewers_left;
  viewers_[v.id].active = false;
  const ChainKey key{v.channel, v.target};
  const auto it = chains_.find(key);
  if (it == chains_.end()) return;
  auto& subs = it->second.subscribers;
  subs.erase(std::remove(subs.begin(), subs.end(), v.id), subs.end());
  if (subs.empty()) {
    release_chain(it->second);
    chains_.erase(it);
  }
}

void StreamEngine::on_tick(std::uint32_t channel, std::uint32_t /*chunk*/) {
  sweep_liveness();
  const util::SimTime tick = sim_.now();
  const workload::ChannelPlan& ch = plan_.channels[channel];
  const bool source_up = alive(ch.source);

  for (auto& [key, chain] : chains_) {
    if (key.first != channel || chain.subscribers.empty()) continue;

    if (!source_up) {
      // Channel dark: every subscriber's copy is lost at the source.
      for (const std::uint32_t viewer : chain.subscribers) {
        ++stats_.chunks_generated;
        ++stats_.chunks_in_flight;
        ++viewers_[viewer].expected;
        commit_outcome(viewer, tick, kDropped);
      }
      continue;
    }
    if (chain.placed) {
      for (const graph::ServiceHop& hop : chain.hops) {
        if (!alive(hop.peer)) {
          release_chain(chain);
          ++stats_.chain_rebuilds;
          break;
        }
      }
    }
    if (!chain.placed) place_chain(chain, tick);
    deliver_chunk(chain, tick);
  }
}

void StreamEngine::deliver_chunk(Chain& chain, util::SimTime tick) {
  const workload::ChannelPlan& ch = plan_.channels[chain.channel];
  const double chunk_s = util::to_seconds(plan_.config.chunk_period);
  const util::SimTime deadline = tick + plan_.config.chunk_deadline;
  const util::SimTime drop_horizon = deadline + plan_.config.late_grace;

  // Snapshot: copies are owed to the viewers subscribed at generation time.
  const std::vector<std::uint32_t> subscribers = chain.subscribers;
  const auto generate = [&](std::uint32_t viewer) {
    ++stats_.chunks_generated;
    ++stats_.chunks_in_flight;
    ++viewers_[viewer].expected;
  };

  if (!chain.placed) {
    // No feasible chain this period; the tick's copies are lost.
    for (const std::uint32_t viewer : subscribers) {
      generate(viewer);
      commit_outcome(viewer, tick, kDropped);
    }
    return;
  }

  // Walk the shared transcoding prefix once: source -> hop1 -> ... -> last.
  util::SimTime t = tick;
  util::PeerId prev = ch.source;
  bool lost = false;
  for (const graph::ServiceHop& hop : chain.hops) {
    PeerState& sender = peers_.at(prev);
    if (std::max(t, sender.busy_until) > drop_horizon) {
      // Head-of-line drop: transmission could not even begin in time, so
      // the chunk is discarded without consuming upload bandwidth.
      lost = true;
      break;
    }
    t = reserve_upload(prev, t, chunk_bytes(hop.type.input)) +
        propagation(prev, hop.peer);
    PeerState& hp = peers_.at(hop.peer);
    const double rate =
        media::transcode_ops_per_media_second(hop.type, config_.cost_model);
    const double cap = hp.spec.capacity_ops_per_s;
    // Spare CPU for this chain's own work: everything else committed on the
    // peer competes with it (same floor rule the allocator estimates with).
    const double spare =
        std::max(cap - (hp.committed_ops - rate),
                 cap * config_.min_spare_capacity_fraction);
    t += util::from_seconds(rate * chunk_s / spare);
    if (t > drop_horizon) {
      lost = true;
      break;
    }
    prev = hop.peer;
  }
  if (lost) {
    for (const std::uint32_t viewer : subscribers) {
      generate(viewer);
      commit_outcome(viewer, tick, kDropped);
    }
    return;
  }

  // Fan out one copy per subscriber from the last chain peer.
  const double out_bytes = chunk_bytes(chain.target);
  for (const std::uint32_t viewer : subscribers) {
    generate(viewer);
    const workload::ViewerPlan& vp = viewer_plan(viewer);
    if (!alive(vp.sink)) {
      commit_outcome(viewer, tick, kDropped);
      continue;
    }
    PeerState& sender = peers_.at(prev);
    if (std::max(t, sender.busy_until) > drop_horizon) {
      commit_outcome(viewer, tick, kDropped);
      continue;
    }
    const util::SimTime arrival =
        reserve_upload(prev, t, out_bytes) + propagation(prev, vp.sink);
    const int outcome = arrival <= deadline  ? kDelivered
                        : arrival <= drop_horizon ? kLate
                                                  : kDropped;
    horizon_ = std::max(horizon_, arrival);
    sim_.schedule_at(arrival, [this, viewer, arrival, outcome] {
      commit_outcome(viewer, arrival, outcome);
    });
  }
}

std::optional<std::string> StreamEngine::accounting_error() const {
  const std::uint64_t resolved =
      stats_.chunks_delivered + stats_.chunks_late + stats_.chunks_dropped;
  if (resolved + stats_.chunks_in_flight != stats_.chunks_generated) {
    return "stream.accounting: delivered(" +
           std::to_string(stats_.chunks_delivered) + ") + late(" +
           std::to_string(stats_.chunks_late) + ") + dropped(" +
           std::to_string(stats_.chunks_dropped) + ") + in_flight(" +
           std::to_string(stats_.chunks_in_flight) + ") != generated(" +
           std::to_string(stats_.chunks_generated) + ")";
  }
  std::uint64_t expected = 0, on_time = 0, late = 0, dropped = 0;
  for (const ViewerState& v : viewers_) {
    expected += v.expected;
    on_time += v.on_time;
    late += v.late;
    dropped += v.dropped;
  }
  if (expected != stats_.chunks_generated) {
    return "stream.accounting: per-viewer expected sum " +
           std::to_string(expected) + " != generated " +
           std::to_string(stats_.chunks_generated);
  }
  if (on_time != stats_.chunks_delivered || late != stats_.chunks_late ||
      dropped != stats_.chunks_dropped) {
    return "stream.accounting: per-viewer outcome sums (" +
           std::to_string(on_time) + "," + std::to_string(late) + "," +
           std::to_string(dropped) + ") diverge from totals (" +
           std::to_string(stats_.chunks_delivered) + "," +
           std::to_string(stats_.chunks_late) + "," +
           std::to_string(stats_.chunks_dropped) + ")";
  }
  return std::nullopt;
}

double StreamEngine::continuity_index() const {
  if (stats_.chunks_generated == 0) return 1.0;
  return static_cast<double>(stats_.chunks_delivered) /
         static_cast<double>(stats_.chunks_generated);
}

double StreamEngine::deadline_miss_rate() const {
  if (stats_.chunks_generated == 0) return 0.0;
  return static_cast<double>(stats_.chunks_late + stats_.chunks_dropped) /
         static_cast<double>(stats_.chunks_generated);
}

double StreamEngine::jain_upload_fairness() const {
  std::vector<double> bytes;
  bytes.reserve(peers_.size());
  double total = 0.0;
  for (const auto& [id, st] : peers_) {
    bytes.push_back(st.upload.bytes_sent);
    total += st.upload.bytes_sent;
  }
  if (bytes.empty() || total <= 0.0) return 1.0;
  return fairness::jain_index(bytes);
}

double StreamEngine::max_upload_saturation() const {
  const double elapsed =
      util::to_seconds(std::max<util::SimDuration>(sim_.now() - started_at_, 1));
  double max_sat = 0.0;
  for (const auto& [id, st] : peers_) {
    max_sat = std::max(max_sat, util::to_seconds(st.upload.busy_time) / elapsed);
  }
  return max_sat;
}

std::vector<std::pair<util::PeerId, UploadAccount>>
StreamEngine::upload_accounts() const {
  std::vector<std::pair<util::PeerId, UploadAccount>> out;
  out.reserve(peers_.size());
  for (const auto& [id, st] : peers_) out.emplace_back(id, st.upload);
  return out;
}

void StreamEngine::publish(obs::MetricsRegistry& reg) const {
  reg.counter("stream.chunks_generated").set(stats_.chunks_generated);
  reg.counter("stream.chunks_delivered").set(stats_.chunks_delivered);
  reg.counter("stream.chunks_late").set(stats_.chunks_late);
  reg.counter("stream.chunks_dropped").set(stats_.chunks_dropped);
  reg.gauge("stream.chunks_in_flight")
      .set(static_cast<double>(stats_.chunks_in_flight));
  reg.counter("stream.chains_built").set(stats_.chains_built);
  reg.counter("stream.chain_rebuilds").set(stats_.chain_rebuilds);
  reg.counter("stream.placement_failures").set(stats_.placement_failures);
  reg.counter("stream.viewers_joined").set(stats_.viewers_joined);
  reg.counter("stream.viewers_left").set(stats_.viewers_left);
  reg.gauge("stream.continuity_index").set(continuity_index());
  reg.gauge("stream.deadline_miss_rate").set(deadline_miss_rate());
  reg.gauge("stream.upload_fairness_jain").set(jain_upload_fairness());
  reg.gauge("stream.upload_saturation_max").set(max_upload_saturation());
  // Per-peer upload saturation distribution. Publish once per registry:
  // histograms accumulate observations.
  auto& h = reg.histogram("stream.upload_saturation",
                          {0.1, 0.25, 0.5, 0.75, 0.9, 1.0});
  const double elapsed =
      util::to_seconds(std::max<util::SimDuration>(sim_.now() - started_at_, 1));
  for (const auto& [id, st] : peers_) {
    h.observe(util::to_seconds(st.upload.busy_time) / elapsed);
  }
}

}  // namespace p2prm::stream
