#include "probes.hpp"

#include <algorithm>
#include <memory>

#include "core/system.hpp"
#include "core/wire_registry.hpp"
#include "gossip/gossip_engine.hpp"
#include "harness.hpp"
#include "net/socket_transport.hpp"
#include "util/crc32c.hpp"

namespace p2prm::bench_e2e {

// ---- graph -------------------------------------------------------------------------

std::vector<AllocSnapshot> snapshot_rms(core::System& system,
                                        std::size_t max_rms) {
  std::vector<AllocSnapshot> out;
  for (const util::PeerId id : system.resource_manager_ids()) {
    if (out.size() >= max_rms) break;
    const core::PeerNode* node = system.peer(id);
    if (node == nullptr || !node->alive()) continue;
    const core::ResourceManager* rm = node->resource_manager();
    if (rm == nullptr || rm->info().all_objects().empty()) continue;
    out.push_back(AllocSnapshot{rm->info().snapshot(), system.simulator().now()});
  }
  return out;
}

void replay_allocations(const std::vector<AllocSnapshot>& snapshots,
                        const net::Transport& network,
                        const core::SystemConfig& config, const QueryFn& query,
                        std::uint64_t seed, std::size_t per_rm,
                        AllocReplay& out) {
  const auto allocator = core::make_allocator(config.allocator);
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    core::InfoBase cached;
    cached.restore(snapshots[s].info);
    core::InfoBase fresh;
    fresh.restore(snapshots[s].info);
    util::Rng draw(seed * 0x9e3779b97f4a7c15ULL + s);
    util::Rng alloc_rng(seed + s);
    for (std::size_t q = 0; q < per_rm; ++q) {
      const core::AllocationRequest request =
          query(cached, draw, snapshots[s].at);
      util::Rng same = alloc_rng;  // both answers draw the same numbers
      const double t0 = wall_s();
      const core::AllocationResult a =
          allocator->allocate(cached, network, config, request, alloc_rng);
      out.alloc_us.add((wall_s() - t0) * 1e6);
      fresh.path_cache().clear();
      const core::AllocationResult b =
          allocator->allocate(fresh, network, config, request, same);
      ++out.queries;
      out.vertices += a.search.vertices_popped;
      out.candidates += a.candidates_considered;
      out.feasible += a.candidates_feasible;
      if (a.found != b.found ||
          a.candidates_considered != b.candidates_considered) {
        ++out.mismatches;
      }
    }
  }
}

// ---- net ----------------------------------------------------------------------------

namespace {

// A representative instance of one wire type: the variable-size messages
// carry live state (snapshots, summaries, inventories, real media extents);
// the rest are fixed-size, so any instance will do.
net::MessagePtr sample_message(std::string_view type,
                               const MessageSources& src) {
  if (type == "core.stream_data") {
    auto m = std::make_unique<core::StreamData>();
    m->object = src.object.id;
    m->format = src.object.format;
    m->media_seconds = src.object.duration_s;
    return m;
  }
  if (type == "core.backup_sync") {
    auto m = std::make_unique<core::BackupSync>();
    if (src.info != nullptr) m->snapshot = src.info->snapshot();
    m->seq = 1;
    return m;
  }
  if (type == "gossip.summaries") {
    auto m = std::make_unique<gossip::GossipMessage>();
    m->sender = src.spec.id;
    if (src.info != nullptr) {
      m->summaries.push_back(
          src.info->build_summary(src.bloom_bits, src.bloom_hashes));
    }
    return m;
  }
  if (type == "core.peer_announce") {
    auto m = std::make_unique<core::PeerAnnounce>();
    m->spec = src.spec;
    m->objects = src.inventory.objects;
    m->services = src.inventory.services;
    return m;
  }
  if (type == "core.profiler_report") {
    auto m = std::make_unique<core::ProfilerReport>();
    for (const core::ServiceOffering& s : src.inventory.services) {
      m->measured_exec_s.emplace_back(s.type.type_key(), 1.5);
    }
    m->seq = 1;
    return m;
  }
  if (type == "core.task_query") {
    auto m = std::make_unique<core::TaskQuery>();
    m->q.object = src.object.id;
    m->q.acceptable_formats = {src.object.format};
    return m;
  }
  // Every other type: the all-zero body of its tag (zero ids, empty
  // strings and lists). Decoders reject trailing bytes, so the shortest
  // zero buffer that decodes is exactly that body.
  for (const core::WireEntry& e : core::wire_registry()) {
    if (e.type_name != type) continue;
    for (std::size_t n = 0; n <= 256; ++n) {
      std::vector<std::uint8_t> body(n, 0);
      net::Reader r(body.data(), body.size());
      if (net::MessagePtr m = e.decode(r)) return m;
    }
  }
  return nullptr;
}

}  // namespace

CodecReplay replay_codec(const net::NetworkStats& stats,
                         const MessageSources& sources, std::size_t top) {
  std::vector<std::pair<std::uint64_t, std::string>> by_bytes;
  for (const auto& [type, bytes] : stats.per_type_bytes) {
    by_bytes.emplace_back(bytes, type);
  }
  std::sort(by_bytes.begin(), by_bytes.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  CodecReplay out;
  for (std::size_t i = 0; i < by_bytes.size() && out.types.size() < top; ++i) {
    out.types.push_back(by_bytes[i].second);
  }
  if (out.types.empty()) {
    out.types = {"core.stream_data", "core.backup_sync", "gossip.summaries",
                 "core.profiler_report", "core.peer_announce"};
  }

  double encode_s = 0.0;
  double decode_s = 0.0;
  std::vector<std::uint8_t> frame;
  for (const std::string& type : out.types) {
    const net::MessagePtr message = sample_message(type, sources);
    if (message == nullptr) {
      ++out.mismatches;
      continue;
    }
    // At least 32 frames and 8 MiB per type, so tiny frames are timed over
    // many calls and large ones over several.
    frame.clear();
    net::encode_frame(util::PeerId{1}, util::PeerId{2}, *message, frame);
    const std::size_t size = frame.size();
    const std::size_t reps =
        std::max<std::size_t>(32, (std::size_t{8} << 20) / size);

    double t0 = wall_s();
    for (std::size_t r = 0; r < reps; ++r) {
      frame.clear();
      net::encode_frame(util::PeerId{1}, util::PeerId{2}, *message, frame);
    }
    encode_s += wall_s() - t0;

    const std::uint8_t* post_len = frame.data() + 4;
    const std::size_t len = frame.size() - 4;
    std::size_t decoded_ok = 0;
    net::MessagePtr last;
    t0 = wall_s();
    for (std::size_t r = 0; r < reps; ++r) {
      if (!net::frame_crc_ok(post_len, len)) continue;
      net::Reader reader(post_len, len - net::kFrameCrcBytes);
      const net::FrameHeader header = net::read_frame_header(reader);
      last = core::decode_message(header.type, reader);
      if (last != nullptr) ++decoded_ok;
    }
    decode_s += wall_s() - t0;

    std::vector<std::uint8_t> again;
    if (last != nullptr) {
      net::encode_frame(util::PeerId{1}, util::PeerId{2}, *last, again);
    }
    if (decoded_ok != reps || again != frame) ++out.mismatches;
    out.frames += reps;
    out.bytes += reps * size;
  }
  const double kib = static_cast<double>(out.bytes) / 1024.0;
  if (kib > 0.0) {
    out.encode_ns_per_kib = encode_s * 1e9 / kib;
    out.decode_ns_per_kib = decode_s * 1e9 / kib;
  }
  return out;
}

double crc_ns(std::size_t len, std::size_t calls) {
  std::vector<std::uint8_t> buf(len);
  for (std::size_t i = 0; i < len; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }
  std::uint32_t acc = 0;
  const double t0 = wall_s();
  for (std::size_t i = 0; i < calls; ++i) {
    buf[i % len] ^= static_cast<std::uint8_t>(acc);  // keep every call live
    acc ^= util::crc32c(buf.data(), buf.size());
  }
  const double elapsed = wall_s() - t0;
  volatile std::uint32_t sink = acc;
  (void)sink;
  return elapsed * 1e9 / static_cast<double>(calls);
}

Loopback loopback_probe(std::uint16_t base_port, std::size_t pings,
                        std::size_t mib) {
  Loopback out;
  const util::PeerId a{0};
  const util::PeerId b{1};
  // Declared before the transport whose handlers refer to them.
  double ping_sent = 0.0;
  std::uint64_t pongs = 0;
  std::uint64_t bulk_frames = 0;
  std::uint64_t bulk_bytes = 0;
  net::SocketConfig config;
  config.base_port = base_port;
  net::SocketTransport transport(config, &core::decode_message);
  try {
    transport.attach(a, {}, [&](util::PeerId, const net::Message&) {
      out.rtt_us.add((wall_s() - ping_sent) * 1e6);
      ++pongs;
    });
    transport.attach(b, {}, [&](util::PeerId from, const net::Message& m) {
      if (m.wire_type() == net::WireType::StreamData) {
        ++bulk_frames;
        bulk_bytes += m.wire_size();
        return;
      }
      transport.send(b, from, std::make_unique<core::ReportAck>());
    });
  } catch (const std::exception& e) {
    out.error = e.what();
    return out;
  }

  const double deadline = wall_s() + 20.0;
  // The first round trips open both TCP sessions; they are not timed.
  constexpr std::size_t kWarmup = 16;
  for (std::size_t i = 0; i < pings + kWarmup; ++i) {
    if (i == kWarmup) out.rtt_us = util::Samples{};
    const std::uint64_t want = pongs + 1;
    ping_sent = wall_s();
    transport.send(a, b, std::make_unique<core::ReportAck>());
    while (pongs < want && wall_s() < deadline) transport.pump(1);
  }

  // 1 MiB of modelled payload per frame (zero bytes on the wire).
  core::StreamData chunk;
  chunk.format.bitrate_kbps = 8192;
  chunk.media_seconds = 1.024;
  std::uint64_t sent = 0;
  const double t0 = wall_s();
  while (bulk_frames < mib && wall_s() < deadline) {
    while (sent < mib && sent < bulk_frames + 4) {
      transport.send(a, b, std::make_unique<core::StreamData>(chunk));
      ++sent;
    }
    transport.pump(1);
  }
  const double elapsed = wall_s() - t0;
  out.mib_s = static_cast<double>(bulk_bytes) / (1024.0 * 1024.0) / elapsed;
  out.ok = bulk_frames == mib && out.rtt_us.count() == pings &&
           transport.stats().frames_corrupt == 0 &&
           transport.stats().messages_undeliverable == 0;
  if (!out.ok) out.error = "loopback probe timed out or lost frames";
  return out;
}

}  // namespace p2prm::bench_e2e
