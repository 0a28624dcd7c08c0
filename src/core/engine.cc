#include "core/engine.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "appproto/header_stripper.h"
#include "util/check.h"
#include "util/rt_guard.h"
#include "util/timer.h"

namespace iustitia::core {

namespace {

// Bound on how long we wait for an incomplete-but-recognized application
// header before giving up and classifying from the threshold.
constexpr std::size_t kMaxHeaderWait = 8192;

// tau_hash / tau_CDBsearch sampling: the engine times the live flow_id +
// CDB lookup of its first packet and of one packet in every
// kTauSampleEvery after it; each sample moves the running estimates
// toward itself by kTauSampleWeight.
constexpr std::uint64_t kTauSampleEvery = 64;
constexpr double kTauSampleWeight = 1.0 / 16.0;

std::shared_ptr<const FlowNatureModel> require_model(
    std::shared_ptr<const FlowNatureModel> model) {
  CHECK(model != nullptr) << "engine needs a non-null model";
  return model;
}

}  // namespace

Iustitia::Iustitia(FlowNatureModel model, const EngineOptions& options)
    : Iustitia(std::make_shared<const FlowNatureModel>(std::move(model)),
               options) {}

Iustitia::Iustitia(std::shared_ptr<const FlowNatureModel> model,
                   const EngineOptions& options)
    : model_(require_model(std::move(model))),
      extractor_(model_->extractor()),
      options_(options),
      cdb_(options.cdb),
      rng_(options.seed) {
  CHECK_GT(options_.buffer_size, std::size_t{0})
      << "engine needs at least one buffered byte to classify on";
  CHECK_GT(options_.buffer_timeout_seconds, 0.0);
}

void Iustitia::install_model(std::shared_ptr<const FlowNatureModel> model) {
  model_ = require_model(std::move(model));
  extractor_ = model_->extractor();
}

bool Iustitia::resolve_skip(PendingFlow& flow) {
  if (flow.skip_resolved) return true;
  // No payload yet (e.g. only a SYN seen): detection must wait, otherwise
  // an empty prefix would resolve to "no known header" prematurely.
  if (flow.raw.empty()) return false;
  if (options_.strip_known_headers) {
    const appproto::HeaderDetection det = appproto::detect_header(flow.raw);
    if (det.protocol != appproto::AppProtocol::kNone) {
      if (det.header_complete) {
        flow.skip = det.header_length + flow.random_skip;
        flow.skip_resolved = true;
        return true;
      }
      // Recognized protocol but delimiter not seen yet: wait for more
      // payload (bounded).
      if (flow.raw.size() < kMaxHeaderWait) return false;
      flow.skip = det.header_length + flow.random_skip;
      flow.skip_resolved = true;
      return true;
    }
  }
  // Unknown header: skip the configured threshold T.
  flow.skip = options_.header_threshold + flow.random_skip;
  flow.skip_resolved = true;
  return true;
}

bool Iustitia::buffer_full(const PendingFlow& flow) const noexcept {
  return flow.skip_resolved &&
         flow.raw.size() >= flow.skip + effective_buffer_size();
}

PacketAction Iustitia::on_packet(const net::Packet& packet) {
  return on_packet(packet, nullptr);
}

// Real-time contract: the steady state is the CDB-hit return below —
// hash, one guarded table probe, counter bumps, no heap, and clock reads
// only on the sampled tau packet.  Everything after the "Unknown flow"
// comment is the per-flow setup/classification cold branch, documented
// by one AllowScope.
// analyze: hotpath
PacketAction Iustitia::on_packet(const net::Packet& packet,
                                 datagen::FileClass* label_out) {
  ++stats_.packets;
  if (packet.is_data()) ++stats_.data_packets;
  const double now = packet.timestamp;

  net::FlowId id;
  std::optional<datagen::FileClass> known;
  if ((stats_.packets - 1) % kTauSampleEvery == 0) {
    // tau_hash / tau_CDBsearch (Fig. 1, Table 3): time the live stages
    // of a sampled packet (three clock reads); every other packet reads
    // no clock at all.
    util::SplitStopwatch tau;
    id = net::flow_id(packet.key);
    tau.mark();
    known = cdb_.lookup(id, now);
    const double cdb_micros = tau.second_micros();
    // The first packet is always sampled: it seeds the estimates.
    const double weight = stats_.packets == 1 ? 1.0 : kTauSampleWeight;
    tau_hash_micros_ += weight * (tau.first_micros() - tau_hash_micros_);
    tau_cdb_micros_ += weight * (cdb_micros - tau_cdb_micros_);
  } else {
    id = net::flow_id(packet.key);
    known = cdb_.lookup(id, now);
  }

  if (known.has_value()) {
    DCHECK_LT(static_cast<std::size_t>(*known), stats_.queue_packets.size());
    ++stats_.queue_packets[static_cast<std::size_t>(*known)];
    if (packet.flags.fin || packet.flags.rst) {
      cdb_.remove_on_close(id);
    }
    if (label_out != nullptr) *label_out = *known;
    return PacketAction::kForwarded;
  }

  // Unknown flow: buffer payload.  First sight of a flow pays for its
  // bookkeeping — map insertion, payload buffering, and (once the buffer
  // fills) feature extraction + model classification.  That is the
  // engine's documented cold branch; it covers the rest of the function.
  util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block, may-throw, unresolved-call)

  // Overload stage 2 (sample-admission): a brand-new flow is admitted
  // with probability admission_permille/1000, decided by a stable hash
  // of its id so the same flow is consistently admitted or shed.  Flows
  // that already have a pending buffer keep classifying.
  if (admission_permille_ < 1000 &&
      pending_.find(packet.key) == pending_.end()) {
    const std::uint32_t bucket =
        static_cast<std::uint32_t>(id.prefix64() % 1000);
    if (bucket >= admission_permille_) {
      ++stats_.packets_shed;
      return PacketAction::kShed;
    }
  }

  auto [it, inserted] = pending_.try_emplace(packet.key);
  PendingFlow& flow = it->second;
  if (inserted) {
    flow.last_packet_at = now;
    if (options_.random_skip_max > 0) {
      flow.random_skip = static_cast<std::size_t>(
          rng_.next_below(options_.random_skip_max + 1));
    }
  }
  // Each miss-lane packet is charged the sampled estimates (Fig. 10).
  flow.hash_micros += tau_hash_micros_;
  flow.cdb_micros += tau_cdb_micros_;
  flow.last_packet_at = now;

  PacketAction action = PacketAction::kIgnored;
  if (packet.is_data()) {
    if (flow.data_packets == 0) flow.first_data_at = now;
    ++flow.data_packets;
    const std::size_t want = options_.header_threshold + flow.random_skip +
                             effective_buffer_size() + kMaxHeaderWait;
    const std::size_t room =
        flow.raw.size() < want ? want - flow.raw.size() : 0;
    const std::size_t take = std::min(room, packet.payload.size());
    flow.raw.insert(flow.raw.end(), packet.payload.begin(),
                    packet.payload.begin() + static_cast<std::ptrdiff_t>(take));
    action = PacketAction::kBuffered;
  }

  if (resolve_skip(flow) && buffer_full(flow)) {
    const datagen::FileClass label =
        classify_flow(packet.key, id, flow, now, /*timed_out=*/false);
    if (label_out != nullptr) *label_out = label;
    pending_.erase(it);
    action = PacketAction::kClassifiedNow;
  } else if ((packet.flags.fin || packet.flags.rst) &&
             flow.raw.size() > flow.skip) {
    // Flow ended before the buffer filled: classify on what we have.
    flow.skip_resolved = true;
    const datagen::FileClass label =
        classify_flow(packet.key, id, flow, now, /*timed_out=*/true);
    if (label_out != nullptr) *label_out = label;
    pending_.erase(it);
    action = PacketAction::kClassifiedNow;
  }

  if (++packets_since_flush_ >= 1024) {
    packets_since_flush_ = 0;
    flush_idle(now);
  }
  return action;
}

datagen::FileClass Iustitia::classify_flow(const net::FlowKey& key,
                                           const net::FlowId& id,
                                           PendingFlow& flow, double now,
                                           bool timed_out) {
  const std::size_t available =
      flow.raw.size() > flow.skip ? flow.raw.size() - flow.skip : 0;
  const std::size_t take = std::min(available, effective_buffer_size());
  DCHECK_LE(flow.skip + take, flow.raw.size())
      << "classification window must stay inside the buffered bytes";
  const std::span<const std::uint8_t> window(flow.raw.data() + flow.skip,
                                             take);
  // Extraction runs on the engine's own extractor copy (mutable Rng);
  // inference runs on the shared immutable model — the split that makes
  // one model safely shareable across shards and hot-swappable.
  ExtractionResult extraction = extractor_.extract(window);
  const datagen::FileClass label = model_->classify_features(extraction.features);

  cdb_.insert(id, label, now);
  cdb_.maybe_purge(now);

  FlowDelayRecord record;
  record.key = key;
  record.label = label;
  record.classified_at = now;
  record.tau_b = flow.data_packets > 0 ? now - flow.first_data_at : 0.0;
  record.packets_to_fill = flow.data_packets;
  record.hash_micros = flow.hash_micros;
  record.cdb_micros = flow.cdb_micros;
  record.extract_micros = extraction.micros;
  record.buffered_bytes = take;
  delays_.push_back(record);

  ++stats_.flows_classified;
  if (timed_out) ++stats_.flows_timed_out;
  DCHECK_LT(static_cast<std::size_t>(label), stats_.queue_packets.size());
  ++stats_.queue_packets[static_cast<std::size_t>(label)];
  return label;
}

std::size_t Iustitia::flush_idle(double now) {
  // The reclassification defense (Section 4.6) is time-driven, so it needs
  // purge opportunities even when no new flows are being inserted.
  if (options_.cdb.reclassify_after_seconds > 0.0) {
    cdb_.purge(now);
  }
  std::size_t flushed = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingFlow& flow = it->second;
    if (now - flow.last_packet_at >= options_.buffer_timeout_seconds &&
        flow.raw.size() > 0) {
      flow.skip_resolved = true;
      if (flow.skip > flow.raw.size()) flow.skip = 0;  // header never came
      if (flow.raw.size() > flow.skip) {
        classify_flow(it->first, net::flow_id(it->first), flow, now,
                      /*timed_out=*/true);
        ++flushed;
        it = pending_.erase(it);
        continue;
      }
    }
    ++it;
  }
  return flushed;
}

std::size_t Iustitia::flush_all() {
  std::size_t flushed = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingFlow& flow = it->second;
    flow.skip_resolved = true;
    if (flow.skip >= flow.raw.size()) flow.skip = 0;
    if (flow.raw.size() > flow.skip) {
      classify_flow(it->first, net::flow_id(it->first), flow,
                    flow.last_packet_at, /*timed_out=*/true);
      ++flushed;
      it = pending_.erase(it);
    } else {
      it = pending_.erase(it);  // never carried payload; drop silently
    }
  }
  return flushed;
}

std::optional<datagen::FileClass> Iustitia::label_of(const net::FlowKey& key) {
  return cdb_.peek(net::flow_id(key));
}

std::size_t Iustitia::pending_buffer_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& [key, flow] : pending_) total += flow.raw.capacity();
  return total;
}

}  // namespace iustitia::core
