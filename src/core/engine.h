// The online Iustitia engine: the full left-hand pipeline of Fig. 1.
//
// Per packet: hash the header to a 160-bit flow ID, consult the CDB, and
// either forward the packet to the output queue of its known class, or
// buffer its payload until b bytes are available, then extract the entropy
// vector, classify, record the label in the CDB, and forward.  Implements
// FIN/RST removal, inactivity purging, application-layer header skipping
// (threshold T with optional signature-based stripping), buffer timeouts,
// and the three-component delay accounting of Section 4.5
// (tau_hash + tau_CDBsearch + tau_b).
#ifndef IUSTITIA_CORE_ENGINE_H_
#define IUSTITIA_CORE_ENGINE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/cdb.h"
#include "core/config.h"
#include "core/feature_extractor.h"
#include "core/flow_model.h"
#include "net/packet.h"

namespace iustitia::core {

// What the engine did with one packet.
enum class PacketAction {
  kForwarded,        // flow already classified; sent to its output queue
  kBuffered,         // flow pending; payload added to its buffer
  kClassifiedNow,    // this packet completed the buffer; flow classified
  kIgnored,          // no payload and flow unknown (e.g. bare SYN/ACK)
  kShed,             // unknown flow refused by admission sampling
                     // (overload stage 2; see runtime/overload.h)
};

// Per-classified-flow delay record (Fig. 10).
struct FlowDelayRecord {
  net::FlowKey key;
  datagen::FileClass label = datagen::FileClass::kText;
  double classified_at = 0.0;     // trace time of classification
  double tau_b = 0.0;             // buffer-fill time in trace seconds
  std::size_t packets_to_fill = 0;  // c: data packets needed to fill b
  // tau_hash / tau_CDBsearch: the engine's sampled per-packet estimates,
  // summed over the flow's unclassified packets.
  double hash_micros = 0.0;       // SHA-1 time
  double cdb_micros = 0.0;        // CDB search time
  double extract_micros = 0.0;    // entropy extraction + inference time
  std::size_t buffered_bytes = 0; // bytes actually classified on
};

// Engine-lifetime counters.
struct EngineStats {
  std::uint64_t packets = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t flows_classified = 0;
  std::uint64_t flows_timed_out = 0;   // classified on partial buffer
  std::uint64_t packets_shed = 0;      // refused by admission sampling
  std::array<std::uint64_t, 3> queue_packets{};  // per-class forwarded
};

class Iustitia {
 public:
  // The model must match the engine's buffer_size in training regime for
  // best accuracy (see core/trainer.h), but any model works mechanically.
  Iustitia(FlowNatureModel model, const EngineOptions& options);

  // Shared-model form: several shards (and the control plane's registry)
  // hold the same immutable model; the engine keeps its own extractor
  // copy so extraction state never crosses threads.
  Iustitia(std::shared_ptr<const FlowNatureModel> model,
           const EngineOptions& options);

  // Hot-swaps the model (RCU cold path; see core/model_registry.h).  The
  // CDB and pending flows are untouched: already-labelled flows keep
  // their labels, in-flight buffers classify under the new model.
  void install_model(std::shared_ptr<const FlowNatureModel> model);

  const FlowNatureModel& model() const noexcept { return *model_; }

  // Processes one packet (packets must arrive in timestamp order).
  PacketAction on_packet(const net::Packet& packet);

  // As above, and additionally reports the nature the packet was routed
  // under when the returned action is kForwarded or kClassifiedNow
  // (*label_out is left untouched otherwise).  This is the flow-splitter
  // hook: the serving runtime fans the packet out to its per-nature
  // output queue without paying a second CDB probe.
  PacketAction on_packet(const net::Packet& packet,
                         datagen::FileClass* label_out);

  // Classifies every pending flow that has been idle for the configured
  // timeout (called automatically every 1024 packets; call manually for
  // deterministic experiments).  Returns flows flushed.
  std::size_t flush_idle(double now);

  // Classifies all pending flows regardless of idleness (end of trace).
  std::size_t flush_all();

  // Label recorded for a flow, if any.
  std::optional<datagen::FileClass> label_of(const net::FlowKey& key);

  const EngineStats& stats() const noexcept { return stats_; }
  const ClassificationDatabase& cdb() const noexcept { return cdb_; }
  ClassificationDatabase& cdb() noexcept { return cdb_; }
  const std::vector<FlowDelayRecord>& delays() const noexcept {
    return delays_;
  }
  std::size_t pending_flows() const noexcept { return pending_.size(); }
  const EngineOptions& options() const noexcept { return options_; }

  // Bytes of buffering state currently held for pending flows (the
  // per-new-flow space cost discussed with Table 3).
  std::size_t pending_buffer_bytes() const noexcept;

  // Degraded-mode controls, driven by the runtime's overload ladder
  // (runtime/overload.h).  Owner-thread only, like on_packet: per-shard
  // engines are single-owner, so plain stores suffice.
  //
  // Caps the per-flow byte budget below the configured buffer_size
  // (0 restores the configured budget).  Flows classified while capped
  // use at most this many bytes — the paper's Fig. 4 cost curve keeps
  // accuracy serviceable down to b=32.
  void set_buffer_cap(std::size_t bytes) noexcept { buffer_cap_ = bytes; }
  std::size_t buffer_cap() const noexcept { return buffer_cap_; }

  // New-flow admission probability in permille (1000 = admit all).
  // Existing pending/classified flows are unaffected; refused packets
  // return PacketAction::kShed.  Deterministic per flow id, so one flow
  // is either fully admitted or fully shed while the setting holds.
  void set_admission_permille(std::uint32_t permille) noexcept {
    admission_permille_ = permille > 1000 ? 1000 : permille;
  }
  std::uint32_t admission_permille() const noexcept {
    return admission_permille_;
  }

 private:
  struct PendingFlow {
    std::vector<std::uint8_t> raw;   // bytes as received (pre-skip)
    std::size_t skip = 0;            // resolved header-skip offset
    std::size_t random_skip = 0;     // extra per-flow skip (Section 4.6)
    bool skip_resolved = false;
    double first_data_at = 0.0;
    double last_packet_at = 0.0;
    std::size_t data_packets = 0;
    double hash_micros = 0.0;        // FlowDelayRecord's sums so far
    double cdb_micros = 0.0;
  };

  // Tries to resolve the header-skip offset; returns true when resolved.
  bool resolve_skip(PendingFlow& flow);

  // Buffer target met? (raw bytes beyond the skip >= the effective
  // byte budget)
  bool buffer_full(const PendingFlow& flow) const noexcept;

  // Configured buffer_size, clamped by the degraded-mode cap.
  std::size_t effective_buffer_size() const noexcept {
    return buffer_cap_ == 0 ? options_.buffer_size
                            : std::min(buffer_cap_, options_.buffer_size);
  }

  // `id` is net::flow_id(key), which the caller already holds.
  datagen::FileClass classify_flow(const net::FlowKey& key,
                                   const net::FlowId& id, PendingFlow& flow,
                                   double now, bool timed_out);

  std::shared_ptr<const FlowNatureModel> model_;
  FeatureExtractor extractor_;  // per-engine copy; owns mutable Rng state
  EngineOptions options_;
  ClassificationDatabase cdb_;
  std::unordered_map<net::FlowKey, PendingFlow, net::FlowKeyHash> pending_;
  std::vector<FlowDelayRecord> delays_;
  EngineStats stats_;
  std::uint64_t packets_since_flush_ = 0;
  // Running tau_hash / tau_CDBsearch estimates (microseconds per packet).
  double tau_hash_micros_ = 0.0;
  double tau_cdb_micros_ = 0.0;
  util::Rng rng_;  // per-flow random skip (Section 4.6 defense)
  // Degraded-mode state (owner-thread writes via the setters above).
  std::size_t buffer_cap_ = 0;              // 0 = configured budget
  std::uint32_t admission_permille_ = 1000;  // 1000 = admit every flow
};

}  // namespace iustitia::core

#endif  // IUSTITIA_CORE_ENGINE_H_
