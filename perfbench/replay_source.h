// The benchmark's input and its packet source.
//
// A workload's input is ONE generated pass (net::generate_trace) stored as
// a pcap image with canonical flow keys: flow i of the pass has source
// address kFlowAddressBase + i.  Long runs replay the pass several times;
// pass p shifts every source address by p * flows and every timestamp by
// p * pass_seconds, so each pass is fresh flows with identical statistics
// and the image stays compact.  Every replayed packet goes through the
// production pcap decoder (net::PcapReader).
#ifndef PERFBENCH_REPLAY_SOURCE_H_
#define PERFBENCH_REPLAY_SOURCE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <span>
#include <streambuf>
#include <string>
#include <vector>

#include "datagen/corpus.h"
#include "net/pcap.h"
#include "runtime/packet_source.h"
#include "span_trace.h"

namespace perfbench {

namespace datagen = iustitia::datagen;
namespace net = iustitia::net;

inline constexpr std::uint32_t kFlowAddressBase = 0x0A000000;  // 10.0.0.0

// One generated pass, loaded from disk and indexed for replay.
struct PassInput {
  std::string image;                // pcap file bytes
  std::vector<std::uint8_t> truth;  // FileClass per flow index
  std::vector<double> timestamps;   // per packet, in pass order
  std::size_t packets = 0;
  std::size_t flows = 0;
  std::size_t data_packets = 0;
  double pass_seconds = 0.0;        // timestamp shift between passes
  std::uint32_t crc = 0;            // util::crc32 of the image

  // Throws std::runtime_error on an unreadable or inconsistent input.
  static PassInput load(const std::string& pcap_path,
                        const std::string& truth_path);

  // Global flow number (pass * flows + index) of a replayed key.
  std::uint64_t flow_of(const net::FlowKey& key) const noexcept;
  datagen::FileClass truth_of(const net::FlowKey& key) const noexcept;
  // Global sequence number (pass * packets + index) of a replayed packet.
  std::uint64_t seq_of(const net::Packet& packet) const noexcept;
};

// Hand-off times of the source's calls: entry k says packets from
// first_seq on left the source at t_ns.  Written by the dispatcher thread,
// read by the sink; the sink only looks up packets it has received, whose
// entries were published before the packet entered the ring.
class HandoffLog {
 public:
  explicit HandoffLog(std::size_t capacity) : entries_(capacity) {}

  void append(std::uint64_t first_seq, std::int64_t t_ns) noexcept;
  // Hand-off time of `seq`, or -1 when it is not logged.
  std::int64_t handoff_of(std::uint64_t seq) const noexcept;

 private:
  struct Entry {
    std::uint64_t first_seq = 0;
    std::int64_t t_ns = 0;
  };
  std::vector<Entry> entries_;
  std::atomic<std::size_t> size_{0};
};

struct SourceOptions {
  std::size_t passes = 1;
  // Open loop: hand each packet over no earlier than its trace time after
  // the first hand-off, sleeping (never spinning) until it is due.
  bool open_loop = false;
  HandoffLog* handoff = nullptr;  // optional
  SpanLog* spans = nullptr;       // optional: source/decode spans
  std::size_t span_every = 1;     // trace every Nth source call
};

class ReplaySource final : public iustitia::runtime::PacketSource {
 public:
  ReplaySource(const PassInput& input, const SourceOptions& options);

  std::optional<net::Packet> next() override;
  std::size_t next_burst(std::span<net::Packet> out) override;

  std::size_t offered() const noexcept { return offered_; }
  std::size_t decode_errors() const noexcept { return decode_errors_; }
  // now_ns() of the first hand-off (0 before it).
  std::int64_t start_ns() const noexcept {
    return start_ns_.load(std::memory_order_acquire);
  }
  // Nanoseconds at which a packet with trace time `timestamp` is due.
  std::int64_t due_ns(double timestamp) const noexcept;

  // Open loop: per-packet lateness (hand-off minus due time).  Closed
  // loop: wait between consecutive source calls (backpressure).
  const LogHistogram& lateness() const noexcept { return lateness_; }

 private:
  // Decodes the next packet of the replay, remapped to its pass.
  bool read_one(net::Packet& out);

  class ImageBuf : public std::streambuf {
   public:
    void reset(const std::string& bytes) {
      char* base = const_cast<char*>(bytes.data());
      setg(base, base, base + bytes.size());
    }
  };

  const PassInput& input_;
  const SourceOptions options_;
  ImageBuf buf_;
  std::istream stream_{&buf_};
  std::optional<net::PcapReader> reader_;
  std::size_t pass_ = 0;
  std::size_t offered_ = 0;
  std::size_t decode_errors_ = 0;
  std::size_t calls_ = 0;
  std::int64_t last_exit_ns_ = 0;
  double first_timestamp_ = 0.0;
  std::atomic<std::int64_t> start_ns_{0};
  LogHistogram lateness_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_SOURCE_H_
