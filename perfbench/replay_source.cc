#include "replay_source.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/crc32.h"

namespace perfbench {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

}  // namespace

PassInput PassInput::load(const std::string& pcap_path,
                          const std::string& truth_path) {
  PassInput input;
  input.image = read_file(pcap_path);
  const std::string truth = read_file(truth_path);
  input.truth.assign(truth.begin(), truth.end());
  input.flows = input.truth.size();
  input.crc = iustitia::util::crc32(input.image);

  std::istringstream in(input.image);
  net::PcapReader reader(in);
  while (std::optional<net::Packet> packet = reader.next()) {
    const std::uint32_t index = packet->key.src_ip - kFlowAddressBase;
    if (index >= input.flows) {
      throw std::runtime_error("packet outside the truth table: " + pcap_path);
    }
    if (packet->is_data()) ++input.data_packets;
    input.timestamps.push_back(packet->timestamp);
  }
  input.packets = input.timestamps.size();
  if (input.packets == 0 || input.flows == 0) {
    throw std::runtime_error("empty input: " + pcap_path);
  }
  if (!std::is_sorted(input.timestamps.begin(), input.timestamps.end())) {
    throw std::runtime_error("input not in time order: " + pcap_path);
  }
  // One mean gap past the last packet, so pass p + 1 starts after pass p.
  const double last = input.timestamps.back();
  input.pass_seconds = last + last / static_cast<double>(input.packets);
  return input;
}

std::uint64_t PassInput::flow_of(const net::FlowKey& key) const noexcept {
  return key.src_ip - kFlowAddressBase;
}

datagen::FileClass PassInput::truth_of(const net::FlowKey& key) const noexcept {
  return static_cast<datagen::FileClass>(truth[flow_of(key) % flows]);
}

std::uint64_t PassInput::seq_of(const net::Packet& packet) const noexcept {
  const std::uint64_t pass = flow_of(packet.key) / flows;
  const double t = packet.timestamp - static_cast<double>(pass) * pass_seconds;
  auto it = std::lower_bound(timestamps.begin(), timestamps.end(), t);
  if (it == timestamps.end() ||
      (it != timestamps.begin() && t - *std::prev(it) < *it - t)) {
    --it;
  }
  return pass * packets +
         static_cast<std::uint64_t>(it - timestamps.begin());
}

void HandoffLog::append(std::uint64_t first_seq, std::int64_t t_ns) noexcept {
  const std::size_t n = size_.load(std::memory_order_relaxed);
  if (n == entries_.size()) return;  // full: later packets go unlogged
  entries_[n] = Entry{first_seq, t_ns};
  size_.store(n + 1, std::memory_order_release);
}

std::int64_t HandoffLog::handoff_of(std::uint64_t seq) const noexcept {
  const std::size_t n = size_.load(std::memory_order_acquire);
  const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(n);
  auto it = std::upper_bound(
      entries_.begin(), end, seq,
      [](std::uint64_t s, const Entry& e) { return s < e.first_seq; });
  if (it == entries_.begin()) return -1;
  return std::prev(it)->t_ns;
}

ReplaySource::ReplaySource(const PassInput& input, const SourceOptions& options)
    : input_(input), options_(options) {
  first_timestamp_ = input.timestamps.front();
}

std::int64_t ReplaySource::due_ns(double timestamp) const noexcept {
  return start_ns() +
         static_cast<std::int64_t>(std::llround((timestamp - first_timestamp_) * 1e9));
}

bool ReplaySource::read_one(net::Packet& out) {
  for (;;) {
    if (pass_ >= options_.passes) return false;
    if (!reader_.has_value()) {
      buf_.reset(input_.image);
      stream_.clear();
      reader_.emplace(stream_);
    }
    std::optional<net::Packet> packet;
    try {
      packet = reader_->next();
    } catch (const std::runtime_error&) {
      ++decode_errors_;
      continue;
    }
    if (!packet.has_value()) {
      reader_.reset();
      ++pass_;
      continue;
    }
    packet->key.src_ip += static_cast<std::uint32_t>(pass_ * input_.flows);
    packet->timestamp += static_cast<double>(pass_) * input_.pass_seconds;
    out = *std::move(packet);
    return true;
  }
}

std::optional<net::Packet> ReplaySource::next() {
  net::Packet packet;
  if (next_burst(std::span<net::Packet>(&packet, 1)) == 0) return std::nullopt;
  return packet;
}

std::size_t ReplaySource::next_burst(std::span<net::Packet> out) {
  const std::int64_t entry = now_ns();
  if (start_ns_.load(std::memory_order_relaxed) == 0) {
    start_ns_.store(entry, std::memory_order_release);
  } else if (!options_.open_loop) {
    lateness_.record(entry - last_exit_ns_);
  }
  const bool traced =
      options_.spans != nullptr && calls_ % options_.span_every == 0;
  ++calls_;
  const std::int32_t call_span =
      traced ? options_.spans->open(Layer::kSource, offered_) : -1;
  const std::int32_t decode_span =
      traced ? options_.spans->open(Layer::kDecode, offered_, call_span) : -1;

  std::size_t n = 0;
  while (n < out.size() && read_one(out[n])) ++n;
  if (traced) options_.spans->close(decode_span, static_cast<std::uint32_t>(n));

  if (options_.open_loop) {
    // Sleep until the last packet of the call is due; report how late
    // the hand-off ran against each packet's schedule.
    if (n > 0) {
      const std::int64_t due = due_ns(out[n - 1].timestamp);
      if (now_ns() < due) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
      }
    }
  }
  const std::int64_t exit = now_ns();
  if (options_.open_loop) {
    for (std::size_t i = 0; i < n; ++i) {
      lateness_.record(exit - due_ns(out[i].timestamp));
    }
  }
  if (n > 0 && options_.handoff != nullptr) {
    options_.handoff->append(offered_, exit);  // offered_ = seq of out[0]
  }
  if (traced) options_.spans->close(call_span, static_cast<std::uint32_t>(n));
  last_exit_ns_ = exit;
  offered_ += n;
  return n;
}

}  // namespace perfbench
