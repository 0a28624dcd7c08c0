#include "core/output_queues.h"

#include <utility>

#include "util/check.h"
#include "util/rt_guard.h"

namespace iustitia::core {

std::size_t OutputQueues::index_of(datagen::FileClass label) {
  const auto index = static_cast<std::size_t>(label);
  CHECK_LT(index, std::size_t{3}) << "unknown FileClass label";
  return index;
}

bool OutputQueues::enqueue(datagen::FileClass label, net::Packet packet) {
  // Bounded handoff out of the worker loop: a short uncontended lock
  // plus one deque node (and, on the refused path, the payload retired
  // with the by-value parameter) — the accepted cost of crossing to the
  // consumer side.
  util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block)
  const std::size_t index = index_of(label);
  util::MutexLock lock(mu_);
  if (capacity_ != 0 && queues_[index].size() >= capacity_) {
    ++dropped_[index];
    return false;
  }
  queues_[index].push_back(QueuedPacket{std::move(packet), label});
  ++enqueued_[index];
  if (queues_[index].size() > high_water_[index]) {
    high_water_[index] = queues_[index].size();
  }
  DCHECK(capacity_ == 0 || queues_[index].size() <= capacity_);
  return true;
}

std::size_t OutputQueues::enqueue_burst(std::span<QueuedPacket> batch) {
  if (batch.empty()) return 0;
  // Same cold-branch budget as enqueue(), paid once per burst: the lock
  // crossing and the deque nodes are amortized over the whole batch, and
  // refused payloads are NOT freed here — they stay with the caller, so
  // the lock hold time is bounded by queue work alone.
  util::rt::AllowScope allow(util::rt::kAlloc | util::rt::kBlock);  // analyze: hotpath-allow(may-allocate, may-block)
  std::size_t accepted = 0;
  util::MutexLock lock(mu_);
  for (QueuedPacket& item : batch) {
    const std::size_t index = index_of(item.label);
    if (capacity_ != 0 && queues_[index].size() >= capacity_) {
      ++dropped_[index];
      continue;
    }
    queues_[index].push_back(std::move(item));
    ++enqueued_[index];
    if (queues_[index].size() > high_water_[index]) {
      high_water_[index] = queues_[index].size();
    }
    DCHECK(capacity_ == 0 || queues_[index].size() <= capacity_);
    ++accepted;
  }
  return accepted;
}

std::size_t OutputQueues::drain_all() {
  // Swap the class queues out under the lock and free the taken packets
  // after releasing it: each payload was allocated on another thread, so
  // retiring it is the slow part, and producers must not wait for it.
  std::array<std::deque<QueuedPacket>, 3> taken;
  {
    util::MutexLock lock(mu_);
    for (std::size_t i = 0; i < queues_.size(); ++i) {
      taken[i].swap(queues_[i]);
    }
  }
  std::size_t discarded = 0;
  for (const auto& queue : taken) discarded += queue.size();
  return discarded;
}

std::optional<QueuedPacket> OutputQueues::dequeue_locked(
    datagen::FileClass label) {
  const std::size_t index = index_of(label);
  if (queues_[index].empty()) return std::nullopt;
  QueuedPacket out = std::move(queues_[index].front());
  queues_[index].pop_front();
  return out;
}

std::optional<QueuedPacket> OutputQueues::dequeue(datagen::FileClass label) {
  util::MutexLock lock(mu_);
  return dequeue_locked(label);
}

std::optional<QueuedPacket> OutputQueues::dequeue_priority(
    std::span<const datagen::FileClass> priority_order) {
  util::MutexLock lock(mu_);
  for (const datagen::FileClass label : priority_order) {
    auto packet = dequeue_locked(label);
    if (packet.has_value()) return packet;
  }
  return std::nullopt;
}

std::size_t OutputQueues::depth(datagen::FileClass label) const {
  const std::size_t index = index_of(label);
  util::MutexLock lock(mu_);
  return queues_[index].size();
}

std::uint64_t OutputQueues::enqueued(datagen::FileClass label) const {
  const std::size_t index = index_of(label);
  util::MutexLock lock(mu_);
  return enqueued_[index];
}

std::uint64_t OutputQueues::dropped(datagen::FileClass label) const {
  const std::size_t index = index_of(label);
  util::MutexLock lock(mu_);
  return dropped_[index];
}

std::size_t OutputQueues::high_water(datagen::FileClass label) const {
  const std::size_t index = index_of(label);
  util::MutexLock lock(mu_);
  return high_water_[index];
}

OutputQueueStats OutputQueues::stats() const {
  OutputQueueStats out;
  util::MutexLock lock(mu_);
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    out.enqueued[i] = enqueued_[i];
    out.dropped[i] = dropped_[i];
    out.depth[i] = queues_[i].size();
    out.high_water[i] = high_water_[i];
  }
  return out;
}

}  // namespace iustitia::core
