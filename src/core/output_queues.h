// Per-nature output queues: the LQ blocks of Fig. 1.
//
// After classification, the flow splitter forwards each packet to the
// queue of its class, where a downstream consumer (QoS scheduler, IDS
// engine, logger) drains it.  Queues are bounded; a full queue drops, and
// drop counters per class expose the back-pressure a prioritization
// policy would act on.
//
// Thread safety: fully synchronized.  Shards may enqueue concurrently while
// consumers drain — the natural deployment once ShardedIustitia fans flows
// out across cores.  All state is guarded by one mutex (uncontended in the
// single-threaded experiments, so the lock is noise there).
#ifndef IUSTITIA_CORE_OUTPUT_QUEUES_H_
#define IUSTITIA_CORE_OUTPUT_QUEUES_H_

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>

#include "datagen/corpus.h"
#include "net/packet.h"
#include "util/thread_annotations.h"

namespace iustitia::core {

// A queued unit: the packet plus the label it was routed under.
struct QueuedPacket {
  net::Packet packet;
  datagen::FileClass label = datagen::FileClass::kText;
};

// Point-in-time counters for all three class queues, indexed by
// static_cast<std::size_t>(datagen::FileClass).  Taken atomically under
// the queue lock, so the per-class values are mutually consistent.
struct OutputQueueStats {
  std::array<std::uint64_t, 3> enqueued{};
  std::array<std::uint64_t, 3> dropped{};
  std::array<std::size_t, 3> depth{};
  std::array<std::size_t, 3> high_water{};  // max depth ever reached
};

class OutputQueues {
 public:
  // `capacity` bounds each class queue (packets); 0 means unbounded.
  explicit OutputQueues(std::size_t capacity = 4096) : capacity_(capacity) {}

  // Enqueues to the class queue; returns false (and counts a drop) when
  // the queue is full.
  bool enqueue(datagen::FileClass label, net::Packet packet);

  // Batched enqueue: one lock acquisition for the whole span (the
  // output-side leg of the runtime's burst protocol, DESIGN.md §10).
  // Each element is accepted into its class queue or refused under
  // exactly enqueue()'s rules and counters.  Accepted packets are moved
  // out of `batch`; refused ones are left intact so the caller can
  // retire their payloads outside the queue lock.  Returns the number
  // accepted.
  std::size_t enqueue_burst(std::span<QueuedPacket> batch);

  // Pops the oldest packet of one class, if any.
  std::optional<QueuedPacket> dequeue(datagen::FileClass label);

  // Strict-priority dequeue across classes: highest-priority non-empty
  // queue first, in the order given (e.g. encrypted > binary > text for
  // the paper's bank scenario).  The scan is atomic: no concurrently
  // enqueued higher-priority packet can be missed mid-scan.
  std::optional<QueuedPacket> dequeue_priority(
      std::span<const datagen::FileClass> priority_order);

  // Empties every class queue and returns the number of packets
  // discarded.  Serves the shutdown path (whatever is still enqueued will
  // never be drained) and bulk consumers that only count deliveries.  The
  // queues are taken under the lock but their packets are freed after it
  // is released, so concurrent enqueues never wait on payload frees.
  // Counters and high-water marks are preserved.
  std::size_t drain_all();

  std::size_t depth(datagen::FileClass label) const;
  std::uint64_t enqueued(datagen::FileClass label) const;
  std::uint64_t dropped(datagen::FileClass label) const;
  // Deepest the class queue has ever been (back-pressure headroom signal).
  std::size_t high_water(datagen::FileClass label) const;
  // One consistent snapshot of all per-class counters.
  OutputQueueStats stats() const;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  // Validated label -> queue index.
  static std::size_t index_of(datagen::FileClass label);

  std::optional<QueuedPacket> dequeue_locked(datagen::FileClass label)
      IUSTITIA_REQUIRES(mu_);

  const std::size_t capacity_;  // immutable after construction
  mutable util::Mutex mu_{"OutputQueues::mu_"};
  std::array<std::deque<QueuedPacket>, 3> queues_ IUSTITIA_GUARDED_BY(mu_);
  std::array<std::uint64_t, 3> enqueued_ IUSTITIA_GUARDED_BY(mu_){};
  std::array<std::uint64_t, 3> dropped_ IUSTITIA_GUARDED_BY(mu_){};
  std::array<std::size_t, 3> high_water_ IUSTITIA_GUARDED_BY(mu_){};
};

}  // namespace iustitia::core

#endif  // IUSTITIA_CORE_OUTPUT_QUEUES_H_
