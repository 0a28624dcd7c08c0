// Concurrency stress tests: many threads hammer ShardedIustitia::on_packet
// and OutputQueues while pollers read aggregate state.  These are the
// tests the tsan preset exists for (tools/ci.sh runs them under
// -fsanitize=thread); under the default build they still verify that
// concurrent operation loses no packets and keeps counters consistent.
#include "core/sharded_engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "appproto/trace_headers.h"
#include "core/output_queues.h"
#include "core/trainer.h"
#include "net/flow.h"
#include "net/trace_gen.h"

namespace iustitia::core {
namespace {

std::function<FlowNatureModel()> model_factory() {
  return [] {
    datagen::CorpusOptions corpus_options;
    corpus_options.files_per_class = 12;
    corpus_options.min_size = 2048;
    corpus_options.max_size = 4096;
    corpus_options.seed = 170;
    const auto corpus = datagen::build_corpus(corpus_options);
    TrainerOptions options;
    options.backend = Backend::kCart;
    options.widths = entropy::cart_preferred_widths();
    options.method = TrainingMethod::kFirstBytes;
    options.buffer_size = 32;
    return train_model(corpus, options);
  };
}

// More worker threads than shards, so shard locks are actually contended
// (unlike the RSS-steered one-thread-per-shard deployment).
TEST(ConcurrencyStress, ContendedOnPacketLosesNothing) {
  const std::size_t shard_count = 3;
  const std::size_t worker_count = 8;
  EngineOptions options;
  options.buffer_size = 32;
  ShardedIustitia sharded(model_factory(), options, shard_count);

  net::TraceOptions trace_options;
  trace_options.header_source = appproto::standard_header_source();
  trace_options.target_packets = 12000;
  trace_options.seed = 171;
  const net::Trace trace = net::generate_trace(trace_options);

  // Partition by flow (not by shard): a flow's packets stay in order on
  // one thread, but each shard receives interleaved calls from several
  // threads at once.
  const net::FlowKeyHash hasher;
  std::vector<std::vector<const net::Packet*>> partitions(worker_count);
  for (const net::Packet& p : trace.packets) {
    partitions[hasher(p.key) % worker_count].push_back(&p);
  }

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> polls{0};
  std::thread poller([&sharded, &done, &polls] {
    // Aggregate readers must be safe while writers run.
    while (!done.load(std::memory_order_relaxed)) {
      const EngineStats stats = sharded.total_stats();
      ASSERT_LE(stats.data_packets, stats.packets);
      (void)sharded.total_cdb_size();
      (void)sharded.total_flows_classified();
      polls.fetch_add(1, std::memory_order_relaxed);
    }
  });

  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < worker_count; ++w) {
    workers.emplace_back([&sharded, &partitions, w] {
      for (const net::Packet* p : partitions[w]) sharded.on_packet(*p);
    });
  }
  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_relaxed);
  poller.join();

  sharded.flush_all();
  const EngineStats total = sharded.total_stats();
  EXPECT_EQ(total.packets, trace.packets.size());
  EXPECT_GT(total.flows_classified, 0u);
  EXPECT_GT(polls.load(), 0u);
}

TEST(ConcurrencyStress, QueuesBalanceUnderProducersAndConsumers) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 2000;
  static constexpr datagen::FileClass kLabels[] = {
      datagen::FileClass::kText, datagen::FileClass::kBinary,
      datagen::FileClass::kEncrypted};
  OutputQueues queues(/*capacity=*/64);  // small: forces real drops

  std::atomic<bool> producing{true};
  std::atomic<std::uint64_t> consumed{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 2; ++c) {
    consumers.emplace_back([&queues, &producing, &consumed] {
      // Bank scenario priority: encrypted > binary > text.
      const datagen::FileClass order[] = {datagen::FileClass::kEncrypted,
                                          datagen::FileClass::kBinary,
                                          datagen::FileClass::kText};
      while (true) {
        const auto packet = queues.dequeue_priority(order);
        if (packet.has_value()) {
          consumed.fetch_add(1, std::memory_order_relaxed);
        } else if (!producing.load(std::memory_order_acquire)) {
          return;  // producers done and all three queues were empty
        }
      }
    });
  }

  std::vector<std::thread> producers;
  for (std::size_t prod = 0; prod < kProducers; ++prod) {
    producers.emplace_back([&queues, prod] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        net::Packet packet;
        packet.payload.assign(16, static_cast<std::uint8_t>(i));
        queues.enqueue(kLabels[(prod + i) % 3], std::move(packet));
      }
    });
  }
  for (auto& t : producers) t.join();
  producing.store(false, std::memory_order_release);
  for (auto& t : consumers) t.join();

  // Drain whatever the consumers had not reached before they observed the
  // producers-done flag.
  std::uint64_t drained = consumed.load();
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;
  for (const datagen::FileClass label : kLabels) {
    while (queues.dequeue(label).has_value()) ++drained;
    accepted += queues.enqueued(label);
    dropped += queues.dropped(label);
    EXPECT_EQ(queues.depth(label), 0u);
  }
  // Every produced packet was either accepted (and later dequeued exactly
  // once) or counted as a drop — nothing lost, nothing duplicated.
  EXPECT_EQ(accepted + dropped, kProducers * kPerProducer);
  EXPECT_EQ(drained, accepted);
  EXPECT_GT(dropped, 0u) << "capacity 64 should have forced drops";
}

// drain_all swaps the class queues out under the lock and frees the taken
// packets after releasing it, while producers keep calling enqueue_burst.
// Every accepted packet must leave exactly once (dequeued, drained, or
// still queued at the end), and no drain may reset a counter or a
// high-water mark.
TEST(ConcurrencyStress, DrainAllConservesPacketsUnderBurstProducers) {
  constexpr std::size_t kProducers = 3;
  constexpr std::size_t kBursts = 400;
  constexpr std::size_t kBurst = 16;
  static constexpr datagen::FileClass kLabels[] = {
      datagen::FileClass::kText, datagen::FileClass::kBinary,
      datagen::FileClass::kEncrypted};
  OutputQueues queues(/*capacity=*/64);  // small: forces refusals too

  std::atomic<bool> consuming{false};  // producers start once it is up
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::size_t> producers_left{kProducers};
  std::uint64_t dequeued = 0;
  std::uint64_t drained = 0;
  std::uint64_t drains = 0;
  std::thread consumer([&] {
    consuming.store(true, std::memory_order_release);
    while (producers_left.load(std::memory_order_acquire) != 0) {
      for (const datagen::FileClass label : kLabels) {
        if (queues.dequeue(label).has_value()) ++dequeued;
      }
      const OutputQueueStats before = queues.stats();
      drained += queues.drain_all();
      ++drains;
      // Producers only ever raise the counters; a drain must not lower them.
      const OutputQueueStats after = queues.stats();
      for (std::size_t c = 0; c < 3; ++c) {
        ASSERT_GE(after.enqueued[c], before.enqueued[c]);
        ASSERT_GE(after.dropped[c], before.dropped[c]);
        ASSERT_GE(after.high_water[c], before.high_water[c]);
      }
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t prod = 0; prod < kProducers; ++prod) {
    producers.emplace_back([&queues, &consuming, &accepted, &producers_left,
                            prod] {
      while (!consuming.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::vector<QueuedPacket> batch(kBurst);
      for (std::size_t b = 0; b < kBursts; ++b) {
        for (std::size_t i = 0; i < kBurst; ++i) {
          batch[i].label = kLabels[(prod + b + i) % 3];
          batch[i].packet = net::Packet();
          batch[i].packet.payload.assign(64, static_cast<std::uint8_t>(i));
        }
        accepted.fetch_add(queues.enqueue_burst(batch),
                           std::memory_order_relaxed);
      }
      producers_left.fetch_sub(1, std::memory_order_release);
    });
  }

  for (auto& t : producers) t.join();
  consumer.join();

  const OutputQueueStats final_stats = queues.stats();
  std::uint64_t enqueued = 0;
  std::uint64_t dropped = 0;
  std::uint64_t final_depth = 0;
  for (std::size_t c = 0; c < 3; ++c) {
    enqueued += final_stats.enqueued[c];
    dropped += final_stats.dropped[c];
    final_depth += final_stats.depth[c];
    EXPECT_LE(final_stats.high_water[c], queues.capacity());
    EXPECT_GT(final_stats.high_water[c], 0u);
  }
  EXPECT_EQ(accepted.load(), dequeued + drained + final_depth);
  EXPECT_EQ(enqueued, accepted.load());
  EXPECT_EQ(enqueued + dropped, kProducers * kBursts * kBurst);
  EXPECT_GT(drains, 0u);

  // A quiescent drain empties the queues and leaves every counter as is.
  EXPECT_EQ(queues.drain_all(), final_depth);
  const OutputQueueStats after_drain = queues.stats();
  EXPECT_EQ(after_drain.enqueued, final_stats.enqueued);
  EXPECT_EQ(after_drain.dropped, final_stats.dropped);
  EXPECT_EQ(after_drain.high_water, final_stats.high_water);
  for (const std::size_t depth : after_drain.depth) EXPECT_EQ(depth, 0u);
}

// Per-shard single-owner drive through the unlocked shard() escape hatch,
// with concurrent aggregate polling through the locked accessors: the
// pattern DESIGN.md documents for RSS deployment.  TSan-visible if the
// escape hatch is misused internally.
TEST(ConcurrencyStress, SteeredShardDriveWithConcurrentAggregation) {
  const std::size_t shard_count = 4;
  EngineOptions options;
  options.buffer_size = 32;
  ShardedIustitia sharded(model_factory(), options, shard_count);

  net::TraceOptions trace_options;
  trace_options.header_source = appproto::standard_header_source();
  trace_options.target_packets = 8000;
  trace_options.seed = 172;
  const net::Trace trace = net::generate_trace(trace_options);
  std::vector<std::vector<const net::Packet*>> by_shard(shard_count);
  for (const net::Packet& p : trace.packets) {
    by_shard[sharded.shard_of(p.key)].push_back(&p);
  }

  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < shard_count; ++s) {
    threads.emplace_back([&sharded, &by_shard, s] {
      // on_packet() routes to this thread's shard under its lock; the
      // steering guarantees no other worker touches that shard.
      for (const net::Packet* p : by_shard[s]) sharded.on_packet(*p);
    });
  }
  for (auto& t : threads) t.join();
  sharded.flush_all();
  EXPECT_EQ(sharded.total_stats().packets, trace.packets.size());
}

}  // namespace
}  // namespace iustitia::core
