// Serving benchmark (see README.md in this directory).
//
//   serving_bench train   --out FILE
//   serving_bench prepare --workload W --seed N --out STEM [--scale F]
//   serving_bench run     --workload W --input STEM --model FILE
//                         --seconds S --trace 0|1 [--scale F]
//                         [--spans-out FILE] [--corrupt-label 0|1]
//
// `prepare` generates one pass of the workload's trace (outside every
// timed window) as STEM.pcap plus STEM.truth; `run` replays it through
// the production serving path -- pcap decode, dispatcher, SPSC ring, one
// core::Iustitia shard, per-nature OutputQueues -- into a benchmark sink,
// checks the outputs against a single-threaded engine over the same
// packets, and prints one JSON line of metrics last.  A failed check
// exits 3 without printing metrics.
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "appproto/header_stripper.h"
#include "appproto/trace_headers.h"
#include "core/model_bundle.h"
#include "core/model_registry.h"
#include "core/sharded_engine.h"
#include "core/trainer.h"
#include "entropy/entropy_vector.h"
#include "net/flow.h"
#include "net/pcap.h"
#include "net/trace_gen.h"
#include "replay_source.h"
#include "runtime/runtime.h"
#include "runtime/spsc_ring.h"
#include "span_trace.h"
#include "util/crc32.h"

namespace perfbench {
namespace {

namespace appproto = iustitia::appproto;
namespace core = iustitia::core;
namespace entropy = iustitia::entropy;
namespace runtime = iustitia::runtime;
namespace util = iustitia::util;

// The paper's gateway trace rate (Section 4.5): every workload keeps its
// trace-time packet rate, so idle timeouts and purges see paper timing.
constexpr double kPaperPacketsPerSecond = 146714.0;

// Every workload classifies with CART on b = 32 buffered bytes (the
// serve/replay default), trained for that window.
constexpr std::size_t kBufferBytes = 32;

// Untraced replays per run (medians reported; many short replays, so a
// host stall of a few seconds moves the median less), untraced + traced
// pairs per traced run, and empty-source cold starts ahead of each replay.
constexpr std::size_t kReplays = 11;
constexpr std::size_t kTracedPairs = 3;
constexpr int kDrySetups = 25;

struct Workload {
  std::string_view name;
  double flows_per_packet;
  std::size_t burst;
  bool open_loop;           // replay in real time at the trace rate
  std::size_t output_bound; // per-nature output queue bound
  double budget_pps;        // closed loop: packets offered per --seconds
  std::size_t pass_packets; // packets in the generated pass
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"gateway", 299564.0 / 11976410.0, 1, true,
     4096, kPaperPacketsPerSecond, 50000},
    {"elephants", 1.0 / 1000.0, 32, false,
     std::size_t{1} << 20, 1.3e6, 100000},
    {"churn", 1.0 / 6.0, 32, false,
     std::size_t{1} << 20, 0.7e6, 50000},
}};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---- command line ------------------------------------------------------

struct Args {
  std::map<std::string, std::string> flags;

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  std::string need(const std::string& key) const {
    const auto it = flags.find(key);
    if (it == flags.end()) throw std::runtime_error("missing --" + key);
    return it->second;
  }
  double num(const std::string& key, double fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : std::stod(it->second);
  }
};

Args parse_flags(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("bad argument: " + arg);
    }
    args.flags[arg.substr(2)] = argv[++i];
  }
  return args;
}

// ---- offline steps: model and input --------------------------------------

int cmd_train(const Args& args) {
  iustitia::datagen::CorpusOptions corpus_options;
  corpus_options.files_per_class = 40;
  corpus_options.seed = 0x1CED;
  const auto corpus = iustitia::datagen::build_corpus(corpus_options);

  core::TrainerOptions options;
  options.backend = core::Backend::kCart;
  options.widths = entropy::cart_preferred_widths();
  options.method = core::TrainingMethod::kFirstBytes;
  options.buffer_size = kBufferBytes;
  const core::FlowNatureModel model = core::train_model(corpus, options);

  const std::string out_path = args.need("out");
  const std::string tmp_path = out_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary);
    core::save_model_bundle(
        model, "perfbench cart b=" + std::to_string(kBufferBytes), out);
    if (!out) throw std::runtime_error("cannot write " + tmp_path);
  }
  if (std::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp_path);
  }
  return 0;
}

int cmd_prepare(const Args& args) {
  const Workload* w = find_workload(args.need("workload"));
  if (w == nullptr) throw std::runtime_error("unknown workload");
  const double scale = args.num("scale", 1.0);

  net::TraceOptions options;
  options.header_source = appproto::standard_header_source();
  options.target_packets = std::max<std::size_t>(
      200, static_cast<std::size_t>(static_cast<double>(w->pass_packets) * scale));
  options.duration_seconds =
      static_cast<double>(options.target_packets) / kPaperPacketsPerSecond;
  options.flows_per_packet = w->flows_per_packet;
  options.seed = static_cast<std::uint64_t>(std::stoull(args.need("seed")));
  const net::Trace trace = net::generate_trace(options);

  // Flows spawned near the window's end run past it, so a short pass
  // spans more trace time than its nominal duration; scale time so the
  // pass replays at exactly the paper's aggregate packet rate.
  const double time_scale =
      options.duration_seconds / std::max(1e-9, trace.packets.back().timestamp);

  // Canonical keys: flow i (by first appearance) gets source address
  // kFlowAddressBase + i; the truth file holds its nature at offset i.
  std::unordered_map<net::FlowKey, std::uint32_t, net::FlowKeyHash> index;
  std::string truth;
  const std::string stem = args.need("out");
  std::ofstream pcap(stem + ".pcap", std::ios::binary);
  net::PcapWriter writer(pcap);
  for (const net::Packet& original : trace.packets) {
    auto [it, inserted] = index.try_emplace(
        original.key, static_cast<std::uint32_t>(index.size()));
    if (inserted) {
      truth.push_back(static_cast<char>(trace.truth.at(original.key).nature));
    }
    net::Packet packet = original;
    packet.key.src_ip = kFlowAddressBase + it->second;
    packet.timestamp *= time_scale;
    writer.write(packet);
  }
  std::ofstream(stem + ".truth", std::ios::binary) << truth;
  if (!pcap) throw std::runtime_error("cannot write " + stem + ".pcap");
  return 0;
}

// ---- measurement helpers -------------------------------------------------

double process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}

// Peak resident set (VmHWM) in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n == 0 ? 0.0
                : (n % 2 == 1 ? values[n / 2]
                              : (values[n / 2 - 1] + values[n / 2]) / 2.0);
}

// Order-sensitive digest of an engine's classification sequence.
std::uint32_t label_digest(const std::vector<core::FlowDelayRecord>& records,
                           bool corrupt_first) {
  std::uint32_t state = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const core::FlowDelayRecord& r = records[i];
    int label = static_cast<int>(r.label);
    if (corrupt_first && i == 0) label = (label + 1) % 3;
    const std::array<std::uint64_t, 6> fields = {
        (std::uint64_t{r.key.src_ip} << 32) | r.key.dst_ip,
        (std::uint64_t{r.key.src_port} << 16) | r.key.dst_port,
        static_cast<std::uint64_t>(r.key.protocol),
        static_cast<std::uint64_t>(label),
        r.packets_to_fill,
        r.buffered_bytes};
    state = util::crc32_update(state, fields.data(), sizeof(fields));
  }
  return util::crc32_final(state);
}

runtime::RuntimeOptions runtime_options(const Workload& w) {
  runtime::RuntimeOptions options;  // serve/replay defaults otherwise
  options.shards = 1;
  options.ring_capacity = 2048;
  options.backpressure = runtime::BackpressurePolicy::kBlock;
  options.burst = w.burst;
  options.output_queue_capacity = w.output_bound;
  options.engine.buffer_size = kBufferBytes;
  return options;
}

// Cold start as `serve` pays it: CRC-checked bundle load, registry,
// Runtime construction, start().  Returns seconds.
double cold_start(const std::string& bundle, const runtime::RuntimeOptions& options,
                  runtime::PacketSource& source,
                  std::unique_ptr<runtime::Runtime>& out) {
  const std::int64_t t0 = now_ns();
  std::ifstream in(bundle, std::ios::binary);
  std::string metadata;
  core::FlowNatureModel model = core::load_model_any(in, &metadata);
  auto registry = std::make_shared<core::ModelRegistry>(
      options.shards,
      std::make_shared<const core::FlowNatureModel>(std::move(model)),
      core::model_version_of(metadata));
  out = std::make_unique<runtime::Runtime>(registry, options);
  out->start(source);
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

constexpr std::array<iustitia::datagen::FileClass, 3> kSinkOrder = {
    iustitia::datagen::FileClass::kEncrypted,
    iustitia::datagen::FileClass::kBinary,
    iustitia::datagen::FileClass::kText};

struct SinkResult {
  std::uint64_t delivered = 0;
  std::vector<float> latency_us;  // per sample: receipt - scheduled
  std::vector<float> transit_us;  // per sample: receipt - hand-off
  double cpu_ns = 0.0;
};

// The benchmark's one thread: drains the output queues until `done` and
// the queues are empty.  Open loop: every packet, one dequeue each,
// latency against its due time.  Closed loop: the oldest packet of each
// class is sampled (against its hand-off time), the rest leave in bulk
// through drain_all.  Sleeps when the queues are empty.
void sink_loop(core::OutputQueues& queues, const PassInput& input,
               const ReplaySource& source, const HandoffLog* handoff,
               bool open_loop, const std::atomic<bool>& done,
               SinkResult& result, SpanLog* spans) {
  const double cpu0 = thread_cpu_ns();
  const auto sample = [&](const iustitia::core::QueuedPacket& item,
                          std::int64_t t) {
    const std::int64_t hand = handoff == nullptr
                                  ? -1
                                  : handoff->handoff_of(input.seq_of(item.packet));
    if (hand >= 0) result.transit_us.push_back(static_cast<float>(t - hand) / 1e3f);
    if (open_loop) {
      result.latency_us.push_back(
          static_cast<float>(t - source.due_ns(item.packet.timestamp)) / 1e3f);
    } else if (hand >= 0) {
      result.latency_us.push_back(static_cast<float>(t - hand) / 1e3f);
    }
  };
  bool finishing = false;
  std::uint64_t drains = 0;
  for (;;) {
    const std::int32_t span = spans != nullptr && drains % 16 == 0
                                  ? spans->open(Layer::kSink, drains)
                                  : -1;
    std::uint64_t got = 0;
    for (const auto label : kSinkOrder) {
      if (open_loop) {
        while (std::optional<core::QueuedPacket> item = queues.dequeue(label)) {
          sample(*item, now_ns());
          ++got;
        }
      } else if (std::optional<core::QueuedPacket> item = queues.dequeue(label)) {
        sample(*item, now_ns());
        ++got;
      }
    }
    if (!open_loop) got += queues.drain_all();
    if (spans != nullptr) spans->close(span, static_cast<std::uint32_t>(got));
    ++drains;
    result.delivered += got;
    if (got != 0) continue;
    if (finishing) break;
    if (done.load(std::memory_order_acquire)) {
      finishing = true;  // one more full drain, then stop
      continue;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  result.cpu_ns = thread_cpu_ns() - cpu0;
}

struct ReplayOutcome {
  double setup_s = 0.0;
  double seconds = 0.0;  // first hand-off -> sink holds every packet
  std::uint64_t offered = 0;
  std::size_t decode_errors = 0;
  runtime::MetricsSnapshot snap;
  SinkResult sink;
  std::uint32_t digest = 0;
  std::uint64_t classified = 0;
  std::uint64_t labels_correct = 0;
  std::uint64_t lost = 0;  // ring drops + output refusals + shed
  double latency_p50_us = 0.0;
  double latency_p90_us = 0.0;
  double latency_p99_us = 0.0;
  double latency_p999_us = 0.0;
  std::uint64_t latency_samples = 0;
  double transit_p50_us = 0.0;
  double gen_lateness_p99_us = 0.0;
  std::uint64_t gen_lateness_samples = 0;
  double cpu_ns = 0.0;  // process CPU over the replay
  double peak_rss_mib = 0.0;
  LayerTotals layers;  // traced replays: source, decode, sink

  double pkts_per_s() const {
    return seconds > 0.0 ? static_cast<double>(offered) / seconds : 0.0;
  }
};

// Latency quantile with lost packets counted as later than any limit.
double latency_quantile(const std::vector<float>& samples, std::uint64_t lost,
                        double q) {
  std::vector<float> all = samples;
  all.insert(all.end(), lost, std::numeric_limits<float>::infinity());
  const double v = quantile(std::move(all), q);
  return std::isinf(v) ? 1e12 : v;
}

// One replay of `passes` passes through a fresh Runtime.  Open loop paces
// the source to the trace's real time; closed loop offers packets as fast
// as the runtime accepts them.
ReplayOutcome replay(const Workload& w, const PassInput& input,
                     const std::string& bundle, std::size_t passes,
                     bool traced, bool corrupt_label, std::ostream* spans_out) {
  const bool open_loop = w.open_loop;
  const std::size_t total = passes * input.packets;
  const std::size_t calls = open_loop ? total : total / w.burst + passes;
  std::unique_ptr<HandoffLog> handoff;
  if (!open_loop || traced) handoff = std::make_unique<HandoffLog>(calls + 16);
  const std::size_t span_every = open_loop ? 16 : 1;
  SpanLog source_spans(traced ? 2 * (calls / span_every + 16) : 0);
  SpanLog sink_spans(traced ? 1u << 17 : 0);

  SourceOptions source_options;
  source_options.passes = passes;
  source_options.open_loop = open_loop;
  source_options.handoff = handoff.get();
  source_options.spans = traced ? &source_spans : nullptr;
  source_options.span_every = span_every;
  ReplaySource source(input, source_options);

  ReplayOutcome out;
  out.sink.latency_us.reserve(open_loop ? total : 1u << 20);
  out.sink.transit_us.reserve(traced ? (open_loop ? total : 1u << 20) : 0);

  const runtime::RuntimeOptions options = runtime_options(w);
  std::unique_ptr<runtime::Runtime> rt;
  const double cpu0 = process_cpu_ns();
  out.setup_s = cold_start(bundle, options, source, rt);
  std::atomic<bool> done{false};
  std::thread sink([&] {
    sink_loop(rt->output_queues(), input, source, handoff.get(), open_loop,
              done, out.sink, traced ? &sink_spans : nullptr);
  });
  rt->wait();
  done.store(true, std::memory_order_release);
  sink.join();
  const std::int64_t end = now_ns();
  out.cpu_ns = process_cpu_ns() - cpu0;
  out.peak_rss_mib = peak_rss_mib();
  out.seconds = static_cast<double>(end - source.start_ns()) * 1e-9;
  out.offered = source.offered();
  out.decode_errors = source.decode_errors();
  out.snap = rt->snapshot();

  const core::Iustitia& engine = rt->engine().shard(0);
  out.digest = label_digest(engine.delays(), corrupt_label);
  out.classified = engine.delays().size();
  for (const core::FlowDelayRecord& r : engine.delays()) {
    if (input.truth_of(r.key) == r.label) ++out.labels_correct;
  }
  const core::OutputQueueStats& q = out.snap.queue_stats;
  out.lost = out.snap.total_dropped() + q.dropped[0] + q.dropped[1] +
             q.dropped[2] + out.snap.packets_shed;
  out.latency_p50_us = latency_quantile(out.sink.latency_us, out.lost, 0.50);
  out.latency_p90_us = latency_quantile(out.sink.latency_us, out.lost, 0.90);
  out.latency_p99_us = latency_quantile(out.sink.latency_us, out.lost, 0.99);
  out.latency_p999_us = latency_quantile(out.sink.latency_us, out.lost, 0.999);
  out.latency_samples = out.sink.latency_us.size();
  out.transit_p50_us = quantile(out.sink.transit_us, 0.5);
  // Release the samples so later replays' peak RSS does not carry them.
  std::vector<float>().swap(out.sink.latency_us);
  std::vector<float>().swap(out.sink.transit_us);
  out.gen_lateness_p99_us = source.lateness().quantile_ns(0.99) / 1e3;
  out.gen_lateness_samples = source.lateness().total();
  if (traced) {
    out.layers.fold(source_spans);
    out.layers.fold(sink_spans);
    if (spans_out != nullptr) {
      write_spans(*spans_out, "source", source_spans);
      write_spans(*spans_out, "sink", sink_spans);
    }
  }
  return out;
}

// ---- single-threaded engine drive (reference and traced engine half) ----

struct EngineOutcome {
  std::uint32_t digest = 0;
  std::uint64_t classified = 0;
  std::uint64_t delivered = 0;
  std::uint64_t packets = 0;
  // Indexed by core::PacketAction.
  std::array<std::uint64_t, 5> actions{};
  std::array<double, 5> sampled_ns{};
  std::array<std::uint64_t, 5> sampled{};
  core::CdbStats cdb;
  std::size_t cdb_records = 0;
  std::size_t pending_flows = 0;
  std::size_t pending_buffer_bytes = 0;
  std::size_t delay_records = 0;
  std::uint64_t mirror_purge_runs = 0;
  std::uint64_t window_mismatches = 0;
  LayerTotals layers;
};

// Drives the same packets through one core::Iustitia on this thread.
// Traced, it also times the sub-layer calls from outside: flow_id over
// every key, a mirror CDB fed the engine's lookup/insert sequence,
// detect_header on each new flow's first payload, extract + infer on each
// classified window, the ring and the output handoff.
constexpr std::size_t kBlock = 256;

EngineOutcome drive_engine(const Workload& w, const PassInput& input,
                           const std::string& bundle, std::size_t passes,
                           bool traced, std::size_t sample_every,
                           std::ostream* spans_out) {
  std::ifstream in(bundle, std::ios::binary);
  auto model = std::make_shared<const core::FlowNatureModel>(
      core::load_model_any(in));
  const runtime::RuntimeOptions options = runtime_options(w);
  core::Iustitia engine(model, options.engine);

  SourceOptions source_options;
  source_options.passes = passes;
  ReplaySource source(input, source_options);

  EngineOutcome out;
  const std::size_t total = passes * input.packets;
  SpanLog spans(traced ? total / 6 + total / kBlock * 8 +
                             passes * input.flows / 3 + 65536
                       : 0);
  // Per-flow sub-layer calls are timed on 1 flow in sample_every.
  const auto sampled_flow = [&](const net::FlowKey& key) {
    return input.flow_of(key) % sample_every == 0;
  };
  core::ClassificationDatabase mirror(options.engine.cdb);
  core::FeatureExtractor extractor = model->extractor();
  core::ShardedIustitia steering(model, options.engine, 1);
  runtime::SpscRing<net::Packet> ring(options.ring_capacity);
  core::OutputQueues queues(0);
  std::vector<core::QueuedPacket> outbox;
  outbox.reserve(w.burst);
  std::unordered_map<net::FlowKey, std::vector<std::uint8_t>, net::FlowKeyHash>
      prefixes;
  const std::size_t prefix_cap = kBufferBytes + 8192;

  struct Op {
    enum Kind : std::uint8_t { kLookup, kInsert } kind;
    bool close = false;       // lookup of a FIN/RST packet
    std::uint32_t slot = 0;   // lookup: packet slot in the block
    double now = 0.0;
    net::FlowId id{};         // insert
    iustitia::datagen::FileClass label{};
    bool timed = false;       // insert of a sampled flow
  };
  std::vector<Op> ops;
  std::vector<net::FlowId> ids;
  std::vector<net::Packet> block(kBlock);
  std::size_t seen_records = 0;
  std::uint64_t seq = 0;

  std::uint64_t flushes = 0;
  const auto flush_outbox = [&] {
    if (outbox.empty()) return;
    const bool timed = traced && flushes++ % sample_every == 0;
    const std::int64_t t0 = timed ? now_ns() : 0;
    queues.enqueue_burst(outbox);
    if (timed) {
      spans.add(Layer::kOutput, seq, static_cast<std::uint32_t>(outbox.size()),
                t0, now_ns());
    }
    outbox.clear();
  };

  // Extract + infer on the window the engine classified `r` on.
  const auto replay_window = [&](const core::FlowDelayRecord& r) {
    auto it = prefixes.find(r.key);
    if (it == prefixes.end()) return;
    if (!sampled_flow(r.key)) {
      prefixes.erase(it);
      return;
    }
    const std::vector<std::uint8_t>& raw = it->second;
    const appproto::HeaderDetection det = appproto::detect_header(raw);
    std::size_t skip =
        det.protocol != appproto::AppProtocol::kNone ? det.header_length : 0;
    if (skip >= raw.size()) skip = 0;
    const std::size_t take = std::min(r.buffered_bytes, raw.size() - skip);
    const std::span<const std::uint8_t> window(raw.data() + skip, take);
    std::int64_t t0 = now_ns();
    const core::ExtractionResult features = extractor.extract(window);
    std::int64_t t1 = now_ns();
    spans.add(Layer::kExtract, seq, 1, t0, t1);
    t0 = now_ns();
    const auto label = model->classify_features(features.features);
    t1 = now_ns();
    spans.add(Layer::kInfer, seq, 1, t0, t1);
    if (label != r.label) ++out.window_mismatches;
    prefixes.erase(it);
  };

  const auto mirror_block = [&](std::size_t n) {
    // flow_id over every key of the block, as one span.
    std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) ids[i] = net::flow_id(block[i].key);
    spans.add(Layer::kFlowId, seq, static_cast<std::uint32_t>(n), t0, now_ns());
    std::size_t i = 0;
    while (i < ops.size()) {
      if (ops[i].kind == Op::kLookup) {
        std::size_t j = i;
        t0 = now_ns();
        for (; j < ops.size() && ops[j].kind == Op::kLookup; ++j) {
          const net::FlowId& id = ids[ops[j].slot];
          if (mirror.lookup(id, ops[j].now).has_value() && ops[j].close) {
            mirror.remove_on_close(id);
          }
        }
        spans.add(Layer::kCdbLookup, seq, static_cast<std::uint32_t>(j - i), t0,
                  now_ns());
        i = j;
        continue;
      }
      const std::uint64_t purges = mirror.stats().purge_runs;
      t0 = now_ns();
      mirror.insert(ops[i].id, ops[i].label, ops[i].now);
      const std::int64_t t1 = now_ns();
      mirror.maybe_purge(ops[i].now);
      const std::int64_t t2 = now_ns();
      const bool purged = mirror.stats().purge_runs != purges;
      if (purged) spans.add(Layer::kCdbPurge, seq, 1, t1, t2);
      if (ops[i].timed) {
        spans.add(Layer::kCdbInsert, seq, 1, t0, purged ? t1 : t2);
      }
      ++i;
    }
    ops.clear();
  };

  const auto note_records = [&] {
    const auto& records = engine.delays();
    for (; seen_records < records.size(); ++seen_records) {
      const core::FlowDelayRecord& r = records[seen_records];
      if (!traced) continue;
      ops.push_back(Op{Op::kInsert, false, 0, r.classified_at,
                       net::flow_id(r.key), r.label, sampled_flow(r.key)});
      replay_window(r);
    }
  };

  ids.resize(kBlock);
  for (;;) {
    const std::size_t n = source.next_burst(block);
    if (n == 0) break;
    if (traced) {
      // Uncontended ring round trip of the block in workload-sized bursts.
      std::int64_t t0 = now_ns();
      for (std::size_t at = 0; at < n; at += w.burst) {
        ring.try_push_burst(std::span<net::Packet>(block.data() + at,
                                                   std::min(w.burst, n - at)));
      }
      std::int64_t t1 = now_ns();
      spans.add(Layer::kRingPush, seq, static_cast<std::uint32_t>(n), t0, t1);
      t0 = now_ns();
      for (std::size_t at = 0; at < n; at += w.burst) {
        ring.try_pop_burst(std::span<net::Packet>(block.data() + at,
                                                  std::min(w.burst, n - at)));
      }
      t1 = now_ns();
      spans.add(Layer::kRingPop, seq, static_cast<std::uint32_t>(n), t0, t1);
      t0 = now_ns();
      for (std::size_t i = 0; i < n; ++i) (void)steering.shard_of(block[i].key);
      spans.add(Layer::kSteer, seq, static_cast<std::uint32_t>(n), t0, now_ns());
    }
    for (std::size_t i = 0; i < n; ++i, ++seq) {
      net::Packet& packet = block[i];
      iustitia::datagen::FileClass label{};
      core::PacketAction action;
      const bool sampled = traced && seq % sample_every == 0;
      if (sampled) {
        const std::int64_t t0 = now_ns();
        action = engine.on_packet(packet, &label);
        const std::int64_t t1 = now_ns();
        spans.add(Layer::kEngine, seq, 1, t0, t1);
        out.sampled_ns[static_cast<std::size_t>(action)] +=
            static_cast<double>(t1 - t0);
        ++out.sampled[static_cast<std::size_t>(action)];
      } else {
        action = engine.on_packet(packet, &label);
      }
      ++out.actions[static_cast<std::size_t>(action)];
      if (traced) {
        ops.push_back(Op{Op::kLookup, packet.flags.fin || packet.flags.rst,
                         static_cast<std::uint32_t>(i), packet.timestamp, {}, {}});
        if (packet.is_data() && (action == core::PacketAction::kBuffered ||
                                 action == core::PacketAction::kClassifiedNow)) {
          auto [it, inserted] = prefixes.try_emplace(packet.key);
          std::vector<std::uint8_t>& raw = it->second;
          if (inserted && sampled_flow(packet.key)) {
            const std::int64_t t0 = now_ns();
            (void)appproto::detect_header(packet.payload);
            spans.add(Layer::kDetect, seq, 1, t0, now_ns());
          }
          const std::size_t room = prefix_cap - std::min(prefix_cap, raw.size());
          raw.insert(raw.end(), packet.payload.begin(),
                     packet.payload.begin() +
                         static_cast<std::ptrdiff_t>(
                             std::min(room, packet.payload.size())));
        }
      }
      note_records();
      if (action == core::PacketAction::kForwarded ||
          action == core::PacketAction::kClassifiedNow) {
        ++out.delivered;
        outbox.push_back(core::QueuedPacket{std::move(packet), label});
        if (outbox.size() == w.burst) flush_outbox();
      }
    }
    if (traced) mirror_block(n);
    queues.drain_all();
  }
  flush_outbox();
  queues.drain_all();
  out.packets = seq;
  out.cdb = engine.cdb().stats();
  out.cdb_records = engine.cdb().size();
  out.pending_flows = engine.pending_flows();
  out.pending_buffer_bytes = engine.pending_buffer_bytes();
  engine.flush_all();
  if (traced) {
    note_records();
    ops.clear();  // end-of-trace inserts have no lookups to pair with
  }
  out.delay_records = engine.delays().size();
  out.classified = engine.delays().size();
  out.digest = label_digest(engine.delays(), false);
  out.mirror_purge_runs = mirror.stats().purge_runs;
  if (traced) {
    out.layers.fold(spans);
    if (spans_out != nullptr) write_spans(*spans_out, "engine", spans);
  }
  return out;
}

// ---- correctness gate ------------------------------------------------------

bool gate(const char* phase, const ReplayOutcome& run, const EngineOutcome& ref,
          std::size_t expected_packets) {
  std::vector<std::string> errors;
  const auto expect = [&](bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  };
  expect(run.decode_errors == 0, "pcap decode errors");
  expect(run.offered == expected_packets,
         "offered " + std::to_string(run.offered) + " != replay " +
             std::to_string(expected_packets));
  expect(run.snap.packets_in == run.offered,
         "packets_in " + std::to_string(run.snap.packets_in) + " != offered");
  expect(run.snap.total_popped() + run.snap.total_dropped() == run.snap.packets_in,
         "popped + dropped != packets_in");
  expect(run.digest == ref.digest, "per-flow label digest differs from the "
                                   "single-threaded engine");
  expect(run.classified == ref.classified,
         "classifications " + std::to_string(run.classified) + " != reference " +
             std::to_string(ref.classified));
  expect(run.sink.delivered == ref.delivered,
         "delivered " + std::to_string(run.sink.delivered) + " != reference " +
             std::to_string(ref.delivered));
  for (const std::string& e : errors) {
    std::cerr << "correctness gate FAILED (" << phase << "): " << e << '\n';
  }
  return errors.empty();
}

// ---- run -----------------------------------------------------------------

std::string fmt(double v, int digits = 10) {
  std::ostringstream os;
  os.precision(digits);
  os << v;
  return os.str();
}

class MetricsJson {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0.0;
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") +
             fmt(value, 17) + ", \"unit\": \"" + unit + "\"}";
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double calibration_ms() {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  volatile std::uint64_t keep = x;
  (void)keep;
  return static_cast<double>(now_ns() - t0) / 1e6;
}

int cmd_run(const Args& args) {
  const Workload* w = find_workload(args.need("workload"));
  if (w == nullptr) throw std::runtime_error("unknown workload");
  const std::string stem = args.need("input");
  const std::string bundle = args.need("model");
  const double seconds = args.num("seconds", 10.0);
  const bool trace = args.num("trace", 0) != 0;
  const bool corrupt = args.num("corrupt-label", 0) != 0;
  const double scale = args.num("scale", 1.0);
  const std::string spans_path = args.get("spans-out", "");

  const PassInput input = PassInput::load(stem + ".pcap", stem + ".truth");
  const double budget = seconds * w->budget_pps * scale;
  // The budget is split over several replays of the same packets (pairs
  // of untraced + traced replays when tracing); metrics are medians.
  const std::size_t replays = trace ? 2 * kTracedPairs : kReplays;
  const auto passes_for = [&](double packets, std::size_t n) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               packets / static_cast<double>(input.packets * n))));
  };
  const std::size_t passes = passes_for(budget, replays);

  std::cout << "input: workload=" << w->name << " packets/pass=" << input.packets
            << " flows/pass=" << input.flows << " data_share="
            << fmt(static_cast<double>(input.data_packets) /
                   static_cast<double>(input.packets))
            << " bytes=" << input.image.size() << " crc32=" << std::hex
            << input.crc << std::dec << " passes/replay=" << passes
            << " replays=" << replays << '\n';
  std::cout << "host: vcpus=" << std::thread::hardware_concurrency()
            << " calibration_ms=" << fmt(calibration_ms())
            << " clock_read_ns=" << fmt(clock_read_ns()) << '\n';

  std::ofstream spans_file;
  std::ostream* spans_out = nullptr;
  if (trace && !spans_path.empty()) {
    spans_file.open(spans_path);
    spans_file << "thread,seq,layer,start_ns,end_ns,parent,count\n";
    spans_out = &spans_file;
  }

  // Cold starts: batches of empty-source start/stop cycles spread over the
  // run (ahead of every replay), plus each replay's own; setup_s is their
  // median.
  std::vector<double> setups;
  const runtime::RuntimeOptions options = runtime_options(*w);
  const auto cold_starts = [&] {
    for (int i = 0; i < kDrySetups; ++i) {
      SourceOptions empty_options;
      empty_options.passes = 0;
      ReplaySource empty(input, empty_options);
      std::unique_ptr<runtime::Runtime> rt;
      setups.push_back(cold_start(bundle, options, empty, rt));
      rt->wait();
    }
  };

  // One unmeasured pass first, so lazy set-up and first-touch page faults
  // stay out of the measured replays.
  (void)replay(*w, input, bundle, 1, false, false, nullptr);

  const std::size_t expected = passes * input.packets;
  std::vector<ReplayOutcome> untraced;
  std::vector<ReplayOutcome> traced;
  for (std::size_t i = 0; i < (trace ? kTracedPairs : kReplays); ++i) {
    cold_starts();
    untraced.push_back(replay(*w, input, bundle, passes, false, corrupt, nullptr));
    setups.push_back(untraced.back().setup_s);
    if (trace) {
      cold_starts();
      traced.push_back(replay(*w, input, bundle, passes, true, corrupt,
                              i == 0 ? spans_out : nullptr));
      setups.push_back(traced.back().setup_s);
    }
  }
  const EngineOutcome ref =
      drive_engine(*w, input, bundle, passes, trace, 16, spans_out);
  bool ok = true;
  for (const ReplayOutcome& run : untraced) {
    ok = gate("untraced replay", run, ref, expected) && ok;
  }
  for (const ReplayOutcome& run : traced) {
    ok = gate("traced replay", run, ref, expected) && ok;
  }
  if (!ok) return 3;
  const auto median_of = [](const std::vector<ReplayOutcome>& runs,
                            double (*field)(const ReplayOutcome&)) {
    std::vector<double> values;
    for (const ReplayOutcome& run : runs) values.push_back(field(run));
    return median(values);
  };
  const double pps = median_of(untraced, [](const ReplayOutcome& r) {
    return r.pkts_per_s();
  });
  // Run-level context and counters come from the median-rate replay.
  const ReplayOutcome& a = *std::min_element(
      untraced.begin(), untraced.end(),
      [pps](const ReplayOutcome& x, const ReplayOutcome& y) {
        return std::abs(x.pkts_per_s() - pps) < std::abs(y.pkts_per_s() - pps);
      });
  std::uint64_t offered = 0;
  std::uint64_t lost = 0;
  for (const ReplayOutcome& run : untraced) {
    offered += run.offered;
    lost += run.lost;
  }

  std::cout << "replays: pkts_per_s";
  for (const ReplayOutcome& run : untraced) std::cout << ' ' << fmt(run.pkts_per_s());
  std::cout << " latency_p50_us";
  for (const ReplayOutcome& run : untraced) std::cout << ' ' << fmt(run.latency_p50_us);

  std::cout << " output_high_water";
  for (const ReplayOutcome& run : untraced) {
    const auto& hw = run.snap.queue_stats.high_water;
    std::cout << ' ' << std::max({hw[0], hw[1], hw[2]});
  }
  std::cout << " peak_rss_mb";
  for (const ReplayOutcome& run : untraced) std::cout << ' ' << fmt(run.peak_rss_mib);
  std::cout << '\n';
  const double process_cpu_s = process_cpu_ns() * 1e-9;
  std::sort(setups.begin(), setups.end());
  std::cout << "setup: samples=" << setups.size()
            << " p25_s=" << fmt(setups[setups.size() / 4])
            << " p50_s=" << fmt(median(setups))
            << " p75_s=" << fmt(setups[setups.size() * 3 / 4]) << '\n';
  std::cout << "context: process_cpu_s=" << fmt(process_cpu_s)
            << " replay_cpu_s=" << fmt(a.cpu_ns * 1e-9)
            << " sink_cpu_s=" << fmt(a.sink.cpu_ns * 1e-9)
            << " replay_s=" << fmt(a.seconds)
            << " classified=" << a.classified
            << " delivered=" << a.sink.delivered
            << " latency_samples=" << a.latency_samples
            << " latency_p99_us=" << fmt(a.latency_p99_us)
            << " latency_p999_us=" << fmt(a.latency_p999_us)
            << " gen_lateness_p99_us=" << fmt(a.gen_lateness_p99_us) << '\n';

  MetricsJson metrics;
  if (!trace) {
    metrics.add("pkts_per_s", pps, "pkt/s");
    metrics.add("latency_p50_us",
                median_of(untraced, [](const ReplayOutcome& r) {
                  return r.latency_p50_us;
                }),
                "us");
    metrics.add("latency_p90_us",
                median_of(untraced, [](const ReplayOutcome& r) {
                  return r.latency_p90_us;
                }),
                "us");
    metrics.add("accuracy",
                a.classified == 0 ? 0.0
                                  : static_cast<double>(a.labels_correct) /
                                        static_cast<double>(a.classified),
                "ratio");
    metrics.add("success_ratio",
                1.0 - static_cast<double>(lost) / static_cast<double>(offered),
                "ratio");
    // Memory freed by one replay's threads stays in their malloc arenas and
    // lifts later replays' high-water marks, so the first measured replay
    // (after input load, cold starts and the warm-up) carries the figure.
    metrics.add("peak_rss_mb", untraced.front().peak_rss_mib, "MiB");
    metrics.add("setup_s", median(setups), "s");
  } else {
    const double clock_ns = clock_read_ns();
    const LayerTotals& e = ref.layers;
    // Per covered item, with one clock read per span taken back out.
    const auto per = [&](const LayerTotals& t, Layer l) {
      const auto i = static_cast<std::size_t>(l);
      if (t.count[i] == 0) return 0.0;
      return std::max(0.0, t.self_ns[i] - clock_ns * static_cast<double>(t.spans[i])) /
             static_cast<double>(t.count[i]);
    };
    const auto lane_ns = [&](std::initializer_list<core::PacketAction> lane) {
      double ns = 0.0;
      std::uint64_t n = 0;
      for (const core::PacketAction act : lane) {
        ns += ref.sampled_ns[static_cast<std::size_t>(act)];
        n += ref.sampled[static_cast<std::size_t>(act)];
      }
      return n == 0 ? 0.0 : std::max(0.0, ns / static_cast<double>(n) - clock_ns);
    };
    const auto lane_count = [&](std::initializer_list<core::PacketAction> lane) {
      std::uint64_t n = 0;
      for (const core::PacketAction act : lane) {
        n += ref.actions[static_cast<std::size_t>(act)];
      }
      return static_cast<double>(n);
    };
    using PA = core::PacketAction;
    const double hit_ns = lane_ns({PA::kForwarded});
    const double miss_ns = lane_ns({PA::kBuffered, PA::kIgnored, PA::kShed});
    const double classify_ns = lane_ns({PA::kClassifiedNow});
    const double hit_total = hit_ns * lane_count({PA::kForwarded});
    const double miss_total =
        miss_ns * lane_count({PA::kBuffered, PA::kIgnored, PA::kShed});
    const double classify_total = classify_ns * lane_count({PA::kClassifiedNow});
    const double engine_total = hit_total + miss_total + classify_total;
    const double packets = static_cast<double>(ref.packets);
    const double engine_ns_per_pkt = engine_total / packets;
    const double ring_pop_ns = per(e, Layer::kRingPop);
    const double output_ns = per(e, Layer::kOutput);
    const double delivered_share = static_cast<double>(ref.delivered) / packets;
    const double worker_ns =
        engine_ns_per_pkt + ring_pop_ns + output_ns * delivered_share;
    const double e2e_ns = 1e9 / pps;
    const double traced_pps = median_of(traced, [](const ReplayOutcome& r) {
      return r.pkts_per_s();
    });
    const ReplayOutcome& b = traced.front();
    const core::OutputQueueStats& q = a.snap.queue_stats;

    metrics.add("net.decode_ns", per(b.layers, Layer::kDecode), "ns/pkt");
    metrics.add("net.flow_id_ns", per(e, Layer::kFlowId), "ns/call");
    metrics.add("core.steer_ns", per(e, Layer::kSteer), "ns/pkt");
    metrics.add("runtime.ring_burst_ns",
                per(e, Layer::kRingPush) + ring_pop_ns, "ns/pkt");
    metrics.add("runtime.ring_high_water",
                static_cast<double>(a.snap.rings[0].high_water), "pkts");
    // burst == 1 pushes one packet per ring operation and keeps no burst
    // histogram.
    metrics.add("runtime.mean_burst",
                w->burst == 1 ? 1.0 : a.snap.rings[0].mean_burst(), "pkts");
    metrics.add("runtime.ring_drops", static_cast<double>(a.snap.total_dropped()),
                "pkts");
    metrics.add("runtime.transit_us_p50",
                median_of(traced, [](const ReplayOutcome& r) {
                  return r.transit_p50_us;
                }),
                "us");
    metrics.add("runtime.cpu_ns_per_pkt",
                (a.cpu_ns - a.sink.cpu_ns) / static_cast<double>(a.offered),
                "ns/pkt");
    metrics.add("core.engine_hit_ns", hit_ns, "ns/pkt");
    metrics.add("core.engine_miss_ns", miss_ns, "ns/pkt");
    metrics.add("core.engine_classify_ns", classify_ns, "ns/pkt");
    metrics.add("core.engine_share_hit",
                engine_total > 0 ? hit_total / engine_total : 0.0, "ratio");
    metrics.add("core.engine_share_miss",
                engine_total > 0 ? miss_total / engine_total : 0.0, "ratio");
    metrics.add("core.engine_share_classify",
                engine_total > 0 ? classify_total / engine_total : 0.0, "ratio");
    metrics.add("core.cdb_hit_ratio",
                ref.cdb.lookups == 0 ? 0.0
                                     : static_cast<double>(ref.cdb.hits) /
                                           static_cast<double>(ref.cdb.lookups),
                "ratio");
    metrics.add("core.cdb_lookup_ns", per(e, Layer::kCdbLookup), "ns/call");
    metrics.add("core.cdb_insert_ns", per(e, Layer::kCdbInsert), "ns/call");
    metrics.add("core.cdb_purge_us", per(e, Layer::kCdbPurge) / 1e3, "us");
    metrics.add("core.cdb_purge_runs", static_cast<double>(ref.cdb.purge_runs),
                "count");
    metrics.add("core.cdb_records", static_cast<double>(ref.cdb_records), "count");
    metrics.add("core.pending_flows", static_cast<double>(ref.pending_flows),
                "count");
    metrics.add("core.pending_buffer_bytes",
                static_cast<double>(ref.pending_buffer_bytes), "bytes");
    metrics.add("core.delay_records", static_cast<double>(ref.delay_records),
                "count");
    metrics.add("core.output_enqueue_ns", output_ns, "ns/pkt");
    metrics.add("core.output_high_water",
                static_cast<double>(
                    std::max({q.high_water[0], q.high_water[1], q.high_water[2]})),
                "pkts");
    metrics.add("core.output_refused",
                static_cast<double>(q.dropped[0] + q.dropped[1] + q.dropped[2]),
                "pkts");
    metrics.add("appproto.detect_ns", per(e, Layer::kDetect), "ns/flow");
    metrics.add("entropy.extract_ns", per(e, Layer::kExtract), "ns/flow");
    metrics.add("ml.infer_ns", per(e, Layer::kInfer), "ns/flow");
    metrics.add("trace.unattributed_share", 1.0 - worker_ns / e2e_ns, "ratio");
    metrics.add("trace.overhead_share", 1.0 - traced_pps / pps, "ratio");
    metrics.add("gen.lateness_p99_us", a.gen_lateness_p99_us, "us");
    metrics.add("gen.lateness_samples", static_cast<double>(a.gen_lateness_samples),
                "count");
    metrics.add("runtime.latency_p99_us", a.latency_p99_us, "us");
    metrics.add("runtime.latency_p999_us", a.latency_p999_us, "us");
    metrics.add("runtime.latency_samples", static_cast<double>(a.latency_samples),
                "count");
    std::cout << "trace: window_mismatches=" << ref.window_mismatches
              << " mirror_purge_runs=" << ref.mirror_purge_runs
              << " engine_ns_per_pkt=" << fmt(engine_ns_per_pkt)
              << " worker_ns_per_pkt=" << fmt(worker_ns)
              << " e2e_ns_per_pkt=" << fmt(e2e_ns) << '\n';
  }
  std::cout << "{\"correct\": true, \"attempted\": " << offered
            << ", \"failed\": " << lost << ", \"metrics\": " << metrics.str()
            << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: serving_bench train|prepare|run --flag value ...\n";
    return 2;
  }
  try {
    const perfbench::Args args = perfbench::parse_flags(argc, argv);
    const std::string_view command = argv[1];
    if (command == "train") return perfbench::cmd_train(args);
    if (command == "prepare") return perfbench::cmd_prepare(args);
    if (command == "run") return perfbench::cmd_run(args);
    std::cerr << "unknown command " << command << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "serving_bench: " << e.what() << '\n';
    return 1;
  }
}
