// Span recording for the benchmark's traced run.
//
// The benchmark wraps its own calls into each module's public functions
// in spans: {packet seq, layer, start, end, parent, packets covered}.
// Spans are appended to a per-thread, preallocated SpanLog (no locks, no
// allocation while recording) and written out when the run ends.  A
// layer's self time is its spans' duration minus the part covered by
// their child spans.
#ifndef PERFBENCH_SPAN_TRACE_H_
#define PERFBENCH_SPAN_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

namespace perfbench {

// Monotonic nanoseconds since the first call in this process.
std::int64_t now_ns() noexcept;

// Layers the benchmark times from outside.  Names are the per-layer
// metric prefixes printed by the traced run.
enum class Layer : std::uint16_t {
  kSource,        // benchmark source: one next()/next_burst() call
  kDecode,        // net: PcapReader::next inside the source call
  kFlowId,        // net: flow_id over a block of packet keys
  kSteer,         // core: ShardedIustitia::shard_of over a block of keys
  kRingPush,      // runtime: SpscRing::try_push_burst (uncontended)
  kRingPop,       // runtime: SpscRing::try_pop_burst (uncontended)
  kEngine,        // core: Iustitia::on_packet (one sampled packet)
  kCdbLookup,     // core: mirror ClassificationDatabase::lookup run
  kCdbInsert,     // core: mirror ClassificationDatabase::insert
  kCdbPurge,      // core: mirror maybe_purge that ran a purge sweep
  kOutput,        // core: OutputQueues::enqueue_burst
  kDetect,        // appproto: detect_header over a block of new flows
  kExtract,       // entropy: FeatureExtractor::extract (one window)
  kInfer,         // ml: FlowNatureModel::classify_features (one window)
  kSink,          // benchmark sink: one drain of the output queues
  kCount,
};

std::string_view layer_name(Layer layer) noexcept;

struct Span {
  std::uint64_t seq = 0;       // first packet sequence number covered
  std::uint32_t count = 0;     // packets (or calls) the span covers
  Layer layer = Layer::kSource;
  std::int32_t parent = -1;    // index in the same log, -1 = root
  std::int64_t start = 0;      // now_ns()
  std::int64_t end = 0;
};

// Append-only span store for one thread.  Spans past the reserved
// capacity are not recorded, so the hot loops never reallocate.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity = 0) { spans_.reserve(capacity); }

  // Opens a span and returns its index (or -1 when full).
  std::int32_t open(Layer layer, std::uint64_t seq, std::int32_t parent = -1);
  void close(std::int32_t index, std::uint32_t count);
  // Records a finished span in one call.
  void add(Layer layer, std::uint64_t seq, std::uint32_t count,
           std::int64_t start, std::int64_t end, std::int32_t parent = -1);

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Per-layer totals folded from one or more logs.
struct LayerTotals {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_ns{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> count{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> spans{};

  void fold(const SpanLog& log);
};

// Writes every span of `log` as CSV rows tagged with `thread`.
void write_spans(std::ostream& os, std::string_view thread,
                 const SpanLog& log);

// Mean cost of one now_ns() read, measured over a tight loop.
double clock_read_ns();

// Nanosecond histogram with 64 buckets per power of two (1.6% relative
// resolution), for samples too many to keep one by one.
class LogHistogram {
 public:
  LogHistogram() : counts_(kBuckets, 0) {}
  void record(std::int64_t ns) noexcept;
  std::uint64_t total() const noexcept { return total_; }
  // q-quantile (0..1) in nanoseconds: the midpoint of its bucket.
  double quantile_ns(double q) const noexcept;

 private:
  static constexpr std::size_t kBuckets = 64 + 64 * 40;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// q-quantile (0..1) of `values` by nearest rank; sorts a copy.
double quantile(std::vector<float> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_TRACE_H_
