#include "span_trace.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <ostream>

namespace perfbench {

std::int64_t now_ns() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

std::string_view layer_name(Layer layer) noexcept {
  switch (layer) {
    case Layer::kSource: return "bench.source";
    case Layer::kDecode: return "net.decode";
    case Layer::kFlowId: return "net.flow_id";
    case Layer::kSteer: return "core.steer";
    case Layer::kRingPush: return "runtime.ring_push";
    case Layer::kRingPop: return "runtime.ring_pop";
    case Layer::kEngine: return "core.engine";
    case Layer::kCdbLookup: return "core.cdb_lookup";
    case Layer::kCdbInsert: return "core.cdb_insert";
    case Layer::kCdbPurge: return "core.cdb_purge";
    case Layer::kOutput: return "core.output_enqueue";
    case Layer::kDetect: return "appproto.detect";
    case Layer::kExtract: return "entropy.extract";
    case Layer::kInfer: return "ml.infer";
    case Layer::kSink: return "bench.sink";
    case Layer::kCount: break;
  }
  return "unknown";
}

std::int32_t SpanLog::open(Layer layer, std::uint64_t seq,
                           std::int32_t parent) {
  if (spans_.size() == spans_.capacity()) return -1;
  Span span;
  span.seq = seq;
  span.layer = layer;
  span.parent = parent;
  span.start = now_ns();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::close(std::int32_t index, std::uint32_t count) {
  if (index < 0) return;
  Span& span = spans_[static_cast<std::size_t>(index)];
  span.end = now_ns();
  span.count = count;
}

void SpanLog::add(Layer layer, std::uint64_t seq, std::uint32_t count,
                  std::int64_t start, std::int64_t end, std::int32_t parent) {
  if (spans_.size() == spans_.capacity()) return;
  spans_.push_back(Span{seq, count, layer, parent, start, end});
}

void LayerTotals::fold(const SpanLog& log) {
  const std::vector<Span>& all = log.spans();
  std::vector<double> child_ns(all.size(), 0.0);
  for (const Span& span : all) {
    if (span.parent >= 0 && span.end > 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end - span.start);
    }
  }
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& span = all[i];
    if (span.end == 0) continue;  // never closed
    const auto l = static_cast<std::size_t>(span.layer);
    const double duration = static_cast<double>(span.end - span.start);
    self_ns[l] += std::max(0.0, duration - child_ns[i]);
    count[l] += span.count;
    ++spans[l];
  }
}

void write_spans(std::ostream& os, std::string_view thread,
                 const SpanLog& log) {
  for (const Span& span : log.spans()) {
    os << thread << ',' << span.seq << ',' << layer_name(span.layer) << ','
       << span.start << ',' << span.end << ',' << span.parent << ','
       << span.count << '\n';
  }
}

double clock_read_ns() {
  constexpr int kReads = 200000;
  const std::int64_t start = now_ns();
  for (int i = 0; i < kReads; ++i) (void)now_ns();
  return static_cast<double>(now_ns() - start) / kReads;
}

namespace {

// Bucket of a non-negative value: exact below 64, then 64 buckets per
// power of two.
std::size_t log_bucket(std::uint64_t v) noexcept {
  if (v < 64) return static_cast<std::size_t>(v);
  const int e = std::bit_width(v) - 7;  // v >> e lies in [64, 128)
  return 64 + static_cast<std::size_t>(e) * 64 +
         static_cast<std::size_t>((v >> e) - 64);
}

double log_bucket_mid(std::size_t b) noexcept {
  if (b < 64) return static_cast<double>(b);
  const std::size_t e = (b - 64) / 64;
  const double low = static_cast<double>(((b - 64) % 64) + 64) *
                     std::ldexp(1.0, static_cast<int>(e));
  return low + std::ldexp(1.0, static_cast<int>(e)) / 2.0;
}

}  // namespace

void LogHistogram::record(std::int64_t ns) noexcept {
  const std::uint64_t v = ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
  ++counts_[std::min(log_bucket(v), kBuckets - 1)];
  ++total_;
}

double LogHistogram::quantile_ns(double q) const noexcept {
  if (total_ == 0) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(total_));
  const std::uint64_t want = rank < 1.0 ? 1 : static_cast<std::uint64_t>(rank);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    seen += counts_[b];
    if (seen >= want) return log_bucket_mid(b);
  }
  return log_bucket_mid(counts_.size() - 1);
}

double quantile(std::vector<float> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  std::size_t k = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (k >= values.size()) k = values.size() - 1;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}

}  // namespace perfbench
