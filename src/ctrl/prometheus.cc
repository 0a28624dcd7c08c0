#include "ctrl/prometheus.h"

#include <cstddef>
#include <sstream>
#include <string>

namespace iustitia::ctrl {

namespace {

constexpr const char* kNatureNames[3] = {"text", "binary", "encrypted"};

void header(std::ostringstream& out, const char* name, const char* help,
            const char* type) {
  out << "# HELP " << name << ' ' << help << "\n# TYPE " << name << ' '
      << type << '\n';
}

}  // namespace

std::string prometheus_label_escape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string render_prometheus(const runtime::MetricsSnapshot& snap) {
  std::ostringstream out;
  out.precision(12);

  header(out, "iustitia_uptime_seconds",
         "Seconds since the runtime's metrics registry was created.",
         "gauge");
  out << "iustitia_uptime_seconds " << snap.uptime_seconds << '\n';

  header(out, "iustitia_model_info",
         "Constant 1; the version label names the installed model.",
         "gauge");
  out << "iustitia_model_info{version=\""
      << prometheus_label_escape(snap.model_version) << "\"} 1\n";

  header(out, "iustitia_model_swaps_total",
         "Model hot-swaps published since start.", "counter");
  out << "iustitia_model_swaps_total " << snap.model_swaps << '\n';

  header(out, "iustitia_packets_in_total",
         "Packets read from the packet source.", "counter");
  out << "iustitia_packets_in_total " << snap.packets_in << '\n';

  header(out, "iustitia_ring_pushed_total",
         "Packets pushed into each shard's SPSC ring.", "counter");
  for (std::size_t s = 0; s < snap.rings.size(); ++s) {
    out << "iustitia_ring_pushed_total{shard=\"" << s << "\"} "
        << snap.rings[s].pushed << '\n';
  }
  header(out, "iustitia_ring_popped_total",
         "Packets drained from each shard's SPSC ring.", "counter");
  for (std::size_t s = 0; s < snap.rings.size(); ++s) {
    out << "iustitia_ring_popped_total{shard=\"" << s << "\"} "
        << snap.rings[s].popped << '\n';
  }
  header(out, "iustitia_ring_dropped_total",
         "Packets dropped by backpressure per shard.", "counter");
  for (std::size_t s = 0; s < snap.rings.size(); ++s) {
    out << "iustitia_ring_dropped_total{shard=\"" << s << "\"} "
        << snap.rings[s].dropped << '\n';
  }
  header(out, "iustitia_ring_high_water",
         "Deepest ring occupancy observed per shard.", "gauge");
  for (std::size_t s = 0; s < snap.rings.size(); ++s) {
    out << "iustitia_ring_high_water{shard=\"" << s << "\"} "
        << snap.rings[s].high_water << '\n';
  }

  header(out, "iustitia_flows_classified_total",
         "Flows classified, by nature.", "counter");
  for (std::size_t c = 0; c < snap.flows_by_nature.size(); ++c) {
    out << "iustitia_flows_classified_total{nature=\"" << kNatureNames[c]
        << "\"} " << snap.flows_by_nature[c] << '\n';
  }

  header(out, "iustitia_engine_latency_packets_total",
         "Packets whose engine latency was timed: a sample of one in "
         "latency_sample_every, not a count of all packets.",
         "counter");
  out << "iustitia_engine_latency_packets_total " << snap.engine_latency.total
      << '\n';
  header(out, "iustitia_engine_latency_mean_microseconds",
         "Mean sampled per-packet engine latency.", "gauge");
  out << "iustitia_engine_latency_mean_microseconds "
      << snap.engine_latency.mean_micros() << '\n';
  header(out, "iustitia_engine_latency_p99_upper_microseconds",
         "Upper bucket edge containing the 99th percentile.", "gauge");
  out << "iustitia_engine_latency_p99_upper_microseconds "
      << snap.engine_latency.quantile_upper_micros(0.99) << '\n';

  header(out, "iustitia_health_info",
         "Constant 1; the state label is ok/degraded(...)/unhealthy(...).",
         "gauge");
  out << "iustitia_health_info{state=\""
      << prometheus_label_escape(snap.health) << "\"} 1\n";

  header(out, "iustitia_overload_stage",
         "Current shed-ladder stage (0 normal .. 3 drop).", "gauge");
  out << "iustitia_overload_stage " << snap.overload_stage << '\n';

  header(out, "iustitia_overload_stage_entries_total",
         "Times each shed stage was entered.", "counter");
  for (std::size_t s = 0; s < snap.stage_entries.size(); ++s) {
    out << "iustitia_overload_stage_entries_total{stage=\"" << s << "\"} "
        << snap.stage_entries[s] << '\n';
  }
  header(out, "iustitia_overload_stage_exits_total",
         "Times each shed stage was exited.", "counter");
  for (std::size_t s = 0; s < snap.stage_exits.size(); ++s) {
    out << "iustitia_overload_stage_exits_total{stage=\"" << s << "\"} "
        << snap.stage_exits[s] << '\n';
  }

  header(out, "iustitia_packets_shed_total",
         "Packets refused by admission sampling under overload.", "counter");
  out << "iustitia_packets_shed_total " << snap.packets_shed << '\n';

  header(out, "iustitia_source_transient_errors_total",
         "Transient packet-source failures retried with backoff.",
         "counter");
  out << "iustitia_source_transient_errors_total "
      << snap.source_transient_errors << '\n';
  header(out, "iustitia_source_retries_exhausted_total",
         "Source retry ladders that ran out of attempts.", "counter");
  out << "iustitia_source_retries_exhausted_total "
      << snap.source_retries_exhausted << '\n';

  header(out, "iustitia_watchdog_stalls_total",
         "Stalls detected by the progress watchdog.", "counter");
  out << "iustitia_watchdog_stalls_total " << snap.watchdog_stalls << '\n';

  header(out, "iustitia_cdb_records",
         "Classification-database records currently held.", "gauge");
  out << "iustitia_cdb_records " << snap.cdb_records << '\n';
  header(out, "iustitia_cdb_record_ceiling",
         "Configured hard record ceiling (0 = unbounded).", "gauge");
  out << "iustitia_cdb_record_ceiling " << snap.cdb_ceiling << '\n';
  header(out, "iustitia_cdb_forced_evictions_total",
         "Oldest-first evictions forced by the record ceiling.", "counter");
  out << "iustitia_cdb_forced_evictions_total " << snap.cdb_forced_evictions
      << '\n';
  header(out, "iustitia_cdb_insert_failures_total",
         "CDB inserts refused (injected allocation failures).", "counter");
  out << "iustitia_cdb_insert_failures_total " << snap.cdb_insert_failures
      << '\n';

  if (snap.has_queue_stats) {
    header(out, "iustitia_output_enqueued_total",
           "Packets forwarded to each per-nature output queue.", "counter");
    for (std::size_t c = 0; c < snap.queue_stats.enqueued.size(); ++c) {
      out << "iustitia_output_enqueued_total{nature=\"" << kNatureNames[c]
          << "\"} " << snap.queue_stats.enqueued[c] << '\n';
    }
    header(out, "iustitia_output_dropped_total",
           "Packets refused by full per-nature output queues.", "counter");
    for (std::size_t c = 0; c < snap.queue_stats.dropped.size(); ++c) {
      out << "iustitia_output_dropped_total{nature=\"" << kNatureNames[c]
          << "\"} " << snap.queue_stats.dropped[c] << '\n';
    }
    header(out, "iustitia_output_depth",
           "Current per-nature output queue depth.", "gauge");
    for (std::size_t c = 0; c < snap.queue_stats.depth.size(); ++c) {
      out << "iustitia_output_depth{nature=\"" << kNatureNames[c] << "\"} "
          << snap.queue_stats.depth[c] << '\n';
    }
  }
  return out.str();
}

}  // namespace iustitia::ctrl
