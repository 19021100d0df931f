#include "obs/export.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <string>

#include "obs/session.hpp"
#include "util/json.hpp"
#include "warped/types.hpp"

namespace pls::obs {
namespace {

/// Microseconds relative to the session epoch.  Events recorded by a ring
/// can never predate its session, so the subtraction is safe.
double rel_us(std::uint64_t ts_ns, std::uint64_t t0_ns) {
  return static_cast<double>(ts_ns - t0_ns) / 1000.0;
}

/// A virtual time as an export value: the number, or "end" for
/// end-of-time, whose raw value means nothing to a reader.
void time_kv(util::JsonWriter& j, const char* key, std::uint64_t t) {
  if (t == warped::kEndOfTime) {
    j.kv(key, "end");
  } else {
    j.kv(key, t);
  }
}

std::string time_csv(std::uint64_t t) {
  return t == warped::kEndOfTime ? "end" : std::to_string(t);
}

void event_common(util::JsonWriter& j, const TraceEvent& ev,
                  std::uint32_t node, std::uint64_t t0_ns) {
  j.kv("name", to_string(ev.kind));
  if (ev.dur_ns > 0) {
    j.kv("ph", "X");
  } else {
    j.kv("ph", "i");
    j.kv("s", "t");
  }
  j.kv("pid", std::uint64_t{0});
  j.kv("tid", node);
  j.key("ts");
  j.value(rel_us(ev.ts_ns, t0_ns), 3);
  if (ev.dur_ns > 0) {
    j.key("dur");
    j.value(static_cast<double>(ev.dur_ns) / 1000.0, 3);
  }
}

void event_args(util::JsonWriter& j, const TraceEvent& ev) {
  j.key("args");
  j.begin_object();
  switch (ev.kind) {
    case TraceKind::kExecBatch:
      j.kv("lp", ev.lp).kv("events", ev.a).kv("vt", ev.b);
      break;
    case TraceKind::kRollback:
      j.kv("lp", ev.lp).kv("undone", ev.a);
      j.kv("cause", ev.b != 0 ? "secondary" : "primary");
      break;
    case TraceKind::kGvtStart:
      j.kv("round", ev.a);
      break;
    case TraceKind::kGvtJoin:
      j.kv("round", ev.a);
      time_kv(j, "local_min", ev.b);
      break;
    case TraceKind::kGvtDone:
      j.kv("round", ev.a);
      time_kv(j, "gvt", ev.b);
      break;
    case TraceKind::kFossil:
      j.kv("committed", ev.a).kv("live", ev.b);
      break;
    case TraceKind::kThrottle: {
      time_kv(j, "window", ev.a);
      j.key("fraction");
      j.value(static_cast<double>(ev.b) / 1e6, 6);
      const char* dir = ev.lp == 0 ? "shrink" : (ev.lp == 2 ? "grow" : "hold");
      j.kv("direction", dir);
      break;
    }
    case TraceKind::kFlush:
      j.kv("msgs", ev.a).kv("batches_total", ev.b);
      break;
  }
  j.end_object();
}

/// One counter series sample ("C" events draw line charts in Perfetto).
void counter(util::JsonWriter& j, const char* name, std::uint32_t tid,
             double ts_us, std::uint64_t value) {
  j.begin_object();
  j.kv("name", name);
  j.kv("ph", "C");
  j.kv("pid", std::uint64_t{0});
  j.kv("tid", tid);
  j.key("ts");
  j.value(ts_us, 3);
  j.key("args");
  j.begin_object();
  j.kv("value", value);
  j.end_object();
  j.end_object();
}

bool open_or_warn(std::ofstream& f, const std::string& path,
                  const char* what) {
  f.open(path);
  if (!f.is_open()) {
    std::fprintf(stderr, "[obs] cannot open %s output file '%s'\n", what,
                 path.c_str());
    return false;
  }
  return true;
}

}  // namespace

void write_perfetto_trace(std::ostream& os, const ObsSession& session) {
  util::JsonWriter j(os);
  const std::uint64_t t0 = session.t0_ns();
  j.begin_object();
  j.kv("displayTimeUnit", "ms");
  j.key("traceEvents");
  j.begin_array();
  // Metadata: name the process and one thread lane per node.
  j.begin_object();
  j.kv("name", "process_name").kv("ph", "M").kv("pid", std::uint64_t{0});
  j.key("args");
  j.begin_object();
  j.kv("name", "pls-warped");
  j.end_object();
  j.end_object();
  for (std::uint32_t n = 0; n < session.num_nodes(); ++n) {
    j.begin_object();
    j.kv("name", "thread_name").kv("ph", "M").kv("pid", std::uint64_t{0});
    j.kv("tid", n);
    j.key("args");
    j.begin_object();
    j.kv("name", "node " + std::to_string(n));
    j.end_object();
    j.end_object();
  }
  // Trace events, per node in ring (i.e. recording) order.
  for (std::uint32_t n = 0; n < session.num_nodes(); ++n) {
    const TraceRing* ring = session.ring(n);
    if (ring == nullptr) continue;
    for (const TraceEvent& ev : ring->snapshot()) {
      j.begin_object();
      event_common(j, ev, n, t0);
      event_args(j, ev);
      j.end_object();
    }
  }
  // Metrics samples as counter series (cumulative counters exported raw;
  // rates are derived by tools so the export stays timestamp-independent
  // in everything but the ts fields themselves).
  for (const MetricsSample& s : session.samples()) {
    const double ts_us = static_cast<double>(s.wall_ns) / 1000.0;
    counter(j, "gvt", 0, ts_us, s.gvt);
    for (std::uint32_t n = 0; n < s.nodes.size(); ++n) {
      const MetricsSample::Node& g = s.nodes[n];
      const std::string prefix = "node" + std::to_string(n) + " ";
      counter(j, (prefix + "committed").c_str(), n, ts_us,
              g.events_committed);
      counter(j, (prefix + "rolled_back").c_str(), n, ts_us,
              g.events_rolled_back);
      counter(j, (prefix + "window").c_str(), n, ts_us, g.window);
      counter(j, (prefix + "live").c_str(), n, ts_us, g.live_entries);
      counter(j, (prefix + "holding").c_str(), n, ts_us, g.holding_events);
      counter(j, (prefix + "pool_bytes").c_str(), n, ts_us, g.pool_bytes);
      counter(j, (prefix + "batches").c_str(), n, ts_us, g.batches_sent);
      counter(j, (prefix + "batch_msgs").c_str(), n, ts_us,
              g.batch_msgs_sent);
    }
  }
  j.end_array();
  // Truncation accounting: silent loss would read as "nothing happened".
  j.key("otherData");
  j.begin_object();
  for (std::uint32_t n = 0; n < session.num_nodes(); ++n) {
    const TraceRing* ring = session.ring(n);
    if (ring == nullptr) continue;
    j.kv("dropped_node" + std::to_string(n), ring->dropped());
  }
  j.kv("samples_truncated", session.samples_truncated());
  j.end_object();
  j.end_object();
  os << '\n';
}

void write_metrics_csv(std::ostream& os, const ObsSession& session) {
  os << "wall_ms,node,metric,value\n";
  char buf[32];
  for (const MetricsSample& s : session.samples()) {
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(s.wall_ns) / 1e6);
    const std::string t(buf);
    os << t << ",-1,gvt," << time_csv(s.gvt) << "\n";
    for (std::uint32_t n = 0; n < s.nodes.size(); ++n) {
      const MetricsSample::Node& g = s.nodes[n];
      os << t << ',' << n << ",processed," << g.events_processed << "\n";
      os << t << ',' << n << ",committed," << g.events_committed << "\n";
      os << t << ',' << n << ",rolled_back," << g.events_rolled_back << "\n";
      os << t << ',' << n << ",rollbacks," << g.rollbacks << "\n";
      os << t << ',' << n << ",window," << time_csv(g.window) << "\n";
      os << t << ',' << n << ",live," << g.live_entries << "\n";
      os << t << ',' << n << ",holding," << g.holding_events << "\n";
      os << t << ',' << n << ",pool_bytes," << g.pool_bytes << "\n";
      os << t << ',' << n << ",batches," << g.batches_sent << "\n";
      os << t << ',' << n << ",batch_msgs," << g.batch_msgs_sent << "\n";
    }
  }
}

bool write_perfetto_trace_file(const std::string& path,
                               const ObsSession& session) {
  std::ofstream f;
  if (!open_or_warn(f, path, "trace")) return false;
  write_perfetto_trace(f, session);
  return static_cast<bool>(f);
}

bool write_metrics_csv_file(const std::string& path,
                            const ObsSession& session) {
  std::ofstream f;
  if (!open_or_warn(f, path, "metrics CSV")) return false;
  write_metrics_csv(f, session);
  return static_cast<bool>(f);
}

}  // namespace pls::obs
