#pragma once
// Exporters for an ObsSession: Chrome/Perfetto trace.json (open in
// https://ui.perfetto.dev or chrome://tracing) and the metrics time series
// as long-format CSV.
//
// Only call after the run: the trace rings require their producer threads
// joined and the sampler stopped.  Output is deterministic modulo
// timestamps — events appear in ring order per node, nodes in order,
// samples in order, with a fixed field order — so two runs of the same
// simulation diff cleanly once ts/dur fields are masked (pinned by
// tests/obs_test.cpp).

#include <iosfwd>
#include <string>

namespace pls::obs {

class ObsSession;

/// Chrome Trace Event Format JSON: spans ("ph":"X"), instants ("i"),
/// per-node counter series ("C") from the metrics samples, and per-ring
/// drop counts under "otherData".  Timestamps are microseconds relative to
/// the session epoch.
void write_perfetto_trace(std::ostream& os, const ObsSession& session);

/// Long-format CSV: wall_ms,node,metric,value — one row per gauge per
/// node per sample; the global GVT samples use node -1.
void write_metrics_csv(std::ostream& os, const ObsSession& session);

/// File variants; return false (and print a warning on stderr) when the
/// file cannot be opened.
bool write_perfetto_trace_file(const std::string& path,
                               const ObsSession& session);
bool write_metrics_csv_file(const std::string& path,
                            const ObsSession& session);

}  // namespace pls::obs
