#include "warped/stats.hpp"

#include <algorithm>
#include <ostream>

namespace pls::warped {

void NodeStats::merge(const NodeStats& o) noexcept {
  events_processed += o.events_processed;
  events_committed += o.events_committed;
  events_rolled_back += o.events_rolled_back;
  primary_rollbacks += o.primary_rollbacks;
  secondary_rollbacks += o.secondary_rollbacks;
  inter_node_messages += o.inter_node_messages;
  intra_node_events += o.intra_node_events;
  anti_messages_sent += o.anti_messages_sent;
  batches_sent += o.batches_sent;
  batch_msgs_sent += o.batch_msgs_sent;
  max_batch_msgs = std::max(max_batch_msgs, o.max_batch_msgs);
  idle_polls += o.idle_polls;
  idle_sleeps += o.idle_sleeps;
  peak_live_entries = std::max(peak_live_entries, o.peak_live_entries);
  exec_polls += o.exec_polls;
  throttle_shrinks += o.throttle_shrinks;
  throttle_grows += o.throttle_grows;
  pool_slab_bytes += o.pool_slab_bytes;
  pool_blocks_recycled += o.pool_blocks_recycled;
  pool_heap_fallbacks += o.pool_heap_fallbacks;
}

std::ostream& operator<<(std::ostream& os, const RunStats& s) {
  os << "nodes=" << s.num_nodes << " wall=" << s.wall_seconds << "s"
     << " committed=" << s.totals.events_committed
     << " processed=" << s.totals.events_processed
     << " rolled_back=" << s.totals.events_rolled_back
     << " rollbacks=" << s.totals.total_rollbacks() << " (p="
     << s.totals.primary_rollbacks << ", s=" << s.totals.secondary_rollbacks
     << ")"
     << " app_msgs=" << s.totals.inter_node_messages
     << " antis=" << s.totals.anti_messages_sent
     << " gvt_cycles=" << s.gvt_cycles;
  if (s.totals.batches_sent > 0) {
    // Realized coalescing factor: messages per flushed batch.
    os << " batches=" << s.totals.batches_sent << " (avg "
       << static_cast<double>(s.totals.batch_msgs_sent) /
              static_cast<double>(s.totals.batches_sent)
       << " msgs, max " << s.totals.max_batch_msgs << ")";
  }
  os
     // Batching effectiveness: events per executing poll ≈ processed /
     // exec_polls; 1.0 means LTSF batching bought nothing.
     << " exec_polls=" << s.totals.exec_polls;
  if (!s.throttle.empty()) {
    os << " throttle=" << to_string(s.throttle.front().summary.mode);
    if (s.throttle.front().summary.mode == ThrottleMode::kAdaptive) {
      os << " (shrinks=" << s.totals.throttle_shrinks
         << ", grows=" << s.totals.throttle_grows << ")";
    }
  }
  if (s.out_of_memory) os << " OOM";
  if (s.stalled) os << " STALLED";
  return os;
}

}  // namespace pls::warped
