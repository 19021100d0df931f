#include "obs/trace.hpp"

namespace pls::obs {

const char* to_string(TraceKind kind) noexcept {
  switch (kind) {
    case TraceKind::kExecBatch: return "exec";
    case TraceKind::kRollback: return "rollback";
    case TraceKind::kGvtStart: return "gvt_start";
    case TraceKind::kGvtJoin: return "gvt_join";
    case TraceKind::kGvtDone: return "gvt_done";
    case TraceKind::kFossil: return "fossil";
    case TraceKind::kThrottle: return "throttle";
    case TraceKind::kFlush: return "flush";
  }
  return "?";
}

TraceRing::TraceRing(std::size_t capacity) {
  std::size_t cap = 16;
  while (cap < capacity) cap <<= 1;
  slots_ = std::make_unique<TraceEvent[]>(cap);
  mask_ = cap - 1;
}

std::vector<TraceEvent> TraceRing::snapshot() const {
  return tail(capacity());
}

std::vector<TraceEvent> TraceRing::tail(std::size_t n) const {
  const std::uint64_t count = recorded();
  const std::uint64_t held =
      count < capacity() ? count : static_cast<std::uint64_t>(capacity());
  const std::uint64_t want = n < held ? n : held;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(want));
  for (std::uint64_t i = count - want; i < count; ++i) {
    out.push_back(slots_[i & mask_]);
  }
  return out;
}

}  // namespace pls::obs
