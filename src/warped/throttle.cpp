#include "warped/throttle.hpp"

#include <algorithm>

namespace pls::warped {
namespace {

/// Multiplies a window by a factor > 1 without overflow; kEndOfTime stays
/// kEndOfTime (an open window has nothing to grow toward).
SimTime scale_window(SimTime w, double factor, SimTime cap) noexcept {
  if (w == kEndOfTime) return kEndOfTime;
  const double scaled = static_cast<double>(w) * factor;
  if (scaled >= static_cast<double>(cap)) return cap;
  const auto grown = static_cast<SimTime>(scaled);
  return grown > w ? grown : w + 1;  // factor ~1 on a tiny window: still move
}

SimTime shrink_window(SimTime w, double factor, SimTime floor_w) noexcept {
  const auto shrunk = static_cast<SimTime>(static_cast<double>(w) * factor);
  return std::max(floor_w, shrunk);
}

}  // namespace

const char* to_string(ThrottleMode m) noexcept {
  switch (m) {
    case ThrottleMode::kUnlimited: return "unlimited";
    case ThrottleMode::kFixed: return "fixed";
    case ThrottleMode::kAdaptive: return "adaptive";
  }
  return "?";
}

bool parse_throttle_mode(const std::string& s, ThrottleMode* out) noexcept {
  if (s == "unlimited") *out = ThrottleMode::kUnlimited;
  else if (s == "fixed") *out = ThrottleMode::kFixed;
  else if (s == "adaptive") *out = ThrottleMode::kAdaptive;
  else return false;
  return true;
}

OptimismThrottle::OptimismThrottle(ThrottleConfig cfg, SimTime base_window)
    : cfg_(cfg) {
  switch (cfg_.mode) {
    case ThrottleMode::kUnlimited:
      window_ = kEndOfTime;
      break;
    case ThrottleMode::kFixed:
      // optimism_window == 0 has always meant "unbounded"; keep it.
      window_ = base_window == 0 ? kEndOfTime : base_window;
      break;
    case ThrottleMode::kAdaptive:
      window_ = base_window == 0 ? kEndOfTime
                                 : std::max(base_window, cfg_.min_window);
      break;
  }
  min_window_seen_ = window_;
}

void OptimismThrottle::note_executed(std::uint64_t events,
                                     SimTime lead) noexcept {
  sample_executed_ += events;
  sample_max_lead_ = std::max(sample_max_lead_, lead);
}

void OptimismThrottle::note_rollback(std::uint64_t events_undone) noexcept {
  sample_rolled_back_ += events_undone;
  sample_max_depth_ = std::max(sample_max_depth_, events_undone);
}

void OptimismThrottle::on_round(std::uint64_t round) {
  if (cfg_.mode != ThrottleMode::kAdaptive) return;
  if (cooldown_ > 0) {
    if (--cooldown_ == 0) {
      // Cooldown over: discard the tainted sample and start measuring the
      // new window's actual behaviour.
      sample_executed_ = 0;
      sample_rolled_back_ = 0;
      sample_max_depth_ = 0;
      sample_max_lead_ = 0;
      rounds_since_decision_ = 0;
    }
    return;
  }
  ++rounds_since_decision_;
  // A sample is decidable when it saw enough events either way: enough
  // executions for the fraction to mean something, or so many rolled-back
  // events that "storm" is certain even from a few executions.
  const bool full_sample = sample_executed_ >= cfg_.min_sample_events ||
                           sample_rolled_back_ >= cfg_.min_sample_events;
  // A thin sample still forces a periodic decision: a node starved by its
  // own too-small window cannot accumulate a full sample, and that is
  // precisely the state the controller must be able to leave.
  if (!full_sample && rounds_since_decision_ < cfg_.max_rounds_per_decision) {
    return;
  }
  decide(round, full_sample);
}

void OptimismThrottle::decide(std::uint64_t round, bool full_sample) {
  const double frac =
      static_cast<double>(sample_rolled_back_) /
      static_cast<double>(std::max<std::uint64_t>(1, sample_executed_));
  if (!full_sample) {
    // Thin sample: either window-starved or genuinely idle.  Growing is
    // the right move in the first case and harmless in the second (an
    // idle node executes nothing regardless of its window).
    const SimTime grown = grown_window();
    if (grown == window_) {
      // Already fully open: nothing to decide — keep accumulating the
      // sample instead of discarding it.
      rounds_since_decision_ = 0;
      return;
    }
    window_ = grown;
    ++grows_;
    record(round, frac, +1);
  } else if (frac > cfg_.target_rollback_fraction &&
             (window_ == kEndOfTime || sample_max_lead_ >= window_ / 2 ||
              sample_rolled_back_ > sample_executed_)) {
    // Over budget *and* the window is implicated: the sample speculated
    // into the window region, or a cascade undid more than this sample
    // even executed (the destroyed work was speculated before the sample
    // began, so its lead is simply not recorded here).  Rollbacks at
    // small leads with frac <= 1 are straggler jitter no reachable
    // window can prevent — shrinking for those only starves the node;
    // hold instead.  (window_/2, not lead*2: the product overflows for
    // leads near kEndOfTime.)
    if (window_ == kEndOfTime) {
      // First clamp of an open window: anchor at the deepest speculation
      // horizon actually observed, not at a constant — the budget check
      // keeps cutting from there if the storm persists.
      window_ = std::min(std::max(sample_max_lead_, cfg_.min_window),
                         kEndOfTime - 1);
      storm_threshold_ = window_;
    } else {
      storm_threshold_ = window_;
      window_ = shrink_window(window_, cfg_.shrink_factor, cfg_.min_window);
    }
    if (sample_max_depth_ > cfg_.deep_rollback_depth) {
      window_ = shrink_window(window_, cfg_.shrink_factor, cfg_.min_window);
    }
    ++shrinks_;
    cooldown_ = cfg_.shrink_cooldown_rounds;
    record(round, frac, -1);
  } else if (frac < cfg_.target_rollback_fraction * cfg_.grow_margin) {
    const SimTime grown = grown_window();
    const int direction = grown != window_ ? +1 : 0;
    window_ = grown;
    if (direction > 0) ++grows_; else ++holds_;
    record(round, frac, direction);
  } else {
    ++holds_;
    record(round, frac, 0);
  }
  min_window_seen_ = std::min(min_window_seen_, window_);
  sample_executed_ = 0;
  sample_rolled_back_ = 0;
  sample_max_depth_ = 0;
  sample_max_lead_ = 0;
  rounds_since_decision_ = 0;
}

void OptimismThrottle::record(std::uint64_t round, double fraction,
                              int direction) {
  if (trajectory_.size() < cfg_.max_trajectory) {
    trajectory_.push_back(ThrottleDecision{round, window_, fraction,
                                           direction});
  }
}

SimTime OptimismThrottle::grown_window() const noexcept {
  if (window_ == kEndOfTime) return kEndOfTime;
  if (window_ >= storm_threshold_) {
    // Congestion avoidance: probe past the last storm gently.
    const SimTime inc = std::max(cfg_.min_window, window_ / 8);
    return saturating_add(window_, inc);
  }
  // Slow start up to the storm threshold, never over it in one leap.
  return scale_window(window_, cfg_.grow_factor, storm_threshold_);
}

ThrottleSummary OptimismThrottle::summary() const noexcept {
  ThrottleSummary s;
  s.mode = cfg_.mode;
  s.shrinks = shrinks_;
  s.grows = grows_;
  s.holds = holds_;
  s.min_window_seen = min_window_seen_;
  s.final_window = window_;
  return s;
}

}  // namespace pls::warped
