#pragma once
// ObsSession: one run's observability state — the per-node trace rings,
// the per-node metrics gauges, the global GVT gauge and the background
// sampler — bundled so the kernel takes a single non-owning pointer and
// the driver hands the finished session to the exporters.
//
// Lifecycle: construct before the kernel, start_sampling() right before
// kernel.run(), stop_sampling() right after it returns, then export.  The
// trace rings are written only by their node threads and read only after
// those threads joined; the gauges are relaxed atomics safe to sample
// concurrently (see metrics.hpp).  Everything is always compiled in; a
// null session pointer (the default) is the off switch, costing the hot
// path one pointer test.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace pls::obs {

struct ObsConfig {
  /// Record kernel trace events into per-node rings.
  bool trace = false;
  /// Per-node ring capacity in events (rounded up to a power of two);
  /// 48 bytes per slot.  The default holds an entire smoke-scale run and
  /// the recent tail of anything larger (dropped() reports truncation).
  std::size_t ring_capacity = std::size_t{1} << 17;
  /// Wall-clock microseconds between metrics samples; 0 = no sampler.
  std::uint64_t metrics_interval_us = 0;

  bool enabled() const noexcept { return trace || metrics_interval_us > 0; }
};

class ObsSession {
 public:
  ObsSession(std::uint32_t num_nodes, const ObsConfig& cfg);

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  std::uint32_t num_nodes() const noexcept { return num_nodes_; }

  /// Node `n`'s trace ring, or nullptr when tracing is off.  The kernel
  /// caches this per cluster; one null test per would-be record.
  TraceRing* ring(std::uint32_t n) noexcept {
    return cfg_.trace ? &rings_[n] : nullptr;
  }
  const TraceRing* ring(std::uint32_t n) const noexcept {
    return cfg_.trace ? &rings_[n] : nullptr;
  }

  /// Node `n`'s gauges (always present; publishing them is the kernel's
  /// choice and costs a handful of relaxed stores per poll).
  NodeGauges& gauges(std::uint32_t n) noexcept { return gauges_[n]; }
  const NodeGauges& gauges(std::uint32_t n) const noexcept {
    return gauges_[n];
  }

  /// Global GVT gauge, published by the kernel's controller.
  void set_gvt(std::uint64_t gvt) noexcept {
    gvt_.store(gvt, std::memory_order_relaxed);
  }
  std::uint64_t gvt() const noexcept {
    return gvt_.load(std::memory_order_relaxed);
  }

  /// Start/stop the background sampler (no-ops when the configured
  /// interval is 0).  stop_sampling() joins the thread — always pairs
  /// cleanly, including after an aborted run.
  void start_sampling();
  void stop_sampling();

  /// The sampled series; read only after stop_sampling().
  const std::vector<MetricsSample>& samples() const noexcept {
    return sampler_->samples();
  }
  std::uint64_t samples_truncated() const noexcept {
    return sampler_->truncated();
  }

  /// Session epoch: steady-clock ns at construction.  Exporters subtract
  /// it so artifact timestamps start near zero.
  std::uint64_t t0_ns() const noexcept { return t0_ns_; }

 private:
  ObsConfig cfg_;
  std::uint32_t num_nodes_;
  std::uint64_t t0_ns_;
  std::vector<TraceRing> rings_;               ///< empty when !cfg_.trace
  std::unique_ptr<NodeGauges[]> gauges_;
  std::atomic<std::uint64_t> gvt_{0};
  std::unique_ptr<MetricsSampler> sampler_;
};

}  // namespace pls::obs
