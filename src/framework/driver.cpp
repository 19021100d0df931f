#include "framework/driver.hpp"

#include <algorithm>
#include <limits>

#include "framework/partition_cache.hpp"
#include "framework/registry.hpp"
#include "logicsim/activity.hpp"
#include "multilevel/metrics.hpp"
#include "multilevel/weights.hpp"
#include "partition/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pls::framework {
namespace {

/// Short unweighted parallel pre-run with the same strategy and stimulus;
/// each LP's committed event/send counts are its measured useful work and
/// traffic — the same two signals the sequential profile derives, but
/// observed under the real optimistic execution.
logicsim::ActivityProfile warmup_activity(const circuit::Circuit& c,
                                          const DriverConfig& cfg,
                                          warped::SimTime horizon) {
  DriverConfig warm = cfg;
  warm.use_activity = false;
  warm.end_time = horizon;
  warm.obs = obs::ObsConfig{};  // never trace/sample the pre-run
  const DriverResult wres = run_parallel(c, warm);
  std::vector<std::uint64_t> events(wres.run.per_lp.size(), 0);
  std::vector<std::uint64_t> transitions(wres.run.per_lp.size(), 0);
  for (std::size_t lp = 0; lp < events.size(); ++lp) {
    // Lane-aware work signal: committed lane transitions (mask popcounts),
    // not raw event counts — on batched runs a gate whose inputs toggle
    // across many lanes costs proportionally more CPU per event.  Equal
    // to events_committed on scalar runs.
    events[lp] = wres.run.per_lp[lp].lane_work_committed;
    const std::size_t fanout = c.fanouts(lp).size();
    const std::uint64_t sends = wres.run.per_lp[lp].sends_committed;
    transitions[lp] = fanout > 0 ? sends / fanout : sends;
  }
  logicsim::ActivityProfile profile;
  profile.work = logicsim::normalize_counts(events);
  profile.traffic = logicsim::normalize_counts(transitions);
  return profile;
}

DriverResult partition_circuit(const circuit::Circuit& c,
                               const DriverConfig& cfg) {
  DriverResult res;

  partition::MultilevelOptions ml = cfg.multilevel;
  multilevel::VertexTrafficWeights weights;
  if (cfg.repartition_interval > 0) {
    PLS_CHECK_MSG(
        strategy_consumes_weights(cfg.partitioner),
        "repartition_interval requires a strategy that consumes weights "
        "(\"Multilevel\" or \"MultilevelHG\"); dynamic repartitioning "
        "cannot warm-start '"
            << cfg.partitioner << "'");
  }
  if (cfg.use_activity) {
    PLS_CHECK_MSG(
        strategy_consumes_weights(cfg.partitioner),
        "use_activity requires a strategy that consumes weights "
        "(\"Multilevel\" or \"MultilevelHG\"); it would be silently "
        "ignored by '"
            << cfg.partitioner << "'");
    util::WallTimer atimer;
    const warped::SimTime horizon =
        cfg.end_time / DriverConfig::kActivityHorizonDivisor;
    logicsim::ActivityProfile profile;
    if (cfg.activity_source == DriverConfig::ActivitySource::kProfile) {
      // Profile the exact stimulus the measured run will see.
      logicsim::ModelOptions mo = cfg.model;
      mo.stim_seed = cfg.seed;
      mo.lanes = cfg.lanes;
      profile = logicsim::profile_activity(c, mo, horizon);
      res.activity_mode = "profile";
    } else {
      profile = warmup_activity(c, cfg, horizon);
      res.activity_mode = "warmup";
    }
    weights = multilevel::weights_from_activity(profile.work, profile.traffic);
    ml.weights = &weights;
    res.activity_seconds = atimer.elapsed_seconds();
  }

  util::WallTimer timer;
  std::uint64_t cache_key = 0;
  if (!cfg.partition_cache_dir.empty()) {
    cache_key = partition_cache_key(c, cfg.num_nodes, cfg.partitioner,
                                    cfg.seed, ml, ml.weights);
    res.partition_cache_hit =
        partition_cache_load(cfg.partition_cache_dir, cache_key,
                             cfg.num_nodes, c.size(), &res.partition);
  }
  if (!res.partition_cache_hit) {
    const auto strategy = make_partitioner(cfg.partitioner, ml);
    res.partition = strategy->run(c, cfg.num_nodes, cfg.seed);
    if (!cfg.partition_cache_dir.empty()) {
      partition_cache_store(cfg.partition_cache_dir, cache_key,
                            res.partition);
    }
  }
  res.partition_seconds = timer.elapsed_seconds();

  res.partition.validate(c.size());
  res.edge_cut = partition::edge_cut(c, res.partition);
  res.comm_volume = partition::comm_volume(c, res.partition);
  res.imbalance = partition::imbalance(c, res.partition);
  // Imbalance under the work weights the partitioner actually balanced;
  // identical to the unit-weight imbalance when no weights were in play.
  res.weighted_imbalance =
      ml.weights != nullptr
          ? multilevel::weighted_imbalance(res.partition, ml.weights->vertex)
          : res.imbalance;
  res.concurrency = partition::concurrency(c, res.partition);
  return res;
}

}  // namespace

DriverResult partition_only(const circuit::Circuit& c,
                            const DriverConfig& cfg) {
  PLS_CHECK(c.frozen());
  return partition_circuit(c, cfg);
}

DriverResult run_parallel(const circuit::Circuit& c, const DriverConfig& cfg) {
  PLS_CHECK(c.frozen());
  DriverResult res = partition_circuit(c, cfg);

  logicsim::ModelOptions model_opt = cfg.model;
  model_opt.stim_seed = cfg.seed;
  model_opt.lanes = cfg.lanes;
  res.lanes = cfg.lanes;
  logicsim::SimModel model = logicsim::build_model(c, model_opt);

  warped::KernelConfig kc;
  kc.num_nodes = cfg.num_nodes;
  kc.end_time = cfg.end_time;
  kc.event_cost_ns = cfg.event_cost_ns;
  kc.network.send_overhead_ns = cfg.send_overhead_ns;
  kc.network.latency_ns = cfg.latency_ns;
  kc.coalesce.enabled = cfg.coalesce;
  kc.coalesce.max_batch_msgs = cfg.coalesce_max_batch;
  kc.gvt_interval_us = cfg.gvt_interval_us;
  kc.state_period = cfg.state_period;
  kc.throttle = cfg.throttle;
  kc.optimism_window = cfg.optimism_window;
  kc.max_batches_per_poll = cfg.max_batches_per_poll;
  kc.max_live_entries_per_node = cfg.max_live_entries_per_node;
  kc.watchdog_timeout_ms = cfg.watchdog_timeout_ms;

  // Dynamic repartitioning: the kernel's controller invokes this hook at
  // GVT epochs (always from node 0's thread, never concurrently with
  // itself), so the captured epoch state needs no locking; the results
  // vector is read back only after kernel.run() joined every thread.
  warped::SimTime last_adopt_gvt = 0;
  warped::SimTime last_eval_gvt = 0;
  if (cfg.repartition_interval > 0) {
    kc.repartition_interval = cfg.repartition_interval;
    kc.repartition_hook = [&c, &cfg, &res, &last_adopt_gvt, &last_eval_gvt](
                              const warped::RepartitionRequest& req)
        -> std::vector<std::uint32_t> {
      util::WallTimer rtimer;
      // Live work/traffic signal: committed counters, cumulative from the
      // start — the signal a full-horizon profile would measure, built up
      // live: smooth (no epoch-slice sampling noise to chase) and
      // converging, after a drift, on the all-phases mixture an oracle
      // profile would weight by.  Work is the lane-aware signal
      // (committed lane transitions, == events_committed on scalar runs)
      // — see warmup_activity.
      const std::vector<std::uint64_t>& events = req.lane_work_committed;
      std::vector<std::uint64_t> transitions(c.size(), 0);
      std::uint64_t total = 0;
      for (std::size_t lp = 0; lp < c.size(); ++lp) {
        const std::uint64_t sends = req.sends_committed[lp];
        const std::size_t fanout = c.fanouts(lp).size();
        transitions[lp] = fanout > 0 ? sends / fanout : sends;
        total += events[lp];
      }
      if (total == 0) return {};  // nothing committed yet
      // Startup gate: the first epochs arrive when GVT has barely left 0,
      // so the counters have only sampled the power-on transient (every
      // gate stabilizing once — committed-event counts there are large
      // but say nothing about steady-state activity).  Repartitioning on
      // that trades the (profile-guided) starting partition for noise —
      // observed to move 5–10% of the circuit before the first real
      // stimulus vectors have propagated.
      const warped::SimTime settle =
          DriverConfig::kRepartitionSettlePeriods * cfg.model.stim_period;
      if (req.gvt < settle) return {};
      // Adoption cooldown: after adopting a plan, hold it for the same few
      // stimulus periods.  Right after an adoption the signal is a
      // mixture of pre- and post-adoption activity (and GVT rounds publish
      // commits in bursts, so adjacent epochs can sample very different
      // slices) — re-litigating the plan on that churns LPs between
      // equally good local optima.
      if (last_adopt_gvt > 0 && req.gvt < last_adopt_gvt + settle) {
        return {};
      }
      // Evaluation spacing: GVT rounds are wall-clock paced, so a fast
      // phase fires many epochs per unit of virtual time — and commits
      // arrive in stimulus-period bursts, so epochs closer together than
      // one period re-sample essentially the same signal (same weights,
      // same plan, same verdict).  Recomputing a known rejection every
      // round steals controller wall time from the simulation; gate
      // re-evaluation on a period of fresh virtual time instead.
      if (last_eval_gvt > 0 &&
          req.gvt < last_eval_gvt + cfg.model.stim_period) {
        return {};
      }
      last_eval_gvt = req.gvt;
      const multilevel::VertexTrafficWeights w =
          multilevel::weights_from_activity(
              logicsim::normalize_counts(events),
              logicsim::normalize_counts(transitions));
      partition::MultilevelOptions rml = cfg.multilevel;
      rml.weights = &w;
      partition::Partition cur;
      cur.k = cfg.num_nodes;
      cur.assign = req.current;
      // Fixed seed across epochs — deliberately NOT mixed with req.round.
      // Reseeding per epoch makes the optimizer sample a different local
      // optimum each time, and every epoch "improves" on the previous
      // one's randomness; the partition oscillates between equally good
      // plans, paying migration for noise.  With one seed the repartition
      // is a deterministic function of (weights, partition), so an
      // adopted plan is its own fixed point until the weights move.
      const IncrementalRepartition inc = repartition_incremental(
          cfg.partitioner, rml, c, cfg.num_nodes, cfg.seed, cur);
      RepartitionEpoch ep;
      ep.round = req.round;
      ep.gvt = req.gvt;
      ep.quality_before = inc.quality_before;
      ep.quality_after = inc.quality_after;
      ep.imbalance_before = multilevel::weighted_imbalance(cur, w.vertex);
      ep.imbalance_after =
          multilevel::weighted_imbalance(inc.partition, w.vertex);
      // Churn-priced hysteresis: migration has a real cost (cancelled
      // speculation, package shipping, limbo stalls), roughly linear in
      // the LPs moved and paid *now*, while the better cut pays back only
      // over the remaining virtual horizon — so the required relative
      // gain scales with the moved fraction divided by the remaining
      // fraction.  A two-LP touch-up clears the base threshold; a plan
      // moving a third of the circuit near the end of the run must
      // promise the moon.
      std::uint64_t moved = 0;
      for (std::size_t lp = 0; lp < c.size(); ++lp) {
        if (inc.partition.assign[lp] != req.current[lp]) ++moved;
      }
      const double gain =
          inc.quality_before > inc.quality_after
              ? static_cast<double>(inc.quality_before - inc.quality_after)
              : 0.0;
      const double moved_fraction =
          static_cast<double>(moved) / static_cast<double>(c.size());
      const double remaining_fraction =
          req.gvt < cfg.end_time
              ? static_cast<double>(cfg.end_time - req.gvt) /
                    static_cast<double>(cfg.end_time)
              : 0.0;
      const double threshold =
          remaining_fraction > 0.0
              ? std::max(cfg.repartition_min_gain,
                         cfg.repartition_churn_cost * moved_fraction /
                             remaining_fraction)
              : std::numeric_limits<double>::infinity();
      // Two ways a plan can pay for its migration churn: a cut win (fewer
      // inter-node messages) or a balance win (an overloaded node is the
      // rollback engine drift leaves behind, and warm-started refinement
      // alone cannot repair a large violation).  Either gain must clear
      // the same churn-priced threshold while the other metric does not
      // regress materially.
      const double cut_gain =
          inc.quality_before > 0
              ? gain / static_cast<double>(inc.quality_before)
              : 0.0;
      const double imb_gain =
          ep.imbalance_before > 1.0
              ? (ep.imbalance_before - ep.imbalance_after) /
                    ep.imbalance_before
              : 0.0;
      const bool cut_adopt =
          cut_gain >= threshold &&
          ep.imbalance_after <= ep.imbalance_before * 1.02;
      const bool balance_adopt =
          imb_gain >= threshold &&
          inc.quality_after <=
              inc.quality_before + (inc.quality_before + 49) / 50;
      const bool adopt = inc.changed && (cut_adopt || balance_adopt);
      if (adopt) {
        ep.lps_moved = moved;
        last_adopt_gvt = req.gvt;
      }
      ep.seconds = rtimer.elapsed_seconds();
      res.repartition_epochs.push_back(ep);
      if (!adopt) return {};
      return inc.partition.assign;
    };
  }

  std::shared_ptr<obs::ObsSession> obs;
  if (cfg.obs.enabled()) {
    obs = std::make_shared<obs::ObsSession>(cfg.num_nodes, cfg.obs);
    kc.obs = obs.get();
  }

  warped::Kernel kernel(model.behaviours(), res.partition.assign, kc);
  if (obs != nullptr) obs->start_sampling();
  res.run = kernel.run();
  if (obs != nullptr) {
    obs->stop_sampling();
    res.obs = std::move(obs);
  }
  res.lps_migrated = res.run.totals.lps_migrated_out;
  return res;
}

logicsim::SeqStats run_sequential(const circuit::Circuit& c,
                                  const DriverConfig& cfg) {
  PLS_CHECK(c.frozen());
  logicsim::ModelOptions model_opt = cfg.model;
  model_opt.stim_seed = cfg.seed;
  model_opt.lanes = cfg.lanes;
  logicsim::SimModel model = logicsim::build_model(c, model_opt);
  return logicsim::simulate_sequential(model.behaviours(), cfg.end_time,
                                       cfg.event_cost_ns);
}

}  // namespace pls::framework
