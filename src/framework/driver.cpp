#include "framework/driver.hpp"

#include "framework/registry.hpp"
#include "logicsim/activity.hpp"
#include "multilevel/metrics.hpp"
#include "multilevel/weights.hpp"
#include "partition/metrics.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pls::framework {
namespace {

/// cfg.model with the run's stimulus seed.
logicsim::ModelOptions model_options(const DriverConfig& cfg) {
  logicsim::ModelOptions mo = cfg.model;
  mo.stim_seed = cfg.seed;
  return mo;
}

DriverResult partition_circuit(const circuit::Circuit& c,
                               const DriverConfig& cfg) {
  DriverResult res;

  partition::MultilevelOptions ml = cfg.multilevel;
  multilevel::VertexTrafficWeights weights;
  if (cfg.use_activity) {
    PLS_CHECK_MSG(
        strategy_consumes_weights(cfg.partitioner),
        "use_activity requires a strategy that consumes weights "
        "(\"Multilevel\" or \"MultilevelHG\"); it would be silently "
        "ignored by '"
            << cfg.partitioner << "'");
    util::WallTimer atimer;
    // Profile the exact stimulus the measured run will see.
    const logicsim::ActivityProfile profile = logicsim::profile_activity(
        c, model_options(cfg),
        cfg.end_time / DriverConfig::kActivityHorizonDivisor);
    weights = multilevel::weights_from_activity(profile.work, profile.traffic);
    ml.weights = &weights;
    res.activity_seconds = atimer.elapsed_seconds();
  }

  util::WallTimer timer;
  res.partition = make_partitioner(cfg.partitioner, ml)->run(c, cfg.num_nodes,
                                                             cfg.seed);
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

warped::KernelConfig kernel_config(const DriverConfig& cfg) {
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
  return kc;
}

DriverResult run_parallel(const circuit::Circuit& c, const DriverConfig& cfg) {
  PLS_CHECK(c.frozen());
  DriverResult res = partition_circuit(c, cfg);
  res.lanes = cfg.model.lanes;
  logicsim::SimModel model = logicsim::build_model(c, model_options(cfg));

  warped::KernelConfig kc = kernel_config(cfg);
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
  return res;
}

logicsim::SeqStats run_sequential(const circuit::Circuit& c,
                                  const DriverConfig& cfg) {
  PLS_CHECK(c.frozen());
  logicsim::SimModel model = logicsim::build_model(c, model_options(cfg));
  return logicsim::simulate_sequential(model.behaviours(), cfg.end_time,
                                       cfg.event_cost_ns);
}

}  // namespace pls::framework
