#pragma once
// Gate activity profiling (paper §6, future work: "the use of activity
// levels of communication to make better decisions while coarsening").
//
// A short sequential pre-simulation counts how often each gate evaluates;
// the normalized rates feed the activity-weighted coarsening scheme
// (partition::CoarsenOptions::activity), which then prefers to keep busy
// signals inside globules.

#include <vector>

#include "circuit/circuit.hpp"
#include "logicsim/netlist_lps.hpp"

namespace pls::logicsim {

/// Two per-gate activity signals, each mean-normalized (1.0 = average
/// gate).  They answer different questions and drive different weights:
///   work[g]     lane transitions *executed at* g — popcount over the
///               change masks of the events g receives — how much CPU
///               hosting g costs (vertex/work weight).  On a scalar run
///               every mask has one bit, so this is the classic
///               events-executed count; on a batched run an event that
///               toggles 40 lanes weighs 40, so lane-dense gates read as
///               proportionally hotter than lane-sparse ones instead of
///               all events counting alike.
///   traffic[g]  output lane transitions of g (mask popcounts of sends /
///               fanout degree) — how many messages cutting g's fanout
///               net costs per unit time (net/edge traffic weight).  A
///               gate evaluated often but rarely toggling is heavy work
///               yet cheap to cut.
struct ActivityProfile {
  std::vector<double> work;
  std::vector<double> traffic;
};

/// Profile gate activity with a short sequential pre-simulation;
/// `profile_end` bounds it.  Deterministic for a fixed stimulus seed.
ActivityProfile profile_activity(const circuit::Circuit& c,
                                 const ModelOptions& opt,
                                 warped::SimTime profile_end);

}  // namespace pls::logicsim
