// Onion peeling — Algorithm 3 of the paper.
//
// Solves the Time-Aware Scheduling (TAS) problem: given each job's robust
// demand eta_i (from WCDE) and utility function, find target completion
// times that lexicographically maximise the sorted utility vector.  Each
// "layer" searches the utility level L by k-section (the paper's bisection
// generalised to k = 4 interior probes per round); feasibility of a level is
// the preemptive-EDF capacity condition of Theorem 2.  The job that blocks
// further improvement (the bottleneck) is fixed at the layer's utility and
// removed, and the search continues with the rest.
//
// Deviation from the printed pseudocode (documented in DESIGN.md §5): the
// paper's check only walks constraints at *remaining* jobs' deadlines with
// the reservation function G_t.  That misses violations at already-peeled
// jobs' deadlines when a later layer pulls an active job's deadline across a
// peeled one.  We evaluate the full EDF condition over the union of active
// and peeled jobs, which is both necessary and sufficient for the
// container-seconds model.

#pragma once

#include <vector>

#include "src/common/types.h"
#include "src/utility/utility_function.h"

namespace rush {

/// One job as seen by the TAS solver.
struct TasJob {
  JobId id = kInvalidJob;
  /// Robust remaining demand eta_i in container-seconds (WCDE output).
  ContainerSeconds eta = 0.0;
  /// Average container holding time of one task, R_i (seconds).
  Seconds avg_task_runtime = 1.0;
  /// Utility of the job's absolute completion time.  Not owned; must
  /// outlive the call.
  const UtilityFunction* utility = nullptr;
};

/// One layer of a previous pass's peel, used to warm-start the next pass.
/// Consecutive replans differ by a single observation, so the layer's
/// solution barely moves — but in the right coordinates.  Utility *levels*
/// drift with every tick (the curves are functions of absolute time, so as
/// `now` advances a fixed level buys less slack), while the layer's target
/// *completion time* is an absolute quantity that stays put when demand and
/// supply shrink together.  The hint therefore stores both: the completion
/// time is re-priced through the job's utility curve at the next pass to
/// recover a fresh level estimate, and the raw level is the fallback when
/// re-pricing is impossible (zero-utility layers).  Slack-valued probes
/// root-find from the estimate (Newton in deadline space, with false-
/// position and bisection fallbacks), and the certified bracket then
/// answers most levels of the layer's k-section grid by monotonicity — so
/// a hinted layer ends on the same grid level, deadline and bottleneck as a
/// hint-less one, with a fraction of the probes (DESIGN.md §5d).
struct PeelHintEntry {
  /// Job peeled in this layer last pass.  A hint whose job is no longer
  /// active (finished, or drained to zero demand) is skipped, re-aligning
  /// the remaining hints with the surviving layers.
  JobId id = kInvalidJob;
  /// Utility level L_f the layer was peeled at.
  Utility level = 0.0;
  /// Absolute target completion time of the peeled job (< 0 when unknown).
  Seconds completion = -1.0;
};

/// Per-layer hints in peel order (layer 0 first); `TasResult::hint` of one
/// pass is the `OnionPeelingConfig::warm_hint` of the next.
using PeelHint = std::vector<PeelHintEntry>;

/// Per-job outcome of the peeling.
struct TasTarget {
  JobId id = kInvalidJob;
  /// Deadline handed to the slot mapper: U^{-1}(L) - R_i, compensated so
  /// the mapper's T_i + R_i stretch stays within target (Theorem 3).
  Seconds mapping_deadline = 0.0;
  /// Projected completion time shown to users (mapping_deadline + R_i,
  /// capped at the horizon; the Theorem 3 bound makes this achievable).
  Seconds target_completion = 0.0;
  /// The utility level L_f of the layer in which the job was peeled.
  Utility utility_level = 0.0;
  /// Layer number (0 = worst-off layer), i.e. peel order.
  int layer = 0;
  /// True when even the target completion yields zero utility — the "red
  /// row" in the RUSH web UI (Fig 2): the job cannot meet any useful
  /// deadline and the user should resubmit its requirements.
  bool impossible = false;
};

struct OnionPeelingConfig {
  /// Search tolerance Delta on the utility level.
  double tolerance = 1e-3;
  /// Optional warm start from the previous pass's `TasResult::hint` (not
  /// owned; may be nullptr for a hint-less search).  The hint only
  /// *discovers* the bracket cheaply; every layer, hinted or not, ends on
  /// the same k-section grid, so a hinted peel is bit-identical to a
  /// hint-less one at any hint quality — a stale hint costs probes, never
  /// accuracy.
  const PeelHint* warm_hint = nullptr;
};

struct TasResult {
  /// Targets in peel order (layer 0 first).
  std::vector<TasTarget> targets;
  /// The scheduling horizon (absolute seconds): now + 2*(total demand /
  /// capacity + max R_i) + 1, which always makes the zero-utility level
  /// feasible.
  Seconds horizon = 0.0;
  /// Number of bisection feasibility probes performed (benchmark aid).
  long probes = 0;
  /// Per-layer (job, level) of this pass, in peel order — feed it back as
  /// `OnionPeelingConfig::warm_hint` to warm-start the next pass.  Zero-
  /// demand jobs peel without a search and are not recorded.
  PeelHint hint;
  /// Layers whose bracket collapsed within tolerance directly from the
  /// warm hint's root-finding probes, leaving the grid loop almost nothing
  /// to probe.
  long warm_layers = 0;
};

/// Runs the onion peeling algorithm.
///
/// @param jobs      active jobs with positive remaining demand (eta <= 0
///                  jobs are peeled immediately at `now`)
/// @param capacity  cluster capacity C in containers
/// @param now       current absolute time; all demand must be served after it
TasResult onion_peel(const std::vector<TasJob>& jobs, ContainerCount capacity,
                     Seconds now, const OnionPeelingConfig& config = {});

}  // namespace rush
