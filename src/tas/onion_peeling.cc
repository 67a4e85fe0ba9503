#include "src/tas/onion_peeling.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/common/error.h"
#include "src/common/units.h"

namespace rush {
namespace {

constexpr Seconds kUnreachable = -std::numeric_limits<Seconds>::infinity();
constexpr Seconds kNoViolation = std::numeric_limits<Seconds>::infinity();
constexpr double kEdfSlack = 1e-9;
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
/// Interior grid levels per k-section round.  1 would be the paper's plain
/// bisection; k levels shrink the bracket by (k+1)x per round.  Every layer,
/// hinted or not, ends on this grid (DESIGN.md §5d), so k is part of the
/// plan, not a tuning knob.
constexpr int kSectionProbes = 4;

/// Jobs fixed in earlier layers, kept sorted by deadline with prefix demand
/// sums (the paper's G_t reservation step function in cumulative form), so
/// a probe only sorts the *active* deadlines and merges against this —
/// instead of re-sorting the whole union on every probe.  One struct vector:
/// an insert shifts each tail element once and rebuilds its prefix in the
/// same walk (the split deadline/eta/prefix arrays paid three shifts plus a
/// separate prefix pass per peel).
class PeeledSet {
 public:
  void insert(Seconds deadline, ContainerSeconds eta) {
    const auto it = std::upper_bound(
        items_.begin(), items_.end(), deadline,
        [](Seconds d, const Item& item) { return d < item.deadline; });
    const auto pos = static_cast<std::size_t>(it - items_.begin());
    items_.insert(it, Item{deadline, eta, 0.0});
    double run = pos == 0 ? 0.0 : items_[pos - 1].prefix;
    for (std::size_t i = pos; i < items_.size(); ++i) {
      run += items_[i].eta;
      items_[i].prefix = run;
    }
  }
  std::size_t size() const { return items_.size(); }
  Seconds deadline(std::size_t i) const { return items_[i].deadline; }
  /// Total demand of peeled jobs with deadline <= deadline(i).
  double prefix(std::size_t i) const { return items_[i].prefix; }

 private:
  struct Item {
    Seconds deadline;
    ContainerSeconds eta;
    double prefix;
  };
  std::vector<Item> items_;
};

/// (deadline, demand) pairs of the active jobs at some probed level.
using DeadlineDemand = std::vector<std::pair<Seconds, ContainerSeconds>>;

/// One job still to be peeled, with the two utility values every layer or
/// probe reads, evaluated once per onion_peel call: U(now) caps each layer's
/// level, and U(horizon) answers the inverse's "level is free" test (an exp
/// per probe on a sigmoid).  Both are the values a fresh evaluation returns,
/// so reading them from the table is bit-identical.
struct ActiveJob {
  const TasJob* job = nullptr;
  Utility at_now = 0.0;
  Utility at_horizon = 0.0;
};
using ActiveSet = std::vector<ActiveJob>;

/// The peel's one probe buffer.  Its previous contents are reused two ways:
/// the sorted order of the last probe seeds the next probe's sort
/// (consecutive levels move deadlines smoothly, so the order is usually
/// already right and the sort degenerates to an O(n) insertion pass), and
/// the bottleneck step reuses the probe at the layer's last infeasible level
/// instead of recomputing every deadline from scratch.
struct ProbeScratch {
  /// (deadline, eta) of the active jobs, sorted — what the EDF walk reads.
  DeadlineDemand pairs;
  /// Active-job indices in the order `pairs` was last built.  Carried
  /// across layers: peeling a job drops its index (drop_from_order) and
  /// keeps the survivors' order.
  std::vector<std::uint32_t> order;
  /// Deadline per active index at `level` (kUnreachable allowed).
  std::vector<Seconds> deadlines;
  /// Level this buffer last probed, and the layer it was probed in.
  Utility level = 0.0;
  std::uint64_t layer_epoch = static_cast<std::uint64_t>(-1);
  /// First active index whose deadline was unreachable (kNoIndex if none);
  /// when set, `deadlines` past it and `pairs` are not populated.
  std::size_t first_unreachable = kNoIndex;
  bool complete = false;
  /// Deadline attaining the minimum EDF slack (kNoViolation when the level
  /// was unreachable).
  Seconds binding = kNoViolation;
};

/// Deadline of job `a` for utility level L, compensated by R_i (Theorem 3:
/// the slot mapper's T_i + R_i stretch then still lands by U^{-1}(L)).
/// Returns kUnreachable when L cannot be achieved at any time >= now.
Seconds deadline_for_level(const ActiveJob& a, Utility level, Seconds now, Seconds horizon) {
  Seconds d = a.job->utility->inverse_known_horizon(level, horizon, a.at_horizon);
  if (d == kUnreachable) return kUnreachable;
  d -= a.job->avg_task_runtime;
  if (d < now) return kUnreachable;  // cannot finish in the past
  return d;
}

/// Removes active index `gone` from the buffer's carried order and
/// renumbers the indices above it, matching an erase from the active set.
/// The survivors keep their relative order, so the next layer's first probe
/// repairs the order it ended on instead of sorting from the identity.  An
/// order that does not cover the active set is left alone; the next probe
/// resets it.
void drop_from_order(ProbeScratch& scratch, std::size_t active_size, std::uint32_t gone) {
  std::vector<std::uint32_t>& order = scratch.order;
  if (order.size() != active_size) return;
  std::size_t kept = 0;
  for (const std::uint32_t i : order) {
    if (i != gone) order[kept++] = i > gone ? i - 1 : i;
  }
  order.resize(kept);
}

/// Preemptive-EDF condition (Theorem 2 generalised to include peeled jobs):
/// for every distinct deadline d in the union of `active` (sorted by
/// deadline) and `peeled`, the total demand due by d must fit in
/// capacity * (d - now).  Returns the first violated deadline, or
/// kNoViolation when every constraint holds.  Only the bottleneck step
/// needs the first violation; probes read the minimum slack instead.
Seconds first_edf_violation(const DeadlineDemand& active, const PeeledSet& peeled,
                            ContainerCount capacity, Seconds now) {
  // Dimension-checked walk: demand accumulates in container-seconds and is
  // compared against the capacity x window supply — the types make a
  // demand-vs-deadline or count-vs-work mixup a compile error, while every
  // floating-point operation (and its order) matches the raw original
  // bit-for-bit.
  const units::Containers supply_rate(capacity);
  units::ContainerSeconds load(0.0);
  std::size_t i = 0;
  std::size_t q = 0;
  const std::size_t a = active.size();
  const std::size_t p = peeled.size();
  while (i < a || q < p) {
    const Seconds d = (i < a && (q >= p || active[i].first <= peeled.deadline(q)))
                          ? active[i].first
                          : peeled.deadline(q);
    while (i < a && active[i].first <= d) load += units::ContainerSeconds(active[i++].second);
    while (q < p && peeled.deadline(q) <= d) ++q;
    const units::ContainerSeconds due =
        load + units::ContainerSeconds(q > 0 ? peeled.prefix(q - 1) : 0.0);
    const units::ContainerSeconds budget = supply_rate * units::Seconds(d - now);
    if (due > budget + units::ContainerSeconds(kEdfSlack)) return d;
  }
  return kNoViolation;
}

/// Element moves per job the insertion pass in sort_deadlines may spend
/// before it hands the rest to std::stable_sort.
constexpr std::size_t kInsertionMovesPerJob = 4;

/// Rebuilds scratch.pairs sorted by (deadline, eta) — the exact key the
/// previous std::sort-on-pairs used, so elements comparing equal carry
/// identical values and any order among them yields bit-identical EDF load
/// sums.  The carried order is repaired by a straight insertion pass, O(n +
/// moves) and allocation-free; past the move budget the rest goes to
/// std::stable_sort.  Insertion sort is stable too, so both routes leave
/// the same permutation.
void sort_deadlines(const ActiveSet& active, ProbeScratch& scratch) {
  const std::size_t n = active.size();
  std::vector<std::uint32_t>& order = scratch.order;
  if (order.size() != n) {
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  }
  const auto key_less = [&](std::uint32_t x, std::uint32_t y) {
    const Seconds dx = scratch.deadlines[x];
    const Seconds dy = scratch.deadlines[y];
    if (dx != dy) return dx < dy;
    return active[x].job->eta < active[y].job->eta;
  };
  std::size_t moves_left = kInsertionMovesPerJob * n;
  for (std::size_t j = 1; j < n; ++j) {
    const std::uint32_t x = order[j];
    std::size_t k = j;
    while (k > 0 && moves_left > 0 && key_less(x, order[k - 1])) {
      order[k] = order[k - 1];
      --k;
      --moves_left;
    }
    order[k] = x;
    if (moves_left == 0) {
      // Budget spent: the prefix is stably sorted, so a stable sort of the
      // whole sequence still keeps every tie in its carried order.
      std::stable_sort(order.begin(), order.end(), key_less);
      break;
    }
  }
  scratch.pairs.clear();
  for (const std::uint32_t i : order) {
    scratch.pairs.emplace_back(scratch.deadlines[i], active[i].job->eta);
  }
}

/// Minimum EDF slack over every constraint: min over deadlines d of
/// capacity * (d - now) - due(d).  The level is feasible exactly when the
/// minimum stays above -kEdfSlack (slack_feasible) — the comparison
/// first_edf_violation makes, without its early exit — and its magnitude
/// tells the hinted root finder how far the probed level sits from binding.
/// `binding` receives the deadline attaining the minimum.
double edf_min_slack(const DeadlineDemand& active, const PeeledSet& peeled,
                     ContainerCount capacity, Seconds now, Seconds& binding) {
  // Same dimension-checked accumulation as first_edf_violation; the slack
  // (supply minus demand) is itself a ContainerSeconds quantity until the
  // very last unwrap for the caller's root finder.
  const units::Containers supply_rate(capacity);
  units::ContainerSeconds load(0.0);
  double min_slack = std::numeric_limits<double>::infinity();
  Seconds min_deadline = kNoViolation;
  std::size_t i = 0;
  std::size_t q = 0;
  const std::size_t a = active.size();
  const std::size_t p = peeled.size();
  while (i < a || q < p) {
    const Seconds d = (i < a && (q >= p || active[i].first <= peeled.deadline(q)))
                          ? active[i].first
                          : peeled.deadline(q);
    while (i < a && active[i].first <= d) load += units::ContainerSeconds(active[i++].second);
    while (q < p && peeled.deadline(q) <= d) ++q;
    const units::ContainerSeconds due =
        load + units::ContainerSeconds(q > 0 ? peeled.prefix(q - 1) : 0.0);
    const double slack = (supply_rate * units::Seconds(d - now) - due).value();
    if (slack < min_slack) {
      min_slack = slack;
      min_deadline = d;
    }
  }
  binding = min_deadline;
  return min_slack;
}

bool slack_feasible(double slack) { return slack >= -kEdfSlack; }

/// The peel's one probe: every active job gets deadline U^{-1}(level) - R_i,
/// and the EDF condition is checked over active + peeled demand.  Returns
/// the minimum EDF slack (feasible iff slack_feasible), or -infinity when
/// the level is unreachable for some active job — `scratch.first_unreachable`
/// then names the job.  Pure apart from `scratch`, which keeps the probe's
/// deadlines, sorted pairs and binding deadline.
double probe_level(const ActiveSet& active, const PeeledSet& peeled,
                   ContainerCount capacity, Seconds now, Seconds horizon,
                   Utility level, std::uint64_t layer_epoch, ProbeScratch& scratch) {
  const std::size_t n = active.size();
  scratch.level = level;
  scratch.layer_epoch = layer_epoch;
  scratch.first_unreachable = kNoIndex;
  scratch.complete = false;
  scratch.binding = kNoViolation;
  scratch.deadlines.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Seconds d = deadline_for_level(active[i], level, now, horizon);
    scratch.deadlines[i] = d;
    if (d == kUnreachable) {
      scratch.first_unreachable = i;
      return -std::numeric_limits<double>::infinity();
    }
  }
  scratch.complete = true;
  sort_deadlines(active, scratch);
  return edf_min_slack(scratch.pairs, peeled, capacity, now, scratch.binding);
}

}  // namespace

TasResult onion_peel(const std::vector<TasJob>& jobs, ContainerCount capacity,
                     Seconds now, const OnionPeelingConfig& config) {
  require(capacity > 0, "onion_peel: capacity must be positive");
  require(config.tolerance > 0.0, "onion_peel: tolerance must be positive");

  TasResult result;
  result.targets.reserve(jobs.size());
  ActiveSet active;
  active.reserve(jobs.size());
  units::ContainerSeconds total_eta(0.0);
  Seconds max_runtime = 0.0;
  int layer = 0;

  for (const TasJob& j : jobs) {
    require(j.utility != nullptr, "onion_peel: job without utility function");
    require(j.avg_task_runtime > 0.0, "onion_peel: non-positive avg task runtime");
    if (j.eta <= 0.0) {
      // Nothing left to schedule: the job completes "now" at its maximal
      // utility and occupies no capacity.
      TasTarget t;
      t.id = j.id;
      t.mapping_deadline = now;
      t.target_completion = now;
      t.utility_level = j.utility->value(now);
      t.layer = layer;
      result.targets.push_back(t);
      continue;
    }
    active.push_back({&j, 0.0, 0.0});
    total_eta += units::ContainerSeconds(j.eta);
    max_runtime = std::max(max_runtime, j.avg_task_runtime);
  }

  // Time to drain all demand at full capacity, plus the longest task to
  // settle — doubled for slack.  ContainerSeconds / Containers -> Seconds
  // is the typed form of the old raw division (same fp ops, same order).
  const units::Seconds drain_and_settle =
      total_eta / units::Containers(capacity) + units::Seconds(max_runtime);
  const Seconds horizon = now + (2.0 * drain_and_settle).value() + 1.0;
  result.horizon = horizon;
  for (ActiveJob& a : active) {
    a.at_now = a.job->utility->value(now);
    a.at_horizon = a.job->utility->value(horizon);
  }
  result.hint.reserve(active.size());

  PeeledSet peeled;
  constexpr int k = kSectionProbes;
  ProbeScratch scratch;
  // Stamps the buffer with the layer that produced its probe, so the
  // bottleneck step never trusts a probe of an earlier (larger) active set.
  std::uint64_t layer_epoch = 0;

  const auto probe = [&](Utility level) {
    ++result.probes;
    return probe_level(active, peeled, capacity, now, horizon, level, layer_epoch, scratch);
  };

  // Level 0 is always feasible at this horizon: every inverse returns
  // `horizon` (utilities are non-negative) and total demand fits.
  Utility level_feasible = 0.0;
  ensure(slack_feasible(probe(level_feasible)),
         "onion_peel: zero utility level infeasible; horizon too small");

  const PeelHint* warm = config.warm_hint;
  std::size_t hint_cursor = 0;
  const auto find_active = [&](JobId id) -> const TasJob* {
    for (const ActiveJob& a : active) {
      if (a.job->id == id) return a.job;
    }
    return nullptr;
  };

  // Peels one layer: commits its target and hint entry, reserves the
  // job's deadline and drops it from the active set.
  const auto peel_job = [&](std::size_t index, Utility level) {
    const TasJob& job = *active[index].job;
    const Seconds d = deadline_for_level(active[index], level, now, horizon);
    ensure(d != kUnreachable, "onion_peel: peeling at unreachable level");
    TasTarget t;
    t.id = job.id;
    t.mapping_deadline = d;
    t.target_completion = std::min(d + job.avg_task_runtime, horizon);
    t.utility_level = level;
    t.layer = layer++;
    t.impossible = job.utility->value(t.target_completion) <= 0.0;
    result.targets.push_back(t);
    result.hint.push_back({job.id, level, t.target_completion});
    peeled.insert(d, job.eta);
    drop_from_order(scratch, active.size(), static_cast<std::uint32_t>(index));
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(index));
    ++hint_cursor;  // keep layers and hints aligned
  };

  while (!active.empty()) {
    ++layer_epoch;
    // Upper bound for this layer: no job can exceed the utility of
    // completing immediately, and the layer max-min cannot exceed the
    // smallest such maximum among remaining jobs.
    Utility level_cap = std::numeric_limits<Utility>::infinity();
    std::size_t cap_index = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      if (active[i].at_now < level_cap) {
        level_cap = active[i].at_now;
        cap_index = i;
      }
    }

    Utility lo = level_feasible;
    Utility hi = level_cap;
    const bool degenerate_cap =
        level_cap <= level_feasible + config.tolerance * std::max(level_cap, 1e-3);

    // Lowest level the grid loop can ever probe in this layer: with no
    // feasible positive probe, it divides the bracket width by (k+1) from
    // the cap until the width test passes, and stops there.  The hinted
    // root finder must respect the same floor — a feasible probe *below* it
    // would raise `lo` where the grid leaves it at the inherited level, and
    // near zero that tiny level difference maps to a hugely different
    // peeled deadline (a sigmoid's inverse of 1e-40 sits decades past its
    // inverse of 1e-6), deforming every later layer's constraint set.
    // Computed with the grid's exact arithmetic so a floored probe reads the
    // EDF structure at bit-for-bit the grid's terminal level.
    Utility level_floor = level_cap;
    if (warm != nullptr) {
      while (level_floor - 0.0 >
                 config.tolerance * std::max(level_floor, 1e-3) &&
             level_floor > 1e-12) {
        level_floor = 0.0 + level_floor * static_cast<double>(1) /
                                static_cast<double>(k + 1);
      }
    }

    // Warm start: pick this layer's hint.  The stored completion time is
    // re-priced through the peeled job's utility curve (absolute completion
    // times barely move between passes, so this tracks the level drift the
    // raw stored level cannot).  Hints of departed jobs are skipped so the
    // rest re-align with the surviving layers.
    Utility hint_level = -1.0;
    if (warm != nullptr) {
      const TasJob* hint_job = nullptr;
      while (hint_cursor < warm->size() &&
             (hint_job = find_active((*warm)[hint_cursor].id)) == nullptr) {
        ++hint_cursor;
      }
      if (hint_cursor < warm->size()) {
        const PeelHintEntry& entry = (*warm)[hint_cursor];
        Utility h = entry.level;
        if (entry.completion >= 0.0) {
          const Utility repriced =
              hint_job->utility->value(std::min(entry.completion, horizon));
          if (repriced > 0.0) h = repriced;
        }
        // A hint outside the bracket still carries information — the level
        // moved at least to the edge — so clamp it one tolerance step
        // inside instead of discarding it.  A clamped-high hint that probes
        // feasible resolves a near-cap layer in one probe where the grid
        // alone pays full k-section rounds.
        h = std::max(h, level_floor);
        if (h >= hi) {
          h = hi * (1.0 - config.tolerance);
        } else if (h <= lo && lo > 0.0) {
          h = std::min(lo * (1.0 + config.tolerance), 0.5 * (lo + hi));
        }
        if (h > lo && h < hi) hint_level = h;
      }
    }

    // Cap decision.  A hinted layer root-finds its level first and learns
    // the cap's feasibility on the way; every other layer opens with the
    // cap probe.  Either way [lo, hi] then brackets the level: lo proven
    // feasible, hi proven infeasible (or the cap itself).
    bool cap_feasible = false;
    if (hint_level > 0.0 && !degenerate_cap) {
      // Root-find the level from the hint using slack-valued probes.  A
      // boolean probe only halves the bracket, so any search over it costs
      // log(drift / tolerance) probes — but the EDF walk already knows *how
      // far* the probed level is from binding.  The minimum slack is a
      // monotone decreasing, piecewise-smooth function of the level with
      // the layer's max-min level as its root, so a secant step through the
      // last two probes lands near the root in one shot regardless of how
      // far the level drifted since the previous pass.  Feasible probes
      // raise `lo`, infeasible ones lower `hi`, exactly like the boolean
      // search, so a bad step can only tighten the bracket; a midpoint
      // fallback guards secant stalls (equal or infinite slacks) and a
      // probe budget hands any pathological layer to the grid loop below.
      // Once both endpoints carry slack values the step switches to false
      // position with the Illinois anti-stall rule (halve the retained
      // endpoint's slack when two probes land on the same side) — plain
      // secant converges to the root one-sided, pinning one endpoint and
      // leaving the bracket wider than tolerance indefinitely.
      // In the steady state this is two probes: the hint is feasible and
      // one tolerance step above it is not.  The cap probe is skipped:
      // extrapolation past the cap probes the cap itself, and a bracket
      // that never reaches it proves the cap infeasible by monotonicity.
      bool cap_decided = false;
      // The bracket is resolved once it satisfies the grid's own
      // termination condition (relative width within tolerance, or
      // collapsed below any meaningful utility).
      const auto resolved = [&] {
        return hi - lo <= config.tolerance * std::max(hi, 1e-3) || hi <= 1e-12;
      };
      // Level at which job j's deadline crosses absolute time t: its
      // deadline is U^{-1}(L) - R_j, so the crossing level is U(t + R_j).
      const auto crossing_level = [&](const TasJob& j, Seconds t) {
        return j.utility->value(t + j.avg_task_runtime);
      };
      bool hi_is_cap = true;  // `hi` not yet established by a probe
      double f_lo = std::numeric_limits<double>::quiet_NaN();  // slack at lo
      double f_hi = std::numeric_limits<double>::quiet_NaN();  // slack at hi
      int last_side = 0;  // +1 last probe feasible, -1 infeasible
      const auto note = [&](Utility level, double s) {
        if (slack_feasible(s)) {
          lo = level;
          f_lo = std::max(s, 0.0);  // keep the sign separation exact
          if (last_side > 0 && std::isfinite(f_hi)) f_hi *= 0.5;
          last_side = 1;
        } else {
          hi = level;
          f_hi = s;
          hi_is_cap = false;
          if (last_side < 0 && std::isfinite(f_lo)) f_lo *= 0.5;
          last_side = -1;
        }
      };
      // Index of the active job whose deadline is the current binding
      // constraint (kNoIndex when the binding deadline belongs to a peeled
      // job, whose deadline no probe can move).
      const auto binding_job = [&](Seconds binding) -> std::size_t {
        if (!scratch.complete) return kNoIndex;
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (scratch.deadlines[i] == binding) return i;
        }
        return kNoIndex;
      };
      if (hint_level >= level_cap * (1.0 - 2.0 * config.tolerance)) {
        // A hint at or next to the cap: open with the cap probe, exactly as
        // a hint-less layer does.  Probing the clamped hint first pays one
        // extra probe whenever the cap turns out feasible — the hint probe
        // resolves the bracket but leaves the cap undecided, and the settle
        // probe below re-asks what the cap probe answers directly.
        hint_level = level_cap;
      }
      double prev_level = hint_level;
      double prev_slack = probe(hint_level);
      if (hint_level == level_cap) {
        cap_decided = true;
        cap_feasible = slack_feasible(prev_slack);
      }
      note(hint_level, prev_slack);
      double cur_level = prev_level;
      double cur_slack = prev_slack;
      Seconds cur_binding = scratch.binding;
      std::size_t cur_unreachable = scratch.first_unreachable;
      std::size_t cur_bind_job = binding_job(cur_binding);
      int same_side = 0;  // consecutive probes on one side of the root
      for (int guard = 0; !resolved() && guard < 16; ++guard) {
        double next = std::numeric_limits<double>::quiet_NaN();
        const bool cur_feasible = slack_feasible(cur_slack);
        if (!std::isfinite(cur_slack)) {
          // Unreachable level: chase down to the blocking job's maximum
          // achievable level (the level whose deadline lands exactly at
          // `now`).
          if (cur_unreachable != kNoIndex && cur_unreachable < active.size()) {
            next = crossing_level(*active[cur_unreachable].job, now) *
                   (1.0 - 0.25 * config.tolerance);
          }
        } else if (cur_bind_job != kNoIndex) {
          // Newton step in DEADLINE space.  Between deadline reorderings the
          // binding constraint's slack is exactly linear in its own deadline
          // with slope = capacity, so the deadline that zeroes it is
          // d' = d_b - s/C; map it back to a level through the binding
          // job's utility curve.  (Level space is exponentially warped on
          // sigmoid tails — value-based interpolation crawls there, this
          // does not.)  The step is floored at one tolerance so near-root
          // steps double as the certification probes resolved() needs.
          const Seconds d_target =
              cur_binding - cur_slack / static_cast<double>(capacity);
          next = crossing_level(*active[cur_bind_job].job, d_target);
          if (cur_feasible) {
            next = std::max(next, cur_level * (1.0 + config.tolerance));
          } else {
            next = std::min(next, cur_level / (1.0 + config.tolerance));
          }
        } else {
          // Binding constraint sits at a peeled job's fixed deadline: the
          // slack is piecewise-FLAT in the level and value-based root
          // finding degenerates to bisection.  But the breakpoints are
          // known in closed form — the slack changes exactly when some
          // active job's deadline crosses the binding deadline, at level
          // U_j(d_b + R_j) — so jump to the nearest breakpoint and
          // certify it with a probe half a tolerance step on each side.
          if (cur_feasible) {
            double c = std::numeric_limits<double>::infinity();
            for (const ActiveJob& a : active) {
              const double x = crossing_level(*a.job, cur_binding);
              if (x > cur_level && x < c) c = x;
            }
            if (std::isfinite(c)) {
              next = c * (1.0 + 0.5 * config.tolerance);
              // Breakpoint at/above a probed-infeasible hi: certify from
              // below instead.
              if (!hi_is_cap && !(next < hi)) next = c * (1.0 - 0.5 * config.tolerance);
            }
          } else {
            double c = -std::numeric_limits<double>::infinity();
            for (const ActiveJob& a : active) {
              const double x = crossing_level(*a.job, cur_binding);
              if (x < cur_level && x > c) c = x;
            }
            if (std::isfinite(c)) next = c * (1.0 - 0.5 * config.tolerance);
          }
        }
        // Three probes in a row on the same side means the model steps are
        // stalling against one endpoint — force a bisection to guarantee
        // geometric bracket progress.
        if (same_side >= 3 && !(hi_is_cap && !(next < hi))) {
          next = 0.5 * (lo + hi);
        }
        if (!(next > lo && next < hi)) {
          if (std::isfinite(f_lo) && std::isfinite(f_hi) && f_hi != f_lo) {
            // Both endpoints carry (Illinois-adjusted) slacks: false
            // position stays inside the bracket and cannot stall one-sided.
            next = (lo * f_hi - hi * f_lo) / (f_hi - f_lo);
          } else if (std::isfinite(cur_slack) && std::isfinite(prev_slack) &&
                     cur_slack != prev_slack) {
            next = cur_level - cur_slack * (cur_level - prev_level) /
                                   (cur_slack - prev_slack);
          } else {
            next = std::numeric_limits<double>::quiet_NaN();
          }
        }
        if (hi_is_cap && !(next < hi)) {
          // Extrapolated past the cap (or no step available with every
          // probe so far feasible): settle the cap with one probe, the one
          // a hint-less layer opens with.
          const double s = probe(hi);
          cap_decided = true;
          cap_feasible = slack_feasible(s);
          note(hi, s);
          if (cap_feasible) break;
          same_side = slack_feasible(s) == cur_feasible ? same_side + 1 : 0;
          prev_level = cur_level;
          prev_slack = cur_slack;
          cur_level = hi;
          cur_slack = s;
          cur_binding = scratch.binding;
          cur_unreachable = scratch.first_unreachable;
          cur_bind_job = binding_job(cur_binding);
          continue;
        }
        if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
        // Never probe below the grid's terminal level (see
        // level_floor above); hi >= level_floor always, so the clamp
        // keeps the probe inside the bracket.
        next = std::max(next, level_floor);
        const double s = probe(next);
        note(next, s);
        same_side = slack_feasible(s) == cur_feasible ? same_side + 1 : 0;
        prev_level = cur_level;
        prev_slack = cur_slack;
        cur_level = next;
        cur_slack = s;
        cur_binding = scratch.binding;
        cur_unreachable = scratch.first_unreachable;
        cur_bind_job = binding_job(cur_binding);
      }
      if (hi_is_cap && !cap_decided) {
        // Every probe so far was feasible and below the cap (e.g. a clamped
        // near-cap hint that resolved the bracket in one probe).  A
        // hint-less layer always decides the cap, and the distinction
        // matters beyond the level: a feasible cap peels the *capped* job,
        // not whichever job the bottleneck scan at an unprobed-but-feasible
        // `hi` would misattribute.  Settle it with the cap probe.
        const double s = probe(hi);
        cap_decided = true;
        cap_feasible = slack_feasible(s);
        note(hi, s);
      }
      if (resolved()) ++result.warm_layers;
    } else {
      cap_feasible = slack_feasible(probe(level_cap));
    }

    if (cap_feasible || degenerate_cap) {
      // The capped job already sits at its achievable maximum: peel it at
      // the best feasible level and continue the lexicographic climb with
      // the rest.
      level_feasible = cap_feasible ? level_cap : level_feasible;
      peel_job(cap_index, level_feasible);
      continue;
    }

    // k-section on [level_feasible, level_cap] (Algorithm 3 inner loop;
    // k = 1 is the printed bisection).  Each round splits the bracket at k
    // interior grid levels and keeps [largest feasible, smallest
    // infeasible]; feasibility is monotone non-increasing in the level, so
    // each round shrinks the bracket by (k+1)x.  A grid level is answered
    // from [lo, hi] when it falls outside it (at or below the proven-
    // feasible lo => feasible, at or above the proven-infeasible hi =>
    // infeasible), and probed only strictly inside it; the probe then
    // tightens [lo, hi].  So a round stops at its first infeasible level,
    // and after a hinted root find, whose [lo, hi] is already tolerance-
    // tight, at most a couple of grid levels per round cost a probe.  The
    // grid itself never depends on the hint, so neither do the level, the
    // peeled deadline or the bottleneck: a stale hint costs probes, never
    // accuracy.  The tolerance is relative to the shrinking bracket: with
    // an absolute Delta, a feasible region near zero utility (steep
    // sigmoids long past their budget) would be skipped entirely and the
    // job dumped at the horizon; the geometric descent keeps resolving
    // until the bracket is tight in *ratio* (or collapses below any
    // meaningful utility).
    Utility grid_lo = level_feasible;
    Utility grid_hi = level_cap;
    while (grid_hi - grid_lo > config.tolerance * std::max(grid_hi, 1e-3) &&
           grid_hi > 1e-12) {
      const auto grid_level = [base = grid_lo, width = grid_hi - grid_lo](int j) {
        return base + width * static_cast<double>(j + 1) / static_cast<double>(k + 1);
      };
      int first_bad = 0;  // grid levels below it are feasible
      for (; first_bad < k; ++first_bad) {
        const Utility g = grid_level(first_bad);
        if (g <= lo) continue;
        if (g >= hi) break;
        if (!slack_feasible(probe(g))) {
          hi = g;
          break;
        }
        lo = g;
      }
      const Utility prev_lo = grid_lo;
      const Utility prev_hi = grid_hi;
      if (first_bad > 0) grid_lo = grid_level(first_bad - 1);
      if (first_bad < k) grid_hi = grid_level(first_bad);
      if (grid_lo == prev_lo && grid_hi == prev_hi) break;  // bracket exhausted numerically
    }
    level_feasible = grid_lo;

    // Bottleneck detection: probe the last infeasible grid level and find
    // the first violated EDF constraint; the active job with the latest
    // deadline inside that violating prefix is the one that cannot improve
    // further.  The buffer usually still holds that probe's deadlines and
    // sorted pairs; otherwise (grid_hi was set in an earlier round, or is
    // the cap and was probed before the grid) it is recomputed once,
    // uncounted.
    if (scratch.layer_epoch != layer_epoch || scratch.level != grid_hi) {
      probe_level(active, peeled, capacity, now, horizon, grid_hi, layer_epoch, scratch);
    }
    std::size_t bottleneck = cap_index;  // numerical fallback
    if (!scratch.complete) {
      bottleneck = scratch.first_unreachable;
    } else {
      const Seconds violation = first_edf_violation(scratch.pairs, peeled, capacity, now);
      const Seconds violated_at = violation == kNoViolation ? horizon : violation;
      Seconds best = -1.0;
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (scratch.deadlines[i] <= violated_at + 1e-12 && scratch.deadlines[i] > best) {
          best = scratch.deadlines[i];
          bottleneck = i;
        }
      }
    }
    peel_job(bottleneck, level_feasible);
  }

  return result;
}

}  // namespace rush
