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
/// Interior probe levels per k-section round.  1 would be the paper's plain
/// bisection; k probes shrink the bracket by (k+1)x per round.  The hinted
/// search replays this grid exactly (DESIGN.md §5d), so k is part of the
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

/// Caller-owned state of one probe lane, one per k-section probe index.
/// Its previous contents are reused two ways: the
/// sorted order of the last probe seeds the next probe's sort (consecutive
/// levels move deadlines smoothly, so the order is usually already right
/// and the sort degenerates to an O(n) insertion pass), and the bottleneck
/// step reuses the lane that probed the last infeasible level instead of
/// recomputing every deadline from scratch.
struct ProbeScratch {
  /// (deadline, eta) of the active jobs, sorted — what the EDF walk reads.
  DeadlineDemand pairs;
  /// Active-job indices in the order `pairs` was last built.  Carried
  /// across layers: peeling a job drops its index (drop_from_order) and
  /// keeps the survivors' order.
  std::vector<std::uint32_t> order;
  /// Deadline per active index at `level` (kUnreachable allowed).
  std::vector<Seconds> deadlines;
  /// Level this lane last probed, and the layer it was probed in.
  Utility level = 0.0;
  std::uint64_t layer_epoch = static_cast<std::uint64_t>(-1);
  /// First active index whose deadline was unreachable (kNoIndex if none);
  /// when set, `deadlines` past it and `pairs` are not populated.
  std::size_t first_unreachable = kNoIndex;
  bool complete = false;
};

/// Deadline of job `a` for utility level L, compensated by R_i when asked.
/// Returns kUnreachable when L cannot be achieved at any time >= now.
Seconds deadline_for_level(const ActiveJob& a, Utility level, Seconds now, Seconds horizon,
                           bool compensate) {
  Seconds d = a.job->utility->inverse_known_horizon(level, horizon, a.at_horizon);
  if (d == kUnreachable) return kUnreachable;
  if (compensate) d -= a.job->avg_task_runtime;
  if (d < now) return kUnreachable;  // cannot finish in the past
  return d;
}

/// Removes active index `gone` from a lane's carried order and renumbers
/// the indices above it, matching an erase from the active set.  The
/// survivors keep their relative order, so the next layer's first probe
/// repairs the order it ended on instead of sorting from the identity.  A
/// lane whose order does not cover the active set is left alone; its next
/// probe resets it.
void drop_from_order(ProbeScratch& lane, std::size_t active_size, std::uint32_t gone) {
  std::vector<std::uint32_t>& order = lane.order;
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
/// kNoViolation when every constraint holds.
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
/// minimum stays above -kEdfSlack — the same comparisons first_edf_violation
/// makes, just without the early exit — and its magnitude tells the
/// warm-start root finder how far the probed level sits from binding.
/// `binding` (optional) receives the deadline attaining the minimum.
double edf_min_slack(const DeadlineDemand& active, const PeeledSet& peeled,
                     ContainerCount capacity, Seconds now, Seconds* binding) {
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
  if (binding != nullptr) *binding = min_deadline;
  return min_slack;
}

/// Feasibility of utility level `level`: every active job gets deadline
/// U^{-1}(level) (compensated); check the EDF condition over active +
/// peeled demand.  Pure apart from `scratch`, the caller-owned per-lane
/// buffer.
bool probe_level(const ActiveSet& active, const PeeledSet& peeled,
                 ContainerCount capacity, Seconds now, Seconds horizon,
                 bool compensate, Utility level, std::uint64_t layer_epoch,
                 ProbeScratch& scratch) {
  const std::size_t n = active.size();
  scratch.level = level;
  scratch.layer_epoch = layer_epoch;
  scratch.first_unreachable = kNoIndex;
  scratch.complete = false;
  scratch.deadlines.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Seconds d = deadline_for_level(active[i], level, now, horizon, compensate);
    scratch.deadlines[i] = d;
    if (d == kUnreachable) {
      scratch.first_unreachable = i;
      return false;
    }
  }
  scratch.complete = true;
  sort_deadlines(active, scratch);
  return first_edf_violation(scratch.pairs, peeled, capacity, now) == kNoViolation;
}

/// Slack-valued variant of probe_level for the warm-start root finder:
/// returns the minimum EDF slack at `level` (-infinity when the level is
/// unreachable for some active job — `scratch.first_unreachable` then names
/// the job).  `binding` receives the binding deadline (kNoViolation when
/// unreachable).  Fills `scratch` identically to probe_level.
double probe_level_slack(const ActiveSet& active,
                         const PeeledSet& peeled, ContainerCount capacity,
                         Seconds now, Seconds horizon, bool compensate,
                         Utility level, std::uint64_t layer_epoch,
                         ProbeScratch& scratch, Seconds* binding) {
  const std::size_t n = active.size();
  scratch.level = level;
  scratch.layer_epoch = layer_epoch;
  scratch.first_unreachable = kNoIndex;
  scratch.complete = false;
  scratch.deadlines.resize(n);
  if (binding != nullptr) *binding = kNoViolation;
  for (std::size_t i = 0; i < n; ++i) {
    const Seconds d = deadline_for_level(active[i], level, now, horizon, compensate);
    scratch.deadlines[i] = d;
    if (d == kUnreachable) {
      scratch.first_unreachable = i;
      return -std::numeric_limits<double>::infinity();
    }
  }
  scratch.complete = true;
  sort_deadlines(active, scratch);
  return edf_min_slack(scratch.pairs, peeled, capacity, now, binding);
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

  Seconds horizon = config.horizon;
  if (horizon <= now) {
    // Time to drain all demand at full capacity, plus the longest task to
    // settle — doubled for slack.  ContainerSeconds / Containers -> Seconds
    // is the typed form of the old raw division (same fp ops, same order).
    const units::Seconds drain_and_settle =
        total_eta / units::Containers(capacity) + units::Seconds(max_runtime);
    horizon = now + (2.0 * drain_and_settle).value() + 1.0;
  }
  result.horizon = horizon;
  for (ActiveJob& a : active) {
    a.at_now = a.job->utility->value(now);
    a.at_horizon = a.job->utility->value(horizon);
  }
  result.hint.reserve(active.size());

  PeeledSet peeled;
  constexpr int k = kSectionProbes;
  // One scratch buffer per probe lane: lane j of a round touches only
  // scratch[j] and level_ok[j].
  std::vector<ProbeScratch> scratch(static_cast<std::size_t>(k));
  std::vector<Utility> levels(static_cast<std::size_t>(k));
  std::vector<unsigned char> level_ok(static_cast<std::size_t>(k));
  // Stamps each lane's stash with the layer that produced it, so the
  // bottleneck step never trusts a leftover from an earlier (larger)
  // active set.
  std::uint64_t layer_epoch = 0;

  const auto feasible = [&](Utility level) {
    ++result.probes;
    return probe_level(active, peeled, capacity, now, horizon,
                       config.compensate_runtime, level, layer_epoch, scratch[0]);
  };

  // Level 0 is always feasible with the automatic horizon: every inverse
  // returns `horizon` (utilities are non-negative) and total demand fits.
  Utility level_feasible = 0.0;
  ensure(feasible(level_feasible), "onion_peel: zero utility level infeasible; horizon too small");

  const auto peel_job = [&](std::size_t index, Utility level) {
    const TasJob& job = *active[index].job;
    const Seconds d =
        deadline_for_level(active[index], level, now, horizon, config.compensate_runtime);
    ensure(d != kUnreachable, "onion_peel: peeling at unreachable level");
    TasTarget t;
    t.id = job.id;
    t.mapping_deadline = d;
    t.target_completion =
        config.compensate_runtime ? std::min(d + job.avg_task_runtime, horizon) : d;
    t.utility_level = level;
    t.layer = layer;
    t.impossible = job.utility->value(t.target_completion) <= 0.0;
    result.targets.push_back(t);
    result.hint.push_back({job.id, level, t.target_completion});
    peeled.insert(d, job.eta);
    for (ProbeScratch& lane : scratch) {
      drop_from_order(lane, active.size(), static_cast<std::uint32_t>(index));
    }
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(index));
  };

  const PeelHint* warm = config.warm_hint;
  std::size_t hint_cursor = 0;
  const auto find_active = [&](JobId id) -> const TasJob* {
    for (const ActiveJob& a : active) {
      if (a.job->id == id) return a.job;
    }
    return nullptr;
  };

  // Layer replay (DESIGN.md §5h): carry an unchanged prefix of the previous
  // pass's layers over verbatim, certify the whole prefix with one
  // feasibility probe, and re-peel only from the first layer whose
  // membership can change given which etas moved.  Replayed jobs erased
  // from `active` make the warm-hint cursor skip their hints automatically,
  // so hints and surviving layers stay aligned.
  const PeelReplay* replay = config.replay;
  if (replay != nullptr && replay->targets != nullptr &&
      !replay->targets->empty() && replay->tolerance > 0.0 && !active.empty()) {
    const auto moved = [&](JobId id) {
      return replay->moved != nullptr &&
             std::binary_search(replay->moved->begin(), replay->moved->end(), id);
    };
    // An arrival since the previous pass adds demand to every layer's
    // constraint set: replay only when each currently active job had a
    // layer last pass.  Departures are fine — demand leaving only loosens
    // the EDF constraints — so their layers are simply skipped below.
    std::vector<JobId> prev_ids;
    prev_ids.reserve(replay->targets->size());
    for (const TasTarget& t : *replay->targets) prev_ids.push_back(t.id);
    std::sort(prev_ids.begin(), prev_ids.end());
    bool known = true;
    for (const ActiveJob& a : active) {
      if (!std::binary_search(prev_ids.begin(), prev_ids.end(), a.job->id)) {
        known = false;
        break;
      }
    }
    if (known) {
      struct Tentative {
        std::size_t index;
        Utility level;
        Seconds deadline;
      };
      std::vector<Tentative> prefix;
      PeeledSet tentative;
      std::vector<unsigned char> used(active.size(), 0);
      Utility run_level = level_feasible;
      for (const TasTarget& prev : *replay->targets) {
        if (moved(prev.id)) break;  // membership can change from here on
        std::size_t index = active.size();
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (used[i] == 0 && active[i].job->id == prev.id) {
            index = i;
            break;
          }
        }
        if (index == active.size()) continue;  // departed or zero-demand now
        const TasJob& job = *active[index].job;
        // Re-price the layer's level through its absolute completion time
        // (the coordinate that stays put across passes — see PeelHintEntry)
        // and clamp the lexicographic climb monotone.
        Utility level = prev.utility_level;
        if (prev.target_completion >= 0.0) {
          const Utility repriced =
              job.utility->value(std::min(prev.target_completion, horizon));
          if (repriced > 0.0) level = repriced;
        }
        level = std::max(level, run_level);
        const Seconds d = deadline_for_level(active[index], level, now, horizon,
                                             config.compensate_runtime);
        if (d == kUnreachable) break;  // carried level no longer achievable
        prefix.push_back({index, level, d});
        tentative.insert(d, job.eta);
        used[index] = 1;
        run_level = level;
      }
      if (!prefix.empty()) {
        // One certificate probe for the whole prefix: with the replayed
        // deadlines reserved, the prefix's final level must still be
        // feasible for the remaining jobs — the invariant every layer's
        // search establishes on the cold path, and what keeps audit_tas's
        // EDF condition intact on replayed results.  Infeasible => abandon
        // wholesale and peel everything.
        ActiveSet remaining;
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (used[i] == 0) remaining.push_back(active[i]);
        }
        ++result.probes;
        const bool certified =
            probe_level(remaining, tentative, capacity, now, horizon,
                        config.compensate_runtime, run_level, layer_epoch,
                        scratch[0]);
        if (certified) {
          for (const Tentative& p : prefix) {
            const TasJob& job = *active[p.index].job;
            TasTarget t;
            t.id = job.id;
            t.mapping_deadline = p.deadline;
            t.target_completion =
                config.compensate_runtime
                    ? std::min(p.deadline + job.avg_task_runtime, horizon)
                    : p.deadline;
            t.utility_level = p.level;
            t.layer = layer;
            t.impossible = job.utility->value(t.target_completion) <= 0.0;
            result.targets.push_back(t);
            result.hint.push_back({job.id, p.level, t.target_completion});
            ++layer;
          }
          peeled = std::move(tentative);
          level_feasible = run_level;
          result.replayed_layers = static_cast<long>(prefix.size());
          std::vector<std::size_t> erase_order;
          erase_order.reserve(prefix.size());
          for (const Tentative& p : prefix) erase_order.push_back(p.index);
          std::sort(erase_order.begin(), erase_order.end());
          for (std::size_t i = erase_order.size(); i > 0; --i) {
            active.erase(active.begin() +
                         static_cast<std::ptrdiff_t>(erase_order[i - 1]));
          }
        }
      }
    }
  }

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

    // Lowest level the cold path can ever probe in this layer: with no
    // feasible positive probe, its k-section divides the bracket width by
    // (k+1) from the cap until the width test passes, and stops there.  The
    // warm search must respect the same floor — a feasible probe *below* it
    // would raise `lo` where the cold path leaves it at the inherited
    // level, and near zero that tiny level difference maps to a hugely
    // different peeled deadline (a sigmoid's inverse of 1e-40 sits decades
    // past its inverse of 1e-6), deforming every later layer's constraint
    // set.  Replayed with cold's exact arithmetic so a floored probe reads
    // the EDF structure at bit-for-bit the cold terminal level.
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
        // feasible resolves a near-cap layer in one probe where the cold
        // bracket pays full k-section rounds.
        h = std::max(h, level_floor);
        if (h >= hi) {
          h = hi * (1.0 - config.tolerance);
        } else if (h <= lo && lo > 0.0) {
          h = std::min(lo * (1.0 + config.tolerance), 0.5 * (lo + hi));
        }
        if (h > lo && h < hi) hint_level = h;
      }
    }

    bool cap_feasible = false;
    bool cap_decided = false;
    // Set when the warm path has already reproduced the cold k-section's
    // final bracket exactly (see the grid replay below), so the k-section
    // loop must not run again.
    bool bracket_exact = false;
    // The bracket is resolved once it satisfies the k-section's own
    // termination condition (relative width within tolerance, or collapsed
    // below any meaningful utility).
    const auto resolved = [&] {
      return hi - lo <= config.tolerance * std::max(hi, 1e-3) || hi <= 1e-12;
    };
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
      // probe budget hands any pathological layer to the k-section below.
      // Once both endpoints carry slack values the step switches to false
      // position with the Illinois anti-stall rule (halve the retained
      // endpoint's slack when two probes land on the same side) — plain
      // secant converges to the root one-sided, pinning one endpoint and
      // leaving the bracket wider than tolerance indefinitely.
      // In the steady state this is two probes: the hint is feasible and
      // one tolerance step above it is not.  The cap probe is skipped:
      // extrapolation past the cap probes the cap itself, and a bracket
      // that never reaches it proves the cap infeasible by monotonicity.
      Seconds probe_binding = kNoViolation;
      const auto slack_probe = [&](Utility level) {
        ++result.probes;
        const double s =
            probe_level_slack(active, peeled, capacity, now, horizon,
                              config.compensate_runtime, level, layer_epoch,
                              scratch[0], &probe_binding);
        return s;
      };
      // Level at which job j's deadline crosses absolute time t: its
      // deadline is U^{-1}(L) - comp, so the crossing level is U(t + comp).
      const auto crossing_level = [&](const TasJob& j, Seconds t) {
        return j.utility->value(
            config.compensate_runtime ? t + j.avg_task_runtime : t);
      };
      const auto slack_feasible = [](double s) { return s >= -kEdfSlack; };
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
        if (!scratch[0].complete) return kNoIndex;
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (scratch[0].deadlines[i] == binding) return i;
        }
        return kNoIndex;
      };
      if (hint_level >= level_cap * (1.0 - 2.0 * config.tolerance)) {
        // A hint at or next to the cap: open with the cap probe, exactly as
        // the cold path does.  Probing the clamped hint first pays one
        // extra probe whenever the cap turns out feasible — the hint probe
        // resolves the bracket but leaves the cap undecided, and the settle
        // probe below re-asks what the cap probe answers directly.
        hint_level = level_cap;
      }
      double prev_level = hint_level;
      double prev_slack = slack_probe(hint_level);
      if (hint_level == level_cap) {
        cap_decided = true;
        cap_feasible = slack_feasible(prev_slack);
      }
      note(hint_level, prev_slack);
      double cur_level = prev_level;
      double cur_slack = prev_slack;
      Seconds cur_binding = probe_binding;
      std::size_t cur_unreachable = scratch[0].first_unreachable;
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
          // U_j(d_b + comp_j) — so jump to the nearest breakpoint and
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
          // probe so far feasible): settle the cap with one probe, as the
          // cold path would have started with.
          const double s = slack_probe(hi);
          cap_decided = true;
          cap_feasible = slack_feasible(s);
          note(hi, s);
          if (cap_feasible) break;
          same_side = slack_feasible(s) == cur_feasible ? same_side + 1 : 0;
          prev_level = cur_level;
          prev_slack = cur_slack;
          cur_level = hi;
          cur_slack = s;
          cur_binding = probe_binding;
          cur_unreachable = scratch[0].first_unreachable;
          cur_bind_job = binding_job(cur_binding);
          continue;
        }
        if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
        // Never probe below the cold path's terminal level (see
        // level_floor above); hi >= level_floor always, so the clamp
        // keeps the probe inside the bracket.
        next = std::max(next, level_floor);
        const double s = slack_probe(next);
        note(next, s);
        same_side = slack_feasible(s) == cur_feasible ? same_side + 1 : 0;
        prev_level = cur_level;
        prev_slack = cur_slack;
        cur_level = next;
        cur_slack = s;
        cur_binding = probe_binding;
        cur_unreachable = scratch[0].first_unreachable;
        cur_bind_job = binding_job(cur_binding);
      }
      if (hi_is_cap && !cap_decided) {
        // Every probe so far was feasible and below the cap (e.g. a clamped
        // near-cap hint that resolved the bracket in one probe).  The cold
        // path always decides the cap, and the distinction matters beyond
        // the level: a feasible cap peels the *capped* job, not whichever
        // job the bottleneck scan at an unprobed-but-feasible `hi` would
        // misattribute.  Settle it with the probe the cold path starts with.
        const double s = slack_probe(hi);
        cap_decided = true;
        cap_feasible = slack_feasible(s);
        note(hi, s);
      }
      if (resolved()) ++result.warm_layers;
      if (!(cap_decided && cap_feasible)) {
        // The search above certifies a bracket within tolerance of the
        // layer's max-min level, but "within tolerance" is not enough to
        // track the cold path: a tolerance-sized level difference on a flat
        // utility region moves the peeled *deadline* arbitrarily far, and
        // later layers amplify that shift through their EDF constraints
        // beyond any fixed envelope.  So the certified bracket is used only
        // as an oracle: replay the cold k-section's exact probe grid from
        // the original bracket, answering each grid level by monotonicity
        // when it falls outside the oracle (at or below a feasible level =>
        // feasible, at or above an infeasible one => infeasible) and paying
        // a real probe only for grid levels strictly inside it.  Grid
        // levels, round selection, and termination replicate the cold loop
        // bit-for-bit, so the replayed lo/hi — and with them the peeled
        // level, the peeled deadline, and the bottleneck probe — are
        // exactly the cold path's, at a fraction of the probes (the oracle
        // bracket is already tolerance-tight, so at most a couple of grid
        // levels per round land inside it).
        Utility rlo = level_feasible;
        Utility rhi = level_cap;
        while (rhi - rlo > config.tolerance * std::max(rhi, 1e-3) &&
               rhi > 1e-12) {
          const Utility width = rhi - rlo;
          for (int j = 0; j < k; ++j) {
            levels[static_cast<std::size_t>(j)] =
                rlo + width * static_cast<double>(j + 1) /
                          static_cast<double>(k + 1);
          }
          for (int j = 0; j < k; ++j) {
            const Utility g = levels[static_cast<std::size_t>(j)];
            unsigned char ok;
            if (g <= lo) {
              ok = 1;  // at or below a known-feasible level
            } else if (g >= hi) {
              ok = 0;  // at or above a known-infeasible level
            } else {
              const double s = slack_probe(g);
              note(g, s);  // tightens the oracle for the remaining grid
              ok = slack_feasible(s) ? 1 : 0;
            }
            level_ok[static_cast<std::size_t>(j)] = ok;
          }
          int best_ok = -1;
          for (int j = 0; j < k; ++j) {
            if (level_ok[static_cast<std::size_t>(j)] != 0) best_ok = j;
          }
          int first_bad = k;
          for (int j = k - 1; j > best_ok; --j) {
            if (level_ok[static_cast<std::size_t>(j)] == 0) first_bad = j;
          }
          const Utility prev_lo = rlo;
          const Utility prev_hi = rhi;
          if (best_ok >= 0) rlo = levels[static_cast<std::size_t>(best_ok)];
          if (first_bad < k) rhi = levels[static_cast<std::size_t>(first_bad)];
          if (rlo == prev_lo && rhi == prev_hi) break;
        }
        lo = rlo;
        hi = rhi;
        bracket_exact = true;
      }
    } else {
      cap_feasible = feasible(level_cap);
      cap_decided = true;
    }

    if ((cap_decided && cap_feasible) || degenerate_cap) {
      // The capped job already sits at its achievable maximum: peel it at
      // the best feasible level and continue the lexicographic climb with
      // the rest.
      const Utility level = cap_decided && cap_feasible ? level_cap : level_feasible;
      level_feasible = level;
      peel_job(cap_index, level);
      ++layer;
      if (warm != nullptr) ++hint_cursor;  // keep layers and hints aligned
      continue;
    }

    // k-section on [lo, hi] (Algorithm 3 inner loop; k = 1 is the printed
    // bisection).  Every round evaluates all k interior levels — no
    // short-circuit, so the probe schedule is the grid the hinted search
    // replays — and keeps the bracket [largest feasible, smallest
    // infeasible]; feasibility is monotone non-increasing in the level, so
    // each round shrinks the bracket by (k+1)x.  The tolerance is relative
    // to the shrinking bracket: with an absolute Delta, a feasible region
    // near zero utility (steep sigmoids long past their budget) would be
    // skipped entirely and the job dumped at the horizon; the geometric
    // descent keeps resolving until the bracket is tight in *ratio* (or
    // collapses below any meaningful utility).
    while (!bracket_exact &&
           hi - lo > config.tolerance * std::max(hi, 1e-3) && hi > 1e-12) {
      const Utility width = hi - lo;
      for (int j = 0; j < k; ++j) {
        levels[static_cast<std::size_t>(j)] =
            lo + width * static_cast<double>(j + 1) / static_cast<double>(k + 1);
      }
      result.probes += k;
      for (std::size_t j = 0; j < static_cast<std::size_t>(k); ++j) {
        level_ok[j] = probe_level(active, peeled, capacity, now, horizon,
                                  config.compensate_runtime, levels[j], layer_epoch,
                                  scratch[j])
                          ? 1
                          : 0;
      }
      int best_ok = -1;  // largest feasible probe index
      for (int j = 0; j < k; ++j) {
        if (level_ok[static_cast<std::size_t>(j)] != 0) best_ok = j;
      }
      int first_bad = k;  // smallest infeasible probe index above best_ok
      for (int j = k - 1; j > best_ok; --j) {
        if (level_ok[static_cast<std::size_t>(j)] == 0) first_bad = j;
      }
      const Utility prev_lo = lo;
      const Utility prev_hi = hi;
      if (best_ok >= 0) lo = levels[static_cast<std::size_t>(best_ok)];
      if (first_bad < k) hi = levels[static_cast<std::size_t>(first_bad)];
      if (lo == prev_lo && hi == prev_hi) break;  // bracket exhausted numerically
    }
    level_feasible = lo;

    // Bottleneck detection: probe just above the feasible level and find the
    // first violated EDF constraint; the active job with the latest deadline
    // inside that violating prefix is the one that cannot improve further.
    // The lane that established `hi` usually still holds that probe's
    // deadlines and sorted pairs — reuse them instead of recomputing every
    // inverse; a stale stash (hi set in an earlier round, or inherited from
    // the cap probe and overwritten since) falls back to one recomputation.
    std::size_t bottleneck = 0;
    {
      const Utility probe = hi;  // last infeasible level
      bool found = false;
      const ProbeScratch* stash = nullptr;
      for (const ProbeScratch& s : scratch) {
        if (s.layer_epoch == layer_epoch && s.level == probe) {
          stash = &s;
          break;
        }
      }
      if (stash == nullptr) {
        probe_level(active, peeled, capacity, now, horizon,
                    config.compensate_runtime, probe, layer_epoch, scratch[0]);
        stash = &scratch[0];
      }
      if (!stash->complete) {
        bottleneck = stash->first_unreachable;
        found = true;
      } else {
        const Seconds violation =
            first_edf_violation(stash->pairs, peeled, capacity, now);
        const Seconds violated_at = violation == kNoViolation ? horizon : violation;
        Seconds best = -1.0;
        for (std::size_t i = 0; i < active.size(); ++i) {
          if (stash->deadlines[i] <= violated_at + 1e-12 && stash->deadlines[i] > best) {
            best = stash->deadlines[i];
            bottleneck = i;
            found = true;
          }
        }
      }
      if (!found) bottleneck = cap_index;  // numerical fallback
    }

    peel_job(bottleneck, level_feasible);
    ++layer;
    if (warm != nullptr) ++hint_cursor;
  }

  return result;
}

}  // namespace rush
