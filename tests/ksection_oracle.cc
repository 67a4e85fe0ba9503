#include "tests/ksection_oracle.h"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>

namespace rush {
namespace {

constexpr int kProbesPerRound = 4;
constexpr double kSlack = 1e-9;
constexpr Seconds kInfinity = std::numeric_limits<Seconds>::infinity();
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

/// One feasibility probe: every active job's deadline at the level, and the
/// first EDF constraint they violate.
struct Probe {
  std::vector<Seconds> deadlines;  // per active job; empty past `blocked`
  std::size_t blocked = kNone;     // first job that cannot reach the level
  Seconds violation = kInfinity;   // first violated deadline

  bool feasible() const { return blocked == kNone && violation == kInfinity; }
};

}  // namespace

TasResult ksection_peel(const std::vector<TasJob>& jobs, ContainerCount capacity,
                        Seconds now, double tolerance) {
  TasResult result;
  std::vector<const TasJob*> active;
  ContainerSeconds total_eta = 0.0;
  Seconds max_runtime = 0.0;
  for (const TasJob& job : jobs) {
    if (job.eta <= 0.0) {
      TasTarget t;
      t.id = job.id;
      t.mapping_deadline = now;
      t.target_completion = now;
      t.utility_level = job.utility->value(now);
      result.targets.push_back(t);
      continue;
    }
    active.push_back(&job);
    total_eta += job.eta;
    max_runtime = std::max(max_runtime, job.avg_task_runtime);
  }
  const Seconds horizon =
      now + 2.0 * (total_eta / static_cast<double>(capacity) + max_runtime) + 1.0;
  result.horizon = horizon;

  // Peeled (deadline, eta), ascending by deadline; equal deadlines stay in
  // peel order.
  std::vector<std::pair<Seconds, ContainerSeconds>> peeled;

  const auto deadline_at = [&](const TasJob& job, Utility level) {
    Seconds d = job.utility->inverse(level, horizon);
    if (d == -kInfinity) return -kInfinity;
    d -= job.avg_task_runtime;
    return d < now ? -kInfinity : d;
  };

  const auto probe_at = [&](Utility level) {
    Probe probe;
    std::vector<std::pair<Seconds, ContainerSeconds>> due;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Seconds d = deadline_at(*active[i], level);
      if (d == -kInfinity) {
        probe.blocked = i;
        return probe;
      }
      probe.deadlines.push_back(d);
      due.emplace_back(d, active[i]->eta);
    }
    std::sort(due.begin(), due.end());
    // Every distinct deadline of active or peeled demand is a constraint:
    // the demand due by it must fit in capacity * (d - now).
    std::vector<Seconds> cuts;
    for (const auto& [d, eta] : due) cuts.push_back(d);
    for (const auto& [d, eta] : peeled) cuts.push_back(d);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    ContainerSeconds active_load = 0.0;
    ContainerSeconds peeled_load = 0.0;
    std::size_t a = 0;
    std::size_t p = 0;
    for (const Seconds cut : cuts) {
      while (a < due.size() && due[a].first <= cut) active_load += due[a++].second;
      while (p < peeled.size() && peeled[p].first <= cut) peeled_load += peeled[p++].second;
      if (active_load + peeled_load > capacity * (cut - now) + kSlack) {
        probe.violation = cut;
        break;
      }
    }
    return probe;
  };

  int layer = 0;
  const auto peel = [&](std::size_t index, Utility level) {
    const TasJob& job = *active[index];
    const Seconds d = deadline_at(job, level);
    TasTarget t;
    t.id = job.id;
    t.mapping_deadline = d;
    t.target_completion = std::min(d + job.avg_task_runtime, horizon);
    t.utility_level = level;
    t.layer = layer++;
    t.impossible = job.utility->value(t.target_completion) <= 0.0;
    result.targets.push_back(t);
    const auto at = std::upper_bound(
        peeled.begin(), peeled.end(), d,
        [](Seconds x, const std::pair<Seconds, ContainerSeconds>& e) { return x < e.first; });
    peeled.insert(at, {d, job.eta});
    active.erase(active.begin() + static_cast<std::ptrdiff_t>(index));
  };

  ++result.probes;
  probe_at(0.0);  // level 0, which the automatic horizon makes feasible
  Utility level_feasible = 0.0;
  while (!active.empty()) {
    Utility cap = kInfinity;
    std::size_t cap_index = 0;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const Utility best = active[i]->utility->value(now);
      if (best < cap) {
        cap = best;
        cap_index = i;
      }
    }
    ++result.probes;
    const bool cap_feasible = probe_at(cap).feasible();
    if (cap_feasible || cap <= level_feasible + tolerance * std::max(cap, 1e-3)) {
      if (cap_feasible) level_feasible = cap;
      peel(cap_index, level_feasible);
      continue;
    }

    Utility lo = level_feasible;
    Utility hi = cap;
    while (hi - lo > tolerance * std::max(hi, 1e-3) && hi > 1e-12) {
      const Utility width = hi - lo;
      Utility levels[kProbesPerRound];
      bool ok[kProbesPerRound];
      for (int j = 0; j < kProbesPerRound; ++j) {
        levels[j] = lo + width * static_cast<double>(j + 1) /
                             static_cast<double>(kProbesPerRound + 1);
        ok[j] = probe_at(levels[j]).feasible();
      }
      result.probes += kProbesPerRound;
      int best_ok = -1;
      for (int j = 0; j < kProbesPerRound; ++j) {
        if (ok[j]) best_ok = j;
      }
      int first_bad = kProbesPerRound;
      for (int j = kProbesPerRound - 1; j > best_ok; --j) {
        if (!ok[j]) first_bad = j;
      }
      const Utility prev_lo = lo;
      const Utility prev_hi = hi;
      if (best_ok >= 0) lo = levels[best_ok];
      if (first_bad < kProbesPerRound) hi = levels[first_bad];
      if (lo == prev_lo && hi == prev_hi) break;
    }
    level_feasible = lo;

    // Bottleneck: at the last infeasible level, the active job with the
    // latest deadline inside the first violated prefix.
    const Probe at_hi = probe_at(hi);
    std::size_t bottleneck = cap_index;
    if (at_hi.blocked != kNone) {
      bottleneck = at_hi.blocked;
    } else {
      const Seconds limit = at_hi.violation == kInfinity ? horizon : at_hi.violation;
      Seconds latest = -1.0;
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (at_hi.deadlines[i] <= limit + 1e-12 && at_hi.deadlines[i] > latest) {
          latest = at_hi.deadlines[i];
          bottleneck = i;
        }
      }
    }
    peel(bottleneck, level_feasible);
  }
  return result;
}

}  // namespace rush
