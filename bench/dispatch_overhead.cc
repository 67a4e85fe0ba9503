// Scheduler-seam overhead bench — the batched/incremental dispatch path
// (DESIGN.md §5e) measured against the legacy per-container seam it
// replaced, on the same workloads.
//
// For each (scheduler, jobs, containers) point the same synthetic backlog
// runs twice, once per seam, with ClusterConfig::profile_seam accumulating
// the wall time of seam work only (view construction/refresh, scheduler
// notifications and assignment calls — launches and bookkeeping excluded,
// since they are identical in both modes).  The figure of merit is
// scheduler-side events/sec = scheduling_events / seam_seconds; because the
// two seams are bit-identical (tests/seam_batch_test.cc), the event counts
// agree and the ratio is purely the seam win.  The gain is algorithmic —
// the legacy seam builds an O(jobs) snapshot per scheduler call, the
// batched seam refreshes O(dirty) slots once per wave — so it holds on a
// 1-CPU host.
//
// Writes out/dispatch_overhead.csv and BENCH_dispatch.json (working
// directory; CI runs it from the repo root).
//
// RUSH points run with change-proportional planning on — replan elision
// plus layer replay (DESIGN.md §5h) at $RUSH_DISPATCH_ETA_TOL — and are
// additionally run a third time on the batched seam with elision off (mode
// "batched-replan").  Planning cost is identical in both seams, so it
// cancels out of the legacy/batched ratio; the RUSH speedup is therefore
// the events/sec ratio of the elision config over that always-replan
// baseline, and the new columns plans_elided_per_wave /
// layers_replayed_per_pass show where it comes from.
//
// Exit status: non-zero when a batched run builds any full snapshot on the
// dispatch path (views-built-per-wave must be 0, not merely <= 1), when a
// Fair batched seam is slower than the legacy seam at >= 100 jobs, when the
// Fair 200x48 seam speedup falls below $RUSH_DISPATCH_MIN_SPEEDUP (default
// 2.0), or when the RUSH 200x48 elision speedup falls below
// $RUSH_DISPATCH_MIN_RUSH_SPEEDUP.  Scale knobs: $RUSH_DISPATCH_SEED
// (default 4242), $RUSH_DISPATCH_REPEATS (default 1, best-of; points with
// >= 1000 jobs always run once), $RUSH_DISPATCH_LARGE_JOBS (default 10000;
// < 1000 drops the large grid), $RUSH_DISPATCH_ETA_TOL (default 0.15),
// $RUSH_BENCH_JSON.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "src/cluster/cluster.h"
#include "src/cluster/node.h"
#include "src/common/rng.h"
#include "src/core/rush_scheduler.h"
#include "src/experiments/experiment.h"
#include "src/metrics/csv.h"
#include "src/metrics/text_table.h"

namespace rush {
namespace {

double env_or(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0' ? std::atof(value) : fallback;
}

/// A contended backlog: arrivals spread over a window far shorter than the
/// total work, so most jobs stay active at once and the views the legacy
/// seam rebuilds per handout are as wide as the job count.  The 10k+ grid
/// stresses view *width*, not event count: per-job task counts shrink so
/// the legacy O(jobs)-per-handout cost stays measurable without the run
/// taking minutes.
std::vector<JobSpec> backlog_workload(int jobs, std::uint64_t seed) {
  Rng rng(seed);
  const bool large = jobs >= 1000;
  std::vector<JobSpec> specs;
  for (int j = 0; j < jobs; ++j) {
    JobSpec spec;
    spec.name = "job" + std::to_string(j);
    spec.arrival = rng.uniform(0.0, 2.0 * jobs);
    spec.budget = rng.uniform(500.0, 4000.0);
    spec.priority = rng.uniform(0.5, 3.0);
    spec.beta = 1.0;
    spec.utility_kind = "sigmoid";
    const int maps = large ? 3 + static_cast<int>(rng.uniform_int(0, 3))
                           : 10 + static_cast<int>(rng.uniform_int(0, 15));
    const int reduces = static_cast<int>(rng.uniform_int(0, large ? 1 : 4));
    for (int m = 0; m < maps; ++m) {
      spec.tasks.push_back(TaskSpec{rng.uniform(20.0, 120.0), false});
    }
    for (int r = 0; r < reduces; ++r) {
      spec.tasks.push_back(TaskSpec{rng.uniform(20.0, 90.0), true});
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

struct Point {
  const char* scheduler;
  int jobs;
  int containers;
};

struct ModeResult {
  RunResult run;
  double wall_ms = 0.0;
  long plans = 0;    // RUSH only: planning passes
  long elided = 0;   // RUSH only: waves served from the cached plan
  long replayed = 0; // RUSH only: peel layers replayed across passes
  double events_per_sec() const {
    return run.seam_seconds > 0.0
               ? static_cast<double>(run.scheduling_events) / run.seam_seconds
               : 0.0;
  }
};

/// RUSH tunables of the bench: the change-proportional planning pipeline
/// (DESIGN.md §5h) with an elision tolerance from $RUSH_DISPATCH_ETA_TOL
/// (relative eta drift, default 0.15), and the WCDE cache on — the
/// configuration whose dispatch cost the RUSH gates defend.
RushConfig bench_rush_config() {
  RushConfig config;
  config.replan_elision = true;
  config.replan_eta_tolerance = env_or("RUSH_DISPATCH_ETA_TOL", 0.15);
  return config;
}

/// The pre-elision planner: a full WCDE+peel+map pass on every dirty wave —
/// the baseline the RUSH speedup gate measures change-proportional planning
/// against.
RushConfig replan_rush_config() {
  RushConfig config = bench_rush_config();
  config.replan_elision = false;
  config.replan_eta_tolerance = 0.0;
  return config;
}

ModeResult run_point(const Point& point, bool batched, std::uint64_t seed,
                     const RushConfig& rush_config) {
  ClusterConfig config;
  config.nodes = homogeneous_nodes(point.containers / 8, 8);
  config.runtime_noise_sigma = 0.25;
  config.seed = seed + 17;
  config.batched_dispatch = batched;
  config.audit_incremental_view = false;  // never measure the audits
  config.profile_seam = true;

  const auto scheduler = make_named_scheduler(point.scheduler, rush_config);
  Cluster cluster(config, *scheduler);
  for (JobSpec spec : backlog_workload(point.jobs, seed)) {
    cluster.submit(std::move(spec));
  }
  ModeResult mode;
  const auto start = std::chrono::steady_clock::now();
  mode.run = cluster.run();
  const auto stop = std::chrono::steady_clock::now();
  mode.wall_ms = std::chrono::duration<double, std::milli>(stop - start).count();
  if (!mode.run.completed) {
    std::fprintf(stderr, "dispatch_overhead: %s %dx%d (%s) did not drain\n",
                 point.scheduler, point.jobs, point.containers,
                 batched ? "batched" : "legacy");
    std::exit(2);
  }
  if (const auto* r = dynamic_cast<const RushScheduler*>(scheduler.get())) {
    const PlanStats stats = r->plan_stats();
    mode.plans = r->plans_computed();
    mode.elided = stats.plans_elided;
    mode.replayed = stats.layers_replayed;
  }
  return mode;
}

/// Best seam time over `repeats` runs (identical simulations; repeats only
/// damp timer noise on loaded hosts).
ModeResult best_of(const Point& point, bool batched, std::uint64_t seed,
                   int repeats, const RushConfig& rush_config) {
  ModeResult best = run_point(point, batched, seed, rush_config);
  for (int r = 1; r < repeats; ++r) {
    ModeResult next = run_point(point, batched, seed, rush_config);
    if (next.run.seam_seconds < best.run.seam_seconds) best = std::move(next);
  }
  return best;
}

}  // namespace
}  // namespace rush

int main() {
  using rush::ModeResult;
  using rush::Point;
  using rush::TextTable;

  const auto seed =
      static_cast<std::uint64_t>(rush::env_or("RUSH_DISPATCH_SEED", 4242.0));
  const int repeats =
      std::max(1, static_cast<int>(rush::env_or("RUSH_DISPATCH_REPEATS", 1.0)));
  const double min_speedup = rush::env_or("RUSH_DISPATCH_MIN_SPEEDUP", 2.0);
  const double min_rush_speedup =
      rush::env_or("RUSH_DISPATCH_MIN_RUSH_SPEEDUP", 1.5);
  const int large_jobs =
      static_cast<int>(rush::env_or("RUSH_DISPATCH_LARGE_JOBS", 10000.0));

  // Fair is the seam-bound policy (cheap per-handout rule, so view costs
  // dominate) and carries the seam gates, including the 10k-job grid where
  // the legacy O(jobs)-per-handout view cost is at its widest; the RUSH
  // points additionally exercise change-proportional planning — replan
  // elision plus layer replay (DESIGN.md §5h) — and carry their own
  // speedup gate.
  std::vector<Point> points = {{"Fair", 50, 16},
                               {"Fair", 100, 48},
                               {"Fair", 200, 48},
                               {"RUSH", 50, 16},
                               {"RUSH", 200, 48}};
  if (large_jobs >= 1000) points.push_back({"Fair", large_jobs, 48});

  const std::string csv_path = rush::output_path("dispatch_overhead.csv");
  rush::CsvWriter csv(csv_path,
                      {"scheduler", "jobs", "containers", "mode", "events", "waves",
                       "full_views_built", "view_updates", "views_per_wave",
                       "plans_per_wave", "plans_elided_per_wave",
                       "layers_replayed_per_pass", "seam_ms", "events_per_sec",
                       "speedup", "run_wall_ms", "makespan_s"});
  TextTable table({"point", "mode", "events", "views/wave", "seam ms", "events/sec",
                   "speedup"});

  bool failed = false;
  double fair_speedup = 0.0;
  double rush_speedup = 0.0;
  std::ostringstream json_points;
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Point& point = points[p];
    const bool is_fair = std::string(point.scheduler) == "Fair";
    // Large grids amortize timer noise over the run itself; repeating them
    // would dominate the bench's wall time for no precision win.
    const int point_repeats = point.jobs >= 1000 ? 1 : repeats;
    const rush::RushConfig rush_config = rush::bench_rush_config();
    const ModeResult legacy =
        rush::best_of(point, false, seed, point_repeats, rush_config);
    const ModeResult batched =
        rush::best_of(point, true, seed, point_repeats, rush_config);
    if (batched.run.scheduling_events != legacy.run.scheduling_events) {
      std::fprintf(stderr,
                   "dispatch_overhead: FAIL — %s %dx%d seams diverged "
                   "(%ld vs %ld events)\n",
                   point.scheduler, point.jobs, point.containers,
                   batched.run.scheduling_events, legacy.run.scheduling_events);
      failed = true;
    }
    const double speedup = batched.run.seam_seconds > 0.0
                               ? legacy.run.seam_seconds / batched.run.seam_seconds
                               : 0.0;
    // RUSH only: the always-replan baseline on the same batched seam.  The
    // legacy/batched ratio cancels planning cost (both seams plan
    // identically), so change-proportional planning's win is measured
    // against this third run instead, as an events/sec ratio — a nonzero
    // tolerance may steer the simulation slightly, so seam seconds alone
    // would not compare like with like.
    ModeResult replan;
    double elision_speedup = 0.0;
    if (!is_fair) {
      replan = rush::best_of(point, true, seed, point_repeats,
                             rush::replan_rush_config());
      elision_speedup = replan.events_per_sec() > 0.0
                            ? batched.events_per_sec() / replan.events_per_sec()
                            : 0.0;
    }
    const std::string label = std::string(point.scheduler) + " " +
                              std::to_string(point.jobs) + "x" +
                              std::to_string(point.containers);
    const auto emit = [&](const char* mode, const ModeResult& m, double su) {
      const double waves = std::max(1.0, static_cast<double>(m.run.dispatch_waves));
      const double views_per_wave =
          static_cast<double>(m.run.full_views_built) / waves;
      const double plans_per_wave = static_cast<double>(m.plans) / waves;
      const double elided_per_wave = static_cast<double>(m.elided) / waves;
      const double replayed_per_pass =
          m.plans > 0 ? static_cast<double>(m.replayed) /
                            static_cast<double>(m.plans)
                      : 0.0;
      csv.add_row({point.scheduler, std::to_string(point.jobs),
                   std::to_string(point.containers), mode,
                   std::to_string(m.run.scheduling_events),
                   std::to_string(m.run.dispatch_waves),
                   std::to_string(m.run.full_views_built),
                   std::to_string(m.run.view_updates),
                   TextTable::num(views_per_wave, 2),
                   TextTable::num(plans_per_wave, 3),
                   TextTable::num(elided_per_wave, 3),
                   TextTable::num(replayed_per_pass, 3),
                   TextTable::num(m.run.seam_seconds * 1e3, 2),
                   TextTable::num(m.events_per_sec(), 0), TextTable::num(su, 2),
                   TextTable::num(m.wall_ms, 1), TextTable::num(m.run.makespan, 1)});
      table.add_row({label, mode, std::to_string(m.run.scheduling_events),
                     TextTable::num(views_per_wave, 2),
                     TextTable::num(m.run.seam_seconds * 1e3, 2),
                     TextTable::num(m.events_per_sec(), 0), TextTable::num(su, 2)});
    };
    emit("legacy", legacy, 1.0);
    emit("batched", batched, speedup);
    if (!is_fair) emit("batched-replan", replan, elision_speedup);

    // Gate 1: the batched dispatch path must never build a full snapshot.
    if (batched.run.full_views_built != 0) {
      std::fprintf(stderr,
                   "dispatch_overhead: FAIL — %s batched seam built %ld full "
                   "views (must be 0)\n",
                   label.c_str(), batched.run.full_views_built);
      failed = true;
    }
    // Gate 2: no throughput regression at realistic scale on the seam-bound
    // policy (RUSH carries its own gate below, since planning work dominates
    // both of its seams).
    if (is_fair && point.jobs >= 100 && speedup < 1.0) {
      std::fprintf(stderr,
                   "dispatch_overhead: FAIL — %s batched events/sec regressed "
                   "(%.2fx legacy)\n",
                   label.c_str(), speedup);
      failed = true;
    }
    if (point.jobs == 200 && point.containers == 48) {
      if (is_fair) {
        fair_speedup = speedup;
      } else {
        rush_speedup = elision_speedup;
      }
    }

    json_points << "  \"" << point.scheduler << "_" << point.jobs << "x"
                << point.containers << "\": {\n"
                << "    \"events\": " << batched.run.scheduling_events << ",\n"
                << "    \"legacy_seam_ms\": " << legacy.run.seam_seconds * 1e3
                << ",\n"
                << "    \"batched_seam_ms\": " << batched.run.seam_seconds * 1e3
                << ",\n"
                << "    \"legacy_events_per_sec\": " << legacy.events_per_sec()
                << ",\n"
                << "    \"batched_events_per_sec\": " << batched.events_per_sec()
                << ",\n"
                << "    \"speedup\": " << speedup << ",\n"
                << "    \"legacy_views_per_wave\": "
                << static_cast<double>(legacy.run.full_views_built) /
                       std::max(1.0, static_cast<double>(legacy.run.dispatch_waves))
                << ",\n"
                << "    \"batched_full_views_built\": " << batched.run.full_views_built
                << ",\n"
                << "    \"batched_view_updates\": " << batched.run.view_updates
                << ",\n"
                << "    \"plans_per_wave\": "
                << static_cast<double>(batched.plans) /
                       std::max(1.0, static_cast<double>(batched.run.dispatch_waves))
                << ",\n"
                << "    \"plans_elided_per_wave\": "
                << static_cast<double>(batched.elided) /
                       std::max(1.0, static_cast<double>(batched.run.dispatch_waves))
                << ",\n"
                << "    \"layers_replayed_per_pass\": "
                << (batched.plans > 0
                        ? static_cast<double>(batched.replayed) /
                              static_cast<double>(batched.plans)
                        : 0.0);
    if (!is_fair) {
      json_points << ",\n    \"replan_seam_ms\": " << replan.run.seam_seconds * 1e3
                  << ",\n    \"replan_events_per_sec\": "
                  << replan.events_per_sec()
                  << ",\n    \"elision_speedup\": " << elision_speedup;
    }
    json_points << "\n  },\n";
  }
  table.print(std::cout);
  std::printf(
      "\n200x48 gates: Fair seam speedup %.2fx (gate %.2fx), "
      "RUSH elision speedup %.2fx (gate %.2fx)\n",
      fair_speedup, min_speedup, rush_speedup, min_rush_speedup);
  std::printf("wrote %s\n", csv_path.c_str());

  const char* json_env = std::getenv("RUSH_BENCH_JSON");
  const std::string json_path =
      json_env != nullptr && *json_env != '\0' ? json_env : "BENCH_dispatch.json";
  {
    std::ofstream json(json_path, std::ios::trunc);
    json << "{\n"
         << "  \"bench\": \"dispatch_overhead\",\n"
         << rush_bench::provenance_json_fields()
         << "  \"seed\": " << seed << ",\n"
         << "  \"repeats\": " << repeats << ",\n"
         << "  \"large_jobs\": " << large_jobs << ",\n"
         << "  \"eta_tolerance\": "
         << rush::env_or("RUSH_DISPATCH_ETA_TOL", 0.15) << ",\n"
         << json_points.str() << "  \"speedup_200x48\": " << fair_speedup
         << ",\n"
         << "  \"min_speedup_gate\": " << min_speedup << ",\n"
         << "  \"rush_speedup_200x48\": " << rush_speedup << ",\n"
         << "  \"min_rush_speedup_gate\": " << min_rush_speedup << "\n}\n";
  }
  std::printf("wrote %s\n", json_path.c_str());

  // Gate 3: the headline Fair point must clear the configured speedup bar.
  if (min_speedup > 0.0 && fair_speedup < min_speedup) {
    std::fprintf(stderr,
                 "dispatch_overhead: FAIL — Fair 200x48 speedup %.2fx below "
                 "required %.2fx\n",
                 fair_speedup, min_speedup);
    failed = true;
  }
  // Gate 4: change-proportional planning must beat the always-replan
  // baseline at the RUSH 200x48 point by the configured factor.
  if (min_rush_speedup > 0.0 && rush_speedup < min_rush_speedup) {
    std::fprintf(stderr,
                 "dispatch_overhead: FAIL — RUSH 200x48 elision speedup %.2fx "
                 "below required %.2fx\n",
                 rush_speedup, min_rush_speedup);
    failed = true;
  }
  return failed ? 1 : 0;
}
