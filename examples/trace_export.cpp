// Trace-driven analysis: record every scheduling event of a RUSH run,
// export it to CSV, and print utilisation plus a per-container timeline
// summary — the raw material for Gantt-style plots.
//
//   build/examples/trace_export [output.csv]

#include <iostream>
#include <map>
#include <string>

#include "src/core/rush_scheduler.h"
#include "src/engine/simulation.h"
#include "src/metrics/csv.h"
#include "src/metrics/gantt.h"
#include "src/metrics/text_table.h"
#include "src/metrics/trace.h"
#include "src/workload/generator.h"

using namespace rush;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : output_path("rush_trace.csv");

  RushScheduler scheduler;
  ClusterConfig cluster_config;
  cluster_config.nodes = homogeneous_nodes(2, 6);  // 12 containers
  cluster_config.runtime_noise_sigma = 0.25;
  cluster_config.task_failure_probability = 0.05;  // a little chaos
  cluster_config.seed = 21;
  EngineSimulation cluster(cluster_config, scheduler);

  TraceRecorder trace;
  cluster.set_observer(&trace);

  WorkloadConfig workload;
  workload.num_jobs = 12;
  workload.mean_interarrival = 60.0;
  workload.min_gigabytes = 0.5;
  workload.max_gigabytes = 2.0;
  workload.budget_ratio = 1.5;
  workload.benchmark_capacity = 12;
  workload.seed = 21;
  for (JobSpec& spec : generate_workload(workload)) cluster.submit(std::move(spec));

  const RunResult result = cluster.run();
  trace.write_csv(path);

  std::cout << "recorded " << trace.events().size() << " events -> " << path << "\n\n";
  TextTable summary({"metric", "value"});
  summary.add_row({"jobs", std::to_string(result.jobs.size())});
  summary.add_row({"task starts", std::to_string(trace.count(TraceKind::kTaskStart))});
  summary.add_row({"task failures", std::to_string(trace.count(TraceKind::kTaskFailure))});
  summary.add_row({"busy container-seconds", TextTable::num(trace.busy_seconds(), 0)});
  summary.add_row({"wasted container-seconds", TextTable::num(trace.wasted_seconds(), 0)});
  summary.add_row({"utilization", TextTable::num(100.0 * trace.utilization(12), 1) + "%"});
  summary.add_row({"makespan", TextTable::num(result.makespan, 0) + " s"});
  summary.print(std::cout);

  // Per-container share of work: how evenly RUSH spreads the load.
  std::map<int, double> per_container;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == TraceKind::kTaskFinish) per_container[e.container] += e.value;
  }
  std::cout << "\nper-container busy seconds:\n";
  for (const auto& [container, busy] : per_container) {
    std::cout << "  c" << container << "  "
              << ascii_bar(busy / (trace.busy_seconds() / per_container.size()) / 2.0, 30)
              << ' ' << TextTable::num(busy, 0) << "s\n";
  }

  std::cout << "\ncluster Gantt (who held which container when):\n"
            << render_gantt(trace, 12);
  return 0;
}
