// Cluster report — the RUSH-YARN management view (paper Fig 2) on the
// console, driven by the XML job configuration interface (paper §IV).
//
//   build/examples/cluster_report [jobs.xml]
//
// Loads job requirements from XML, runs them under RUSH, and prints the
// projected-completion report the enhanced HTTP interface shows: target
// completion time, utility level, and an IMPOSSIBLE marker (the red row)
// for jobs that cannot finish before their utility hits zero.

#include <iostream>
#include <string>

#include "src/config/job_config.h"
#include "src/core/rush_scheduler.h"
#include "src/engine/simulation.h"
#include "src/metrics/text_table.h"

using namespace rush;

namespace {

JobSpec to_spec(const JobConfig& config) {
  JobSpec spec;
  spec.name = config.name;
  spec.arrival = config.arrival;
  spec.budget = config.budget;
  spec.priority = config.priority;
  spec.beta = config.beta;
  spec.utility_kind = config.utility_kind;
  for (int m = 0; m < config.maps; ++m) spec.tasks.push_back({config.task_seconds, false});
  for (int r = 0; r < config.reduces; ++r) spec.tasks.push_back({config.task_seconds, true});
  return spec;
}

/// A reporting wrapper: snapshots the RUSH plan at every arrival, the way
/// the web UI refreshes its table.
class ReportingScheduler final : public Scheduler {
 public:
  explicit ReportingScheduler(RushConfig config) : inner_(std::move(config)) {}

  std::string name() const override { return inner_.name(); }
  std::vector<JobId> assign_containers(const ClusterView& view, int count) override {
    return inner_.assign_containers(view, count);
  }
  void on_task_finished(const ClusterView& view, JobId job, Seconds runtime,
                        bool is_reduce) override {
    inner_.on_task_finished(view, job, runtime, is_reduce);
  }
  void on_job_finished(const ClusterView& view, JobId job) override {
    inner_.on_job_finished(view, job);
  }
  void on_job_arrival(const ClusterView& view, JobId job) override {
    inner_.on_job_arrival(view, job);
    // Force a fresh plan so the report reflects the new arrival.
    if (view.free_containers == 0) return print_report(view);
    print_report(view);
  }

  void print_report(const ClusterView& view) {
    (void)inner_.assign_container(view);  // ensures the plan is current
    const Plan& plan = inner_.current_plan();
    std::cout << "\n[t=" << TextTable::num(view.now, 0)
              << "s] projected completion report (" << view.jobs.size()
              << " active jobs)\n";
    TextTable table({"job", "held", "desired", "eta(cs)", "projected-finish",
                     "utility-level", "status"});
    for (const JobView& jv : view.jobs) {
      const PlanEntry* entry = plan.find(jv.id);
      if (entry == nullptr) continue;
      table.add_row({"#" + std::to_string(jv.id), std::to_string(jv.running_tasks),
                     std::to_string(entry->desired_containers),
                     TextTable::num(entry->eta, 0),
                     TextTable::num(entry->target_completion, 0),
                     TextTable::num(entry->utility_level, 2),
                     entry->impossible ? "IMPOSSIBLE (resubmit!)" : "on track"});
    }
    table.print(std::cout);
  }

 private:
  RushScheduler inner_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "examples/jobs.xml";
  std::vector<JobConfig> configs;
  try {
    configs = parse_jobs_config(parse_xml_file(path));
  } catch (const std::exception& e) {
    std::cerr << "failed to load " << path << ": " << e.what() << '\n'
              << "usage: cluster_report [jobs.xml]\n";
    return 1;
  }
  std::cout << "loaded " << configs.size() << " job configurations from " << path
            << '\n';

  RushConfig rush_config;
  rush_config.prior.mean_runtime = 30.0;
  rush_config.prior.stddev_runtime = 10.0;
  ReportingScheduler scheduler(rush_config);

  ClusterConfig cluster_config;
  cluster_config.nodes = homogeneous_nodes(2, 8);  // 16 containers
  cluster_config.runtime_noise_sigma = 0.2;
  cluster_config.seed = 3;
  EngineSimulation cluster(cluster_config, scheduler);
  for (const JobConfig& config : configs) cluster.submit(to_spec(config));

  const RunResult result = cluster.run();

  std::cout << "\n=== final outcomes ===\n";
  TextTable table({"job", "budget", "completed", "latency", "utility"});
  for (const JobRecord& job : result.jobs) {
    table.add_row({job.name, TextTable::num(job.budget, 0),
                   TextTable::num(job.completion, 1),
                   job.budget > 0.0 ? TextTable::num(job.latency(), 1) : "-",
                   TextTable::num(job.utility, 2)});
  }
  table.print(std::cout);
  return 0;
}
