#include "src/config/job_config.h"

#include "src/common/error.h"

namespace rush {

namespace {

Sensitivity parse_sensitivity(const std::string& name) {
  if (name == "critical") return Sensitivity::kTimeCritical;
  if (name == "sensitive") return Sensitivity::kTimeSensitive;
  if (name == "insensitive") return Sensitivity::kTimeInsensitive;
  throw InvalidInput("JobConfig: unknown sensitivity '" + name + "'");
}

const char* sensitivity_name(Sensitivity s) {
  switch (s) {
    case Sensitivity::kTimeCritical:
      return "critical";
    case Sensitivity::kTimeInsensitive:
      return "insensitive";
    case Sensitivity::kTimeSensitive:
      break;
  }
  return "sensitive";
}

}  // namespace

void JobConfig::validate() const {
  // The message is built only on failure: the engine validates every
  // submission and every restored job.
  const auto check = [this](bool ok, const char* what) {
    if (!ok) throw InvalidInput("JobConfig '" + name + "': " + what);
  };
  check(budget >= 0.0, "negative budget");
  check(priority >= 0.0, "negative priority");
  check(beta > 0.0 || utility_kind == "constant" || utility_kind == "step",
        "beta must be positive");
  check(maps >= 0 && reduces >= 0, "negative task count");
  check(maps > 0 || reduces > 0, "no tasks");
  check(task_seconds > 0.0, "non-positive task seconds");
  check(arrival >= 0.0, "negative arrival");
  if (utility_kind != "linear" && utility_kind != "sigmoid" && utility_kind != "constant" &&
      utility_kind != "step") {
    throw InvalidInput("JobConfig '" + name + "': unknown utility class '" + utility_kind + "'");
  }
}

JobConfig parse_job_config(const XmlNode& node) {
  require(node.tag == "job", "parse_job_config: expected <job>, got <" + node.tag + ">");
  JobConfig config;
  config.name = node.child_text("name", config.name);
  config.budget = node.child_double("budget", config.budget);
  config.priority = node.child_double("priority", config.priority);
  config.beta = node.child_double("beta", config.beta);
  config.utility_kind = node.child_text("utility", config.utility_kind);
  config.maps = static_cast<int>(node.child_long("maps", config.maps));
  config.reduces = static_cast<int>(node.child_long("reduces", config.reduces));
  config.task_seconds = node.child_double("task-seconds", config.task_seconds);
  config.arrival = node.child_double("arrival", config.arrival);
  config.sensitivity =
      parse_sensitivity(node.child_text("sensitivity", sensitivity_name(config.sensitivity)));
  config.validate();
  return config;
}

std::vector<JobConfig> parse_jobs_config(const XmlNode& root) {
  std::vector<JobConfig> configs;
  if (root.tag == "job") {
    configs.push_back(parse_job_config(root));
    return configs;
  }
  require(root.tag == "jobs", "parse_jobs_config: expected <jobs> root");
  for (const XmlNode& child : root.children) {
    configs.push_back(parse_job_config(child));
  }
  return configs;
}

}  // namespace rush
