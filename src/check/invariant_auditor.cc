#include "src/check/invariant_auditor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/robust/rem.h"

namespace rush {
namespace {

/// Concatenates streamable values into one detail string.
template <typename... Ts>
std::string cat(const Ts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

}  // namespace

AuditReport audit_pmf(const QuantizedPmf& pmf, const AuditOptions& options) {
  AuditReport report("QuantizedPmf");
  report.check(pmf.bins() > 0, "pmf.nonempty", "PMF has zero bins");
  report.check(std::isfinite(pmf.bin_width()) && pmf.bin_width() > 0.0,
               "pmf.bin_width", cat("bin width ", pmf.bin_width(), " not positive"));
  bool masses_ok = true;
  for (std::size_t l = 0; l < pmf.bins(); ++l) {
    const double m = pmf.mass(l);
    if (!std::isfinite(m) || m < -options.mass_tolerance) {
      report.check(false, "pmf.mass",
                   cat("bin ", l, " has invalid mass ", m));
      masses_ok = false;
      break;
    }
  }
  if (masses_ok) {
    report.check(true, "pmf.mass", "");
    const double total = pmf.total_mass();
    report.check(std::abs(total - 1.0) <= options.mass_tolerance, "pmf.normalized",
                 cat("total mass ", total, " deviates from 1 by more than ",
                     options.mass_tolerance));
  }
  return report;
}

AuditReport audit_wcde(const QuantizedPmf& phi, Probability theta_level, KlRadius delta_radius,
                       const WcdeResult& result, const AuditOptions& options) {
  AuditReport report("WcdeResult");
  const double theta = theta_level.value();
  const double delta = delta_radius.value();
  if (theta <= 0.0 || theta >= 1.0 || delta < 0.0) {
    report.check(false, "wcde.inputs",
                 cat("theta ", theta, " / delta ", delta, " out of range"));
    return report;
  }

  QuantizedPmf reference = phi;
  reference.normalize();
  const std::vector<double> prefix = reference.prefix_cdf();
  const std::size_t bins = reference.bins();

  report.check(result.eta_bin >= 1 && result.eta_bin <= bins, "wcde.eta_bin",
               cat("eta_bin ", result.eta_bin, " outside [1, ", bins, "]"));
  if (result.eta_bin < 1 || result.eta_bin > bins) return report;

  report.check(
      std::abs(result.eta - reference.upper_edge(result.eta_bin - 1)) <=
          options.time_tolerance,
      "wcde.eta_consistent",
      cat("eta ", result.eta, " does not equal the upper edge of bin ",
          result.eta_bin - 1));
  report.check(result.eta >= result.reference_eta - options.time_tolerance,
               "wcde.covers_reference",
               cat("robust eta ", result.eta, " below the plain quantile ",
                   result.reference_eta));

  // Robustness: every distribution within KL distance delta of phi places at
  // least theta mass on [0, eta].  Equivalently, forcing CDF(eta's bin) down
  // to theta costs more than delta relative entropy (Theorem 1 closed form).
  // An eta clamped into the last bin (eta_bin == bins) has no robust bin to
  // check.
  if (result.eta_bin < bins) {
    const double kl_at_eta = rem_min_kl(Probability(prefix[result.eta_bin - 1]), theta_level);
    report.check(kl_at_eta > delta - options.kl_tolerance, "wcde.robust",
                 cat("an adversary within the KL ball (min KL ", kl_at_eta,
                     " <= delta ", delta, ") can push the theta-quantile past eta ",
                     result.eta));
  }

  // Minimality + in-ball witness: one bin less would NOT be robust, and the
  // REM worst case realising that attack is itself a valid distribution
  // inside the ball.
  if (result.eta_bin >= 2) {
    const std::size_t attack_bin = result.eta_bin - 2;
    const double kl_below = rem_min_kl(Probability(prefix[attack_bin]), theta_level);
    report.check(kl_below <= delta + options.kl_tolerance, "wcde.minimal",
                 cat("eta is not minimal: even at bin ", attack_bin,
                     " no in-ball adversary exists (min KL ", kl_below,
                     " > delta ", delta, ")"));
    if (kl_below <= delta + options.kl_tolerance && std::isfinite(kl_below)) {
      const RemResult rem = solve_rem(reference, attack_bin, theta_level);
      report.merge(audit_pmf(rem.worst_case, options));
      report.check(rem.kl <= delta + options.kl_tolerance, "wcde.witness_in_ball",
                   cat("REM worst case has KL ", rem.kl, " > delta ", delta));
      report.check(rem.worst_case.cdf(attack_bin) <= theta + options.mass_tolerance,
                   "wcde.witness_attacks",
                   cat("REM worst case keeps ", rem.worst_case.cdf(attack_bin),
                       " mass on [0, bin ", attack_bin, "], expected <= theta ",
                       theta));
    }
  }
  return report;
}

AuditReport audit_wcde_reuse(const QuantizedPmf& phi, Probability theta,
                             KlRadius delta, const WcdeResult& reused) {
  AuditReport report("WcdeReuse");
  // Bit-identity, so every field is compared with ==; any tolerance here
  // would let a stale result slide until it flipped a plan downstream.
  const WcdeResult fresh = solve_wcde(phi, theta, delta);
  report.check(reused.eta == fresh.eta, "wcde_reuse.eta",
               cat("reused eta ", reused.eta, " != fresh eta ", fresh.eta));
  report.check(reused.eta_bin == fresh.eta_bin, "wcde_reuse.eta_bin",
               cat("reused eta_bin ", reused.eta_bin, " != fresh eta_bin ",
                   fresh.eta_bin));
  report.check(reused.reference_eta == fresh.reference_eta, "wcde_reuse.reference_eta",
               cat("reused reference_eta ", reused.reference_eta, " != fresh ",
                   fresh.reference_eta));
  return report;
}

AuditReport audit_tas(const TasResult& result, const std::vector<TasJob>& jobs,
                      ContainerCount capacity, Seconds now,
                      const AuditOptions& options) {
  AuditReport report("TasResult");
  if (capacity <= 0) {
    report.check(false, "tas.capacity", cat("capacity ", capacity, " not positive"));
    return report;
  }

  std::unordered_map<JobId, const TasJob*> job_of;
  for (const TasJob& j : jobs) {
    report.check(job_of.emplace(j.id, &j).second, "tas.unique_input",
                 cat("job ", j.id, " appears twice in the input"));
  }

  std::unordered_set<JobId> seen;
  int last_layer = 0;
  Utility last_level = 0.0;
  bool first_peeled = true;
  std::vector<std::pair<Seconds, ContainerSeconds>> work;

  for (const TasTarget& target : result.targets) {
    const auto it = job_of.find(target.id);
    if (it == job_of.end()) {
      report.check(false, "tas.known_job",
                   cat("target for unknown job ", target.id));
      continue;
    }
    const TasJob& job = *it->second;
    report.check(seen.insert(target.id).second, "tas.unique_target",
                 cat("job ", target.id, " has two targets"));
    report.check(target.mapping_deadline >= now - options.time_tolerance,
                 "tas.deadline_future",
                 cat("job ", target.id, " mapped to deadline ",
                     target.mapping_deadline, " before now ", now));
    report.check(
        target.target_completion >= target.mapping_deadline - options.time_tolerance,
        "tas.completion_after_deadline",
        cat("job ", target.id, " target completion ", target.target_completion,
            " precedes its mapping deadline ", target.mapping_deadline));
    report.check(target.layer >= last_layer, "tas.layer_order",
                 cat("job ", target.id, " peeled in layer ", target.layer,
                     " after layer ", last_layer));
    last_layer = std::max(last_layer, target.layer);

    if (job.eta > 0.0) {
      // Lexicographic max-min: each later layer's utility level is at least
      // the previous layer's (the worst-off job is fixed first).
      if (!first_peeled) {
        report.check(target.utility_level >= last_level - options.time_tolerance,
                     "tas.level_monotone",
                     cat("job ", target.id, " peeled at utility ",
                         target.utility_level, " below the previous layer's ",
                         last_level));
      }
      first_peeled = false;
      last_level = target.utility_level;
      work.emplace_back(target.mapping_deadline, job.eta);
    }
  }

  // Walk ids in sorted order: job_of is a hash map, and the order of these
  // checks is the order failures appear in the report text.
  std::vector<JobId> ids;
  ids.reserve(job_of.size());
  for (const auto& [id, job] : job_of) {
    static_cast<void>(job);
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const JobId id : ids) {
    report.check(seen.count(id) > 0, "tas.covered",
                 cat("job ", id, " received no target"));
  }

  // Theorem 2: the chosen deadlines are preemptive-EDF feasible, i.e. the
  // demand due by each deadline fits in capacity * (deadline - now).  This is
  // exactly what makes the slot mapper's Theorem 3 bound attainable.
  std::sort(work.begin(), work.end());
  double load = 0.0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    load += work[i].second;
    const bool last_at_deadline =
        (i + 1 == work.size()) || work[i + 1].first > work[i].first;
    if (last_at_deadline) {
      const double budget = static_cast<double>(capacity) * (work[i].first - now);
      report.check(load <= budget + options.time_tolerance * (1.0 + load),
                   "tas.edf_feasible",
                   cat("demand ", load, " due by ", work[i].first,
                       " exceeds capacity budget ", budget));
    }
  }
  return report;
}

AuditReport audit_mapping(const MappingResult& result,
                          const std::vector<MappingJob>& jobs,
                          ContainerCount capacity, Seconds now,
                          const AuditOptions& options) {
  AuditReport report("MappingResult");
  if (capacity <= 0) {
    report.check(false, "mapping.capacity",
                 cat("capacity ", capacity, " not positive"));
    return report;
  }
  report.check(
      result.queue_occupation.size() == static_cast<std::size_t>(capacity),
      "mapping.queue_count",
      cat(result.queue_occupation.size(), " queues for capacity ", capacity));

  std::unordered_map<JobId, const MappingJob*> job_of;
  for (const MappingJob& j : jobs) {
    report.check(job_of.emplace(j.id, &j).second, "mapping.unique_input",
                 cat("job ", j.id, " appears twice in the input"));
  }

  // Per-segment sanity + group by queue and by job.
  std::map<QueueId, std::vector<const MappedSegment*>> by_queue;
  std::unordered_map<JobId, double> served;
  std::unordered_map<JobId, Seconds> last_end;
  for (const MappedSegment& seg : result.segments) {
    const auto it = job_of.find(seg.job);
    if (it == job_of.end()) {
      report.check(false, "mapping.known_job",
                   cat("segment for unknown job ", seg.job));
      continue;
    }
    const MappingJob& job = *it->second;
    report.check(seg.queue.valid() && seg.queue.value() < capacity, "mapping.queue_range",
                 cat("job ", seg.job, " segment on queue ", seg.queue.value(),
                     " outside [0, ", capacity, ")"));
    report.check(seg.tasks >= 1, "mapping.tasks_positive",
                 cat("job ", seg.job, " segment with ", seg.tasks, " tasks"));
    report.check(seg.start >= now - options.time_tolerance, "mapping.starts_after_now",
                 cat("job ", seg.job, " segment starts at ", seg.start,
                     " before now ", now));
    report.check(
        std::abs(seg.duration - static_cast<double>(seg.tasks) * job.task_runtime) <=
            options.time_tolerance,
        "mapping.granules",
        cat("job ", seg.job, " segment duration ", seg.duration,
            " is not ", seg.tasks, " tasks of ", job.task_runtime, " s"));
    by_queue[seg.queue].push_back(&seg);
    served[seg.job] += seg.duration;
    auto [le, inserted] = last_end.emplace(seg.job, seg.end());
    if (!inserted) le->second = std::max(le->second, seg.end());
  }

  // Queue occupation: segments on one queue must tile [now, O_k] exactly —
  // gap-free and never overlapping (tasks hold their container continuously).
  for (auto& [queue, segments] : by_queue) {
    std::sort(segments.begin(), segments.end(),
              [](const MappedSegment* a, const MappedSegment* b) {
                return a->start < b->start;
              });
    Seconds cursor = now;
    for (const MappedSegment* seg : segments) {
      report.check(std::abs(seg->start - cursor) <= options.time_tolerance,
                   "mapping.gap_free",
                   cat("queue ", queue.value(), ": segment of job ", seg->job,
                       " starts at ", seg->start, ", expected ", cursor,
                       (seg->start < cursor ? " (overlap)" : " (gap)")));
      cursor = std::max(cursor, seg->end());
    }
    if (queue.valid() &&
        static_cast<std::size_t>(queue.value()) < result.queue_occupation.size()) {
      report.check(
          std::abs(result.queue_occupation[static_cast<std::size_t>(queue.value())] - cursor) <=
              options.time_tolerance,
          "mapping.occupation",
          cat("queue ", queue.value(), " occupation ",
              result.queue_occupation[static_cast<std::size_t>(queue.value())],
              " does not match packed end ", cursor));
    }
  }
  for (std::size_t q = 0; q < result.queue_occupation.size(); ++q) {
    if (by_queue.count(QueueId(static_cast<std::int32_t>(q))) == 0) {
      report.check(
          std::abs(result.queue_occupation[q] - now) <= options.time_tolerance,
          "mapping.occupation", cat("empty queue ", q, " has occupation ",
                                    result.queue_occupation[q], ", expected ", now));
    }
  }

  // Per job: demand conservation, completion bookkeeping, Theorem 3.  Ids
  // are walked in sorted order so failing checks land in the report in a
  // reproducible order, not the hash map's.
  std::vector<JobId> ids;
  ids.reserve(job_of.size());
  for (const auto& [id, jobp] : job_of) {
    static_cast<void>(jobp);
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const JobId id : ids) {
    const MappingJob& job = *job_of.at(id);
    const auto completion = result.completion.find(id);
    if (completion == result.completion.end()) {
      report.check(false, "mapping.completion_present",
                   cat("job ", id, " has no completion time"));
      continue;
    }
    if (job.eta <= 0.0) {
      report.check(served.count(id) == 0, "mapping.no_phantom_work",
                   cat("job ", id, " has segments but no demand"));
      report.check(std::abs(completion->second - now) <= options.time_tolerance,
                   "mapping.completion_matches",
                   cat("demandless job ", id, " completes at ", completion->second,
                       ", expected ", now));
      continue;
    }
    const double got = served.count(id) > 0 ? served.at(id) : 0.0;
    // Conservation: the mapper serves the whole demand, rounded up to whole
    // task granules of R_i — never less than eta, never a full granule more.
    report.check(got >= job.eta - options.time_tolerance, "mapping.demand_served",
                 cat("job ", id, " served ", got, " container-seconds of ",
                     job.eta, " demanded"));
    report.check(got <= job.eta + job.task_runtime + options.time_tolerance,
                 "mapping.no_overservice",
                 cat("job ", id, " served ", got, " container-seconds, more than ",
                     "one granule over its demand ", job.eta));
    report.check(
        last_end.count(id) > 0 &&
            std::abs(completion->second - last_end.at(id)) <= options.time_tolerance,
        "mapping.completion_matches",
        cat("job ", id, " completion ", completion->second,
            " does not match its last segment end"));
    if (result.within_bound) {
      // Theorem 3: every job completes by its target deadline plus one task
      // runtime.
      report.check(completion->second <=
                       job.deadline + job.task_runtime + options.time_tolerance,
                   "mapping.theorem3",
                   cat("job ", id, " completes at ", completion->second,
                       " past the Theorem 3 bound ", job.deadline + job.task_runtime));
    }
  }
  std::vector<JobId> completion_ids;
  completion_ids.reserve(result.completion.size());
  for (const auto& [id, completion] : result.completion) {
    static_cast<void>(completion);
    completion_ids.push_back(id);
  }
  std::sort(completion_ids.begin(), completion_ids.end());
  for (const JobId id : completion_ids) {
    report.check(job_of.count(id) > 0, "mapping.completion_known",
                 cat("completion recorded for unknown job ", id));
  }
  return report;
}

AuditReport audit_queue_heads(const std::vector<MappingJob>& jobs,
                              ContainerCount capacity, Seconds now,
                              const std::vector<int>& heads) {
  AuditReport report("QueueHeads");
  if (heads.size() != jobs.size()) {
    report.check(false, "heads.count",
                 cat(heads.size(), " head counts for ", jobs.size(), " jobs"));
    return report;
  }
  const MappingResult reference = map_time_slots(jobs, capacity, now);
  report.merge(audit_mapping(reference, jobs, capacity, now));
  // A queue's head is its earliest segment; on a tie, the first one packed.
  std::map<QueueId, const MappedSegment*> head_of;
  for (const MappedSegment& seg : reference.segments) {
    const auto [it, inserted] = head_of.emplace(seg.queue, &seg);
    if (!inserted && seg.start < it->second->start) it->second = &seg;
  }
  std::map<JobId, int> expected;
  for (const auto& [queue, seg] : head_of) expected[seg->job] += 1;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto it = expected.find(jobs[i].id);
    const int want = it == expected.end() ? 0 : it->second;
    report.check(heads[i] == want, "heads.match_reference",
                 cat("job ", jobs[i].id, " heads ", heads[i],
                     " queues; Algorithm 4 gives it ", want));
  }
  return report;
}

}  // namespace rush
