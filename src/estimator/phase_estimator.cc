#include "src/estimator/phase_estimator.h"

#include <algorithm>
#include <cmath>

#include "src/common/error.h"

namespace rush {

PhaseAwareEstimator::PhaseAwareEstimator(EstimatorPrior prior) : prior_(prior) {
  require(prior.mean_runtime > 0.0, "PhaseAwareEstimator: non-positive prior mean");
}

void PhaseAwareEstimator::observe(Seconds runtime, bool is_reduce) {
  require(runtime >= 0.0, "PhaseAwareEstimator::observe: negative runtime");
  (is_reduce ? reduces_ : maps_).add(runtime);
}

Seconds PhaseAwareEstimator::phase_mean(const OnlineStats& phase,
                                        const OnlineStats& other) const {
  if (phase.count() >= prior_.min_samples) return phase.mean();
  // Cross-phase fallback: any learned runtime beats the static prior.
  if (other.count() >= prior_.min_samples) return other.mean();
  return prior_.mean_runtime;
}

Seconds PhaseAwareEstimator::phase_stddev(const OnlineStats& phase,
                                          const OnlineStats& other) const {
  if (phase.count() >= prior_.min_samples) return phase.stddev();
  if (other.count() >= prior_.min_samples) return other.stddev();
  return prior_.stddev_runtime;
}

Seconds PhaseAwareEstimator::map_mean() const { return phase_mean(maps_, reduces_); }

Seconds PhaseAwareEstimator::reduce_mean() const { return phase_mean(reduces_, maps_); }

Seconds PhaseAwareEstimator::mean_runtime(int remaining_maps,
                                          int remaining_reduces) const {
  require(remaining_maps >= 0 && remaining_reduces >= 0,
          "PhaseAwareEstimator: negative task count");
  const int total = remaining_maps + remaining_reduces;
  if (total == 0) return map_mean();
  return (static_cast<double>(remaining_maps) * map_mean() +
          static_cast<double>(remaining_reduces) * reduce_mean()) /
         static_cast<double>(total);
}

void PhaseAwareEstimator::save_state(WireWriter& out) const {
  // rushlint-schema-owner: kSchedulerStateVersion
  out.put_double(prior_.mean_runtime);
  out.put_double(prior_.stddev_runtime);
  out.put_u64(prior_.min_samples);
  for (const OnlineStats* phase : {&maps_, &reduces_}) {
    out.put_u64(phase->count());
    out.put_double(phase->mean());
    out.put_double(phase->m2());
  }
}

void PhaseAwareEstimator::restore_state(WireReader& in) {
  prior_.mean_runtime = in.get_double();
  prior_.stddev_runtime = in.get_double();
  prior_.min_samples = static_cast<std::size_t>(in.get_u64());
  require_restorable_prior(prior_, "PhaseAwareEstimator::restore_state");
  for (OnlineStats* phase : {&maps_, &reduces_}) {
    const auto count = static_cast<std::size_t>(in.get_u64());
    const double mean = in.get_double();
    const double m2 = in.get_double();
    require_restorable_moments(count, mean, m2,
                               std::string("PhaseAwareEstimator::restore_state: ") +
                                   (phase == &maps_ ? "map" : "reduce") + " phase",
                               "m2");
    phase->restore_raw(count, mean, m2);
  }
}

QuantizedPmf PhaseAwareEstimator::remaining_demand(int remaining_maps,
                                                   int remaining_reduces,
                                                   std::size_t bins) const {
  require(remaining_maps >= 0 && remaining_reduces >= 0,
          "PhaseAwareEstimator: negative task count");
  const double nm = static_cast<double>(remaining_maps);
  const double nr = static_cast<double>(remaining_reduces);
  const double mean = nm * map_mean() + nr * reduce_mean();
  const double map_sd = phase_stddev(maps_, reduces_);
  const double red_sd = phase_stddev(reduces_, maps_);
  const double variance = nm * map_sd * map_sd + nr * red_sd * red_sd;
  const double stddev = std::sqrt(variance);
  // Degenerate all-done case: a one-bin impulse near zero keeps callers
  // uniform.
  const double safe_mean = std::max(mean, 1e-6);
  const double span = safe_mean + 6.0 * stddev;
  const double width = std::max(span * 1.25 / static_cast<double>(bins), 1e-6);
  return QuantizedPmf::gaussian(safe_mean, stddev, bins, width);
}

}  // namespace rush
