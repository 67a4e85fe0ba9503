#include "src/estimator/distribution_estimator.h"

#include <algorithm>
#include <cmath>

#include "src/common/error.h"
#include "src/common/rng.h"

namespace rush {
namespace {

/// Bin width so that `span` container-seconds fit in `bins` bins with 25%
/// headroom; never degenerate.
double bin_width_for(double span, std::size_t bins) {
  return std::max(span * 1.25 / static_cast<double>(bins), 1e-6);
}

void put_prior(WireWriter& out, const EstimatorPrior& prior) {
  // rushlint-schema-owner: kSchedulerStateVersion
  out.put_double(prior.mean_runtime);
  out.put_double(prior.stddev_runtime);
  out.put_u64(prior.min_samples);
}

EstimatorPrior get_prior(WireReader& in, const std::string& context) {
  EstimatorPrior prior;
  prior.mean_runtime = in.get_double();
  prior.stddev_runtime = in.get_double();
  prior.min_samples = static_cast<std::size_t>(in.get_u64());
  require_restorable_prior(prior, context);
  return prior;
}

void put_stats(WireWriter& out, const OnlineStats& stats) {
  // rushlint-schema-owner: kSchedulerStateVersion
  out.put_u64(stats.count());
  out.put_double(stats.mean());
  out.put_double(stats.m2());
}

void get_stats(WireReader& in, OnlineStats& stats, const std::string& context) {
  const auto count = static_cast<std::size_t>(in.get_u64());
  const double mean = in.get_double();
  const double m2 = in.get_double();
  require_restorable_moments(count, mean, m2, context, "m2");
  stats.restore_raw(count, mean, m2);
}

}  // namespace

void require_restorable_prior(const EstimatorPrior& prior, const std::string& context) {
  require(std::isfinite(prior.mean_runtime) && prior.mean_runtime > 0.0,
          context + ": prior mean_runtime must be finite and positive");
  require(std::isfinite(prior.stddev_runtime) && prior.stddev_runtime >= 0.0,
          context + ": prior stddev_runtime must be finite and non-negative");
}

void require_restorable_moments(std::size_t count, double mean, double spread,
                                const std::string& context, const std::string& spread_name) {
  if (count == 0) {
    require(mean == 0.0 && spread == 0.0,
            context + ": moment mean and " + spread_name + " must be 0 with no samples");
    return;
  }
  require(std::isfinite(mean) && mean > 0.0,
          context + ": moment mean must be finite and positive");
  require(std::isfinite(spread) && spread >= 0.0,
          context + ": moment " + spread_name + " must be finite and non-negative");
}

MeanTimeEstimator::MeanTimeEstimator(EstimatorPrior prior) : prior_(prior) {
  require(prior.mean_runtime > 0.0, "MeanTimeEstimator: non-positive prior mean");
}

void MeanTimeEstimator::observe(Seconds runtime) {
  require(runtime >= 0.0, "MeanTimeEstimator::observe: negative runtime");
  stats_.add(runtime);
}

Seconds MeanTimeEstimator::mean_runtime() const {
  if (stats_.count() < prior_.min_samples) return prior_.mean_runtime;
  return stats_.mean();
}

QuantizedPmf MeanTimeEstimator::remaining_demand(int remaining_tasks,
                                                 std::size_t bins) const {
  require(remaining_tasks >= 0, "remaining_demand: negative task count");
  const double total = mean_runtime() * static_cast<double>(std::max(remaining_tasks, 1));
  return QuantizedPmf::impulse(total, bins, bin_width_for(total, bins));
}

void MeanTimeEstimator::save_state(WireWriter& out) const {
  // rushlint-schema-owner: kSchedulerStateVersion
  put_prior(out, prior_);
  put_stats(out, stats_);
}

void MeanTimeEstimator::restore_state(WireReader& in) {
  prior_ = get_prior(in, "MeanTimeEstimator::restore_state");
  get_stats(in, stats_, "MeanTimeEstimator::restore_state");
}

GaussianEstimator::GaussianEstimator(EstimatorPrior prior) : prior_(prior) {
  require(prior.mean_runtime > 0.0, "GaussianEstimator: non-positive prior mean");
  require(prior.stddev_runtime >= 0.0, "GaussianEstimator: negative prior stddev");
}

void GaussianEstimator::observe(Seconds runtime) {
  require(runtime >= 0.0, "GaussianEstimator::observe: negative runtime");
  stats_.add(runtime);
}

Seconds GaussianEstimator::mean_runtime() const {
  if (stats_.count() < prior_.min_samples) return prior_.mean_runtime;
  return stats_.mean();
}

Seconds GaussianEstimator::stddev_runtime() const {
  if (stats_.count() < prior_.min_samples) return prior_.stddev_runtime;
  return stats_.stddev();
}

QuantizedPmf GaussianEstimator::remaining_demand(int remaining_tasks,
                                                 std::size_t bins) const {
  require(remaining_tasks >= 0, "remaining_demand: negative task count");
  const auto n = static_cast<double>(std::max(remaining_tasks, 1));
  const double mean = n * mean_runtime();
  const double stddev = std::sqrt(n) * stddev_runtime();
  const double span = mean + 6.0 * stddev;
  return QuantizedPmf::gaussian(mean, stddev, bins, bin_width_for(span, bins));
}

void GaussianEstimator::save_state(WireWriter& out) const {
  // rushlint-schema-owner: kSchedulerStateVersion
  put_prior(out, prior_);
  put_stats(out, stats_);
}

void GaussianEstimator::restore_state(WireReader& in) {
  prior_ = get_prior(in, "GaussianEstimator::restore_state");
  get_stats(in, stats_, "GaussianEstimator::restore_state");
}

BootstrapEstimator::BootstrapEstimator(EstimatorPrior prior, std::size_t resamples,
                                       std::uint64_t seed)
    : prior_(prior), resamples_(resamples), seed_(seed) {
  require(resamples > 0, "BootstrapEstimator: need at least one resample");
}

void BootstrapEstimator::observe(Seconds runtime) {
  require(runtime >= 0.0, "BootstrapEstimator::observe: negative runtime");
  samples_.push_back(runtime);
  stats_.add(runtime);
}

Seconds BootstrapEstimator::mean_runtime() const {
  if (stats_.count() < prior_.min_samples) return prior_.mean_runtime;
  return stats_.mean();
}

QuantizedPmf BootstrapEstimator::remaining_demand(int remaining_tasks,
                                                  std::size_t bins) const {
  require(remaining_tasks >= 0, "remaining_demand: negative task count");
  const auto n = static_cast<std::size_t>(std::max(remaining_tasks, 1));
  if (samples_.size() < prior_.min_samples) {
    // Not enough data to resample; degrade to the Gaussian prior.
    const double mean = static_cast<double>(n) * prior_.mean_runtime;
    const double stddev = std::sqrt(static_cast<double>(n)) * prior_.stddev_runtime;
    return QuantizedPmf::gaussian(mean, stddev, bins, bin_width_for(mean + 6 * stddev, bins));
  }
  // Seed depends only on (seed_, sample count, n) so repeated queries in the
  // same state are identical — schedulers may probe several times per event.
  Rng rng(seed_ ^ (samples_.size() * 0x9E37u) ^ (n * 0x85EBu));
  std::vector<double> sums(resamples_, 0.0);
  double max_sum = 0.0;
  for (double& sum : sums) {
    for (std::size_t t = 0; t < n; ++t) {
      sum += samples_[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(samples_.size()) - 1))];
    }
    max_sum = std::max(max_sum, sum);
  }
  QuantizedPmf pmf(bins, bin_width_for(max_sum, bins));
  for (double sum : sums) pmf.add_mass_at(sum, 1.0);
  pmf.normalize();
  return pmf;
}

void BootstrapEstimator::save_state(WireWriter& out) const {
  // rushlint-schema-owner: kSchedulerStateVersion
  put_prior(out, prior_);
  out.put_u64(samples_.size());
  for (const Seconds s : samples_) out.put_double(s);
  put_stats(out, stats_);
  out.put_u64(resamples_);
  out.put_u64(seed_);
}

void BootstrapEstimator::restore_state(WireReader& in) {
  const std::string context = "BootstrapEstimator::restore_state";
  prior_ = get_prior(in, context);
  const std::size_t n = in.get_count(8, (context + ": samples").c_str());
  samples_.clear();
  samples_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    samples_.push_back(in.get_double());
    require(std::isfinite(samples_.back()) && samples_.back() > 0.0,
            context + ": samples must be finite and positive");
  }
  get_stats(in, stats_, context);
  require(stats_.count() == n, context + ": moment count must equal the sample count");
  // Each query draws `resamples` bootstrap sums, so a forged count would
  // size every query's allocation; only the configured count is accepted.
  const auto resamples = static_cast<std::size_t>(in.get_u64());
  require(resamples == resamples_,
          "BootstrapEstimator::restore_state: resamples differs from this estimator's");
  seed_ = in.get_u64();
}

EwmaEstimator::EwmaEstimator(EstimatorPrior prior, double alpha)
    : prior_(prior), alpha_(alpha) {
  require(alpha > 0.0 && alpha <= 1.0, "EwmaEstimator: alpha must be in (0,1]");
  require(prior.mean_runtime > 0.0, "EwmaEstimator: non-positive prior mean");
}

void EwmaEstimator::observe(Seconds runtime) {
  require(runtime >= 0.0, "EwmaEstimator::observe: negative runtime");
  if (count_ == 0) {
    mean_ = runtime;
    var_ = 0.0;
  } else {
    // Standard EWMA mean/variance recursion (West 1979).
    const double diff = runtime - mean_;
    const double incr = alpha_ * diff;
    mean_ += incr;
    var_ = (1.0 - alpha_) * (var_ + diff * incr);
  }
  ++count_;
}

Seconds EwmaEstimator::mean_runtime() const {
  if (count_ < prior_.min_samples) return prior_.mean_runtime;
  return mean_;
}

Seconds EwmaEstimator::stddev_runtime() const {
  if (count_ < prior_.min_samples) return prior_.stddev_runtime;
  return std::sqrt(var_);
}

QuantizedPmf EwmaEstimator::remaining_demand(int remaining_tasks,
                                             std::size_t bins) const {
  require(remaining_tasks >= 0, "remaining_demand: negative task count");
  const auto n = static_cast<double>(std::max(remaining_tasks, 1));
  const double mean = n * mean_runtime();
  const double stddev = std::sqrt(n) * stddev_runtime();
  const double span = mean + 6.0 * stddev;
  return QuantizedPmf::gaussian(mean, stddev, bins, bin_width_for(span, bins));
}

void EwmaEstimator::save_state(WireWriter& out) const {
  // rushlint-schema-owner: kSchedulerStateVersion
  put_prior(out, prior_);
  out.put_double(alpha_);
  out.put_u64(count_);
  out.put_double(mean_);
  out.put_double(var_);
}

void EwmaEstimator::restore_state(WireReader& in) {
  prior_ = get_prior(in, "EwmaEstimator::restore_state");
  alpha_ = in.get_double();
  require(alpha_ > 0.0 && alpha_ <= 1.0, "EwmaEstimator::restore_state: alpha must be in (0,1]");
  count_ = static_cast<std::size_t>(in.get_u64());
  mean_ = in.get_double();
  var_ = in.get_double();
  require_restorable_moments(count_, mean_, var_, "EwmaEstimator::restore_state", "var");
}

std::unique_ptr<DistributionEstimator> make_estimator(const std::string& kind,
                                                      EstimatorPrior prior) {
  if (kind == "mean") return std::make_unique<MeanTimeEstimator>(prior);
  if (kind == "gaussian") return std::make_unique<GaussianEstimator>(prior);
  if (kind == "bootstrap") return std::make_unique<BootstrapEstimator>(prior);
  if (kind == "ewma") return std::make_unique<EwmaEstimator>(prior);
  throw InvalidInput("make_estimator: unknown estimator class '" + kind + "'");
}

}  // namespace rush
