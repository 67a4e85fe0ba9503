// Distribution Estimator (DE) units — paper §IV.
//
// One estimator is attached to each job.  It ingests completed-task runtime
// samples as YARN reports them and, on demand, produces the *reference
// distribution* phi_i of the job's remaining total demand (container-
// seconds for the remaining task count), which the WCDE step robustifies.
//
// Before enough samples exist the estimator falls back to a configured
// prior — the paper's Fig 3 quantifies exactly how many samples are needed
// before the estimate becomes trustworthy (~35% of tasks).

#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "src/common/types.h"
#include "src/common/wire.h"
#include "src/stats/pmf.h"
#include "src/stats/summary.h"

namespace rush {

/// Fallback assumptions used while a job has too few completed tasks.
struct EstimatorPrior {
  Seconds mean_runtime = 60.0;
  Seconds stddev_runtime = 30.0;
  /// Samples required before the estimator trusts its own statistics.
  std::size_t min_samples = 3;
};

/// Throws InvalidInput naming the field unless `prior` has a finite,
/// positive mean and a finite, non-negative stddev — the priors the
/// estimators are built with.  Every restore_state holds its saved prior to
/// it, so a forged snapshot cannot plant a prior no configuration produces.
void require_restorable_prior(const EstimatorPrior& prior, const std::string& context);

/// Throws InvalidInput naming the field unless (count, mean, spread) are
/// moments some sequence of finite, positive runtime samples produces: all
/// zero with no samples, else a finite positive mean and a finite,
/// non-negative spread (Welford's m2, or EWMA's variance, named by
/// `spread_name`).  The engine admits only such samples, so every
/// restore_state holds its saved moments to this.
void require_restorable_moments(std::size_t count, double mean, double spread,
                                const std::string& context, const std::string& spread_name);

class DistributionEstimator {
 public:
  virtual ~DistributionEstimator() = default;

  /// Feeds one completed-task runtime (seconds of container holding time).
  virtual void observe(Seconds runtime) = 0;

  [[nodiscard]] virtual std::size_t sample_count() const = 0;

  /// Average container runtime R_i (falls back to the prior mean until
  /// min_samples observations arrived).
  [[nodiscard]] virtual Seconds mean_runtime() const = 0;

  /// Reference PMF phi of the total demand of `remaining_tasks` tasks,
  /// quantised into `bins` bins (bin width chosen from the distribution's
  /// own scale so the support is covered with headroom).
  [[nodiscard]] virtual QuantizedPmf remaining_demand(int remaining_tasks,
                                                      std::size_t bins) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Snapshot seam (DESIGN.md §5j): serializes the estimator's raw learned
  /// state (prior + accumulated moments/samples) so a restored estimator is
  /// bit-identical to the original — same mean_runtime(), same
  /// remaining_demand() PMFs.  restore_state() overwrites the state of an
  /// estimator constructed with the same kind/configuration.
  virtual void save_state(WireWriter& out) const = 0;
  virtual void restore_state(WireReader& in) = 0;
};

/// Mean time estimator (paper §IV, estimator class (i)): an impulse at
/// remaining_tasks * mean runtime — the non-robust point estimate.
class MeanTimeEstimator final : public DistributionEstimator {
 public:
  explicit MeanTimeEstimator(EstimatorPrior prior = {});

  void observe(Seconds runtime) override;
  std::size_t sample_count() const override { return stats_.count(); }
  Seconds mean_runtime() const override;
  QuantizedPmf remaining_demand(int remaining_tasks, std::size_t bins) const override;
  std::string name() const override { return "mean"; }
  void save_state(WireWriter& out) const override;
  void restore_state(WireReader& in) override;

 private:
  EstimatorPrior prior_;
  OnlineStats stats_;
};

/// Gaussian estimator (paper §IV, estimator class (ii)): by the central
/// limit theorem the sum of n i.i.d. task runtimes is approximately
/// N(n*mu, n*sigma^2); mu and sigma are the sample moments.
class GaussianEstimator final : public DistributionEstimator {
 public:
  explicit GaussianEstimator(EstimatorPrior prior = {});

  void observe(Seconds runtime) override;
  std::size_t sample_count() const override { return stats_.count(); }
  Seconds mean_runtime() const override;
  QuantizedPmf remaining_demand(int remaining_tasks, std::size_t bins) const override;
  std::string name() const override { return "gaussian"; }
  void save_state(WireWriter& out) const override;
  void restore_state(WireReader& in) override;

  Seconds stddev_runtime() const;

 private:
  EstimatorPrior prior_;
  OnlineStats stats_;
};

/// Bootstrap estimator (extension, the paper's "customisable machine
/// learning techniques" hook): Monte-Carlo resamples sums of n observed
/// runtimes, capturing skew the Gaussian approximation misses.
class BootstrapEstimator final : public DistributionEstimator {
 public:
  /// @param resamples number of bootstrap sums per query
  /// @param seed      deterministic resampling stream
  explicit BootstrapEstimator(EstimatorPrior prior = {}, std::size_t resamples = 256,
                              std::uint64_t seed = 17);

  void observe(Seconds runtime) override;
  std::size_t sample_count() const override { return samples_.size(); }
  Seconds mean_runtime() const override;
  QuantizedPmf remaining_demand(int remaining_tasks, std::size_t bins) const override;
  std::string name() const override { return "bootstrap"; }
  void save_state(WireWriter& out) const override;
  void restore_state(WireReader& in) override;

 private:
  EstimatorPrior prior_;
  std::vector<Seconds> samples_;
  OnlineStats stats_;
  std::size_t resamples_;
  std::uint64_t seed_;
};

/// Exponentially-weighted estimator (extension): tracks decayed moving
/// moments, so it adapts to *non-stationary* runtimes — e.g. a cluster that
/// slows down as co-located load grows — faster than the flat-window
/// Gaussian estimator, at the price of higher variance on stationary data.
class EwmaEstimator final : public DistributionEstimator {
 public:
  /// @param alpha smoothing factor in (0, 1]; weight of the newest sample.
  explicit EwmaEstimator(EstimatorPrior prior = {}, double alpha = 0.15);

  void observe(Seconds runtime) override;
  std::size_t sample_count() const override { return count_; }
  Seconds mean_runtime() const override;
  QuantizedPmf remaining_demand(int remaining_tasks, std::size_t bins) const override;
  std::string name() const override { return "ewma"; }
  void save_state(WireWriter& out) const override;
  void restore_state(WireReader& in) override;

  Seconds stddev_runtime() const;

 private:
  EstimatorPrior prior_;
  double alpha_;
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double var_ = 0.0;
};

/// Factory for configuration files: kind is "mean", "gaussian", "bootstrap"
/// or "ewma".  Throws InvalidInput on unknown kinds.
std::unique_ptr<DistributionEstimator> make_estimator(const std::string& kind,
                                                      EstimatorPrior prior = {});

}  // namespace rush
