// Quantized probability mass functions over demand values.
//
// The paper replaces the continuous demand PDF omega_i(v_i) with a discrete
// PMF over bins covering [0, tau_max] (Section III-A).  QuantizedPmf is that
// object: bin l represents demand values in [l*bin_width, (l+1)*bin_width).
// It supports the operations the WCDE/REM machinery needs: normalisation,
// CDF, quantiles, moments and KL divergence.

#pragma once

#include <cstddef>
#include <vector>

#include "src/common/types.h"
#include "src/common/units.h"

namespace rush {

class QuantizedPmf {
 public:
  /// An empty PMF with `bins` bins of width `bin_width` container-seconds.
  /// All mass zero until set; normalise() before use as a distribution.
  QuantizedPmf(std::size_t bins, double bin_width);

  /// Builds a PMF from raw (possibly unnormalised) weights.
  static QuantizedPmf from_weights(std::vector<double> weights, double bin_width);

  /// Impulse distribution: all mass in the bin containing `value`
  /// (the paper's mean-time estimator output).
  static QuantizedPmf impulse(double value, std::size_t bins, double bin_width);

  /// Discretised Gaussian restricted to [0, bins*bin_width): each bin gets
  /// the normal density mass of its interval, then the result is
  /// renormalised (the paper's CLT-based Gaussian estimator output).
  static QuantizedPmf gaussian(double mean, double stddev, std::size_t bins,
                               double bin_width);

  std::size_t bins() const { return mass_.size(); }
  double bin_width() const { return bin_width_; }

  /// Upper edge of the support, tau_max in the paper.
  double tau_max() const { return bin_width_ * static_cast<double>(bins()); }

  double mass(std::size_t bin) const { return mass_[bin]; }
  void set_mass(std::size_t bin, double value);
  void add_mass_at(double value, double weight);

  /// Bin index containing `value` (clamped into range).
  std::size_t bin_of(double value) const;

  /// Demand value at the upper edge of bin l — the largest demand the bin
  /// represents.  Quantile results use upper edges so that they are
  /// conservative (never under-report demand).
  double upper_edge(std::size_t bin) const {
    return bin_width_ * static_cast<double>(bin + 1);
  }

  double total_mass() const;

  /// Scales so total mass is 1.  Throws InvalidInput when total mass is 0.
  void normalize();
  bool is_normalized(double tol = 1e-9) const;

  /// CDF evaluated at bin l: sum of mass in bins [0, l].
  double cdf(std::size_t bin) const;

  /// Smallest bin l with cdf(l) >= theta; bins()-1 when theta exceeds the
  /// total mass (numerically).  Requires a normalised PMF.
  std::size_t quantile_bin(Probability theta) const;

  /// Demand value of the theta-quantile (upper edge of quantile_bin).
  double quantile_value(Probability theta) const;

  double mean() const;
  double variance() const;

  /// Kullback-Leibler divergence KL(this || reference), using the
  /// conventions 0*ln(0/q) = 0 and p>0 with q=0 => +infinity.
  /// Both PMFs must be normalised and have identical binning.
  double kl_divergence(const QuantizedPmf& reference) const;

  /// Prefix sums of mass: prefix[l] = cdf(l).  One O(bins) pass; lets REM
  /// feasibility checks run in O(1) (DESIGN.md §5).
  std::vector<double> prefix_cdf() const;

  /// Exact equality: identical binning and identical per-bin mass (no
  /// tolerance).  Two PMFs that compare equal are interchangeable inputs to
  /// every deterministic algorithm in this repo.
  friend bool operator==(const QuantizedPmf& a, const QuantizedPmf& b) {
    return a.bin_width_ == b.bin_width_ && a.mass_ == b.mass_;
  }
  friend bool operator!=(const QuantizedPmf& a, const QuantizedPmf& b) {
    return !(a == b);
  }

 private:
  std::vector<double> mass_;
  double bin_width_;
};

}  // namespace rush
