#include "src/robust/wcde.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/error.h"
#include "src/robust/rem.h"

namespace rush {

WcdeResult solve_wcde(const QuantizedPmf& phi, Probability theta, KlRadius delta) {
  WcdeScratch scratch;
  return solve_wcde(phi, theta, delta, scratch);
}

WcdeResult solve_wcde(const QuantizedPmf& phi, Probability theta_level,
                      KlRadius delta_radius, WcdeScratch& scratch) {
  const double theta = theta_level.value();
  require(theta > 0.0 && theta < 1.0, "solve_wcde: theta must be in (0,1)");
  // Numeric kernel edge: the bisection compares raw divergences.
  const double delta = delta_radius.value();
  require(delta >= 0.0 && std::isfinite(delta),
          "solve_wcde: delta must be finite and non-negative");

  // Prefix CDF with the normalisation folded in: per bin this divides by the
  // total and accumulates left to right — exactly what a normalize() copy
  // followed by prefix_cdf() computed, without materialising either.  A PMF
  // whose total is exactly 1.0 skips the divisions (x / 1.0 == x, so the
  // skip is bit-invisible; it just saves the work).
  const std::size_t bins = phi.bins();
  const double total = phi.total_mass();
  require(total > 0.0, "solve_wcde: demand PMF has zero total mass");
  scratch.prefix.resize(bins);
  double* prefix = scratch.prefix.data();
  double sum = 0.0;
  if (total == 1.0) {
    for (std::size_t l = 0; l < bins; ++l) {
      sum += phi.mass(l);
      prefix[l] = sum;
    }
  } else {
    for (std::size_t l = 0; l < bins; ++l) {
      sum += phi.mass(l) / total;
      prefix[l] = sum;
    }
  }
  const auto last = static_cast<std::ptrdiff_t>(bins) - 1;

  // feasible(L): some distribution within the KL ball keeps CDF(L) <= theta,
  // i.e. the adversary can still push the theta-quantile beyond bin L.
  // rem_min_kl is non-decreasing in the CDF value, and the CDF is
  // non-decreasing in L, so feasibility is monotone: true on a prefix of L.
  // The theta-only log terms are hoisted out of the probes (RemThetaTerms);
  // the per-probe branches below mirror rem_min_kl's cases exactly.
  const RemThetaTerms terms = rem_theta_terms(theta_level);
  const auto feasible = [&](std::ptrdiff_t bin) {
    const double s = prefix[static_cast<std::size_t>(bin)];
    require(s >= -1e-12 && s <= 1.0 + 1e-12, "rem_min_kl: CDF value outside [0,1]");
    double kl;
    if (s <= theta) {
      kl = 0.0;
    } else if (s >= 1.0) {
      kl = std::numeric_limits<double>::infinity();
    } else {
      kl = rem_min_kl_terms(s, terms);
    }
    return kl <= delta;
  };

  // Largest feasible L in [-1, last]; L = -1 (empty prefix, CDF 0) is always
  // feasible so the bisection invariant holds from the start.
  std::ptrdiff_t lo = -1;
  std::ptrdiff_t hi = last;
  if (feasible(hi)) {
    lo = hi;
  } else {
    while (hi - lo > 1) {
      const std::ptrdiff_t mid = lo + (hi - lo) / 2;
      (feasible(mid) ? lo : hi) = mid;
    }
  }

  WcdeResult result;
  // The adversary can hold the quantile beyond bin lo but not beyond lo+1:
  // every ball member has CDF(lo+1) >= theta, so eta is the upper edge of
  // bin lo+1.  The final bin always has CDF 1 >= theta, so lo can reach at
  // most last - 1; hitting it means the adversary pushed the quantile into
  // the very last bin (eta_bin == bins), and eta is clamped to tau_max.
  const auto eta_bin = static_cast<std::size_t>(std::min(lo + 1, last));
  result.eta_bin = eta_bin + 1;  // number of guaranteed bins
  result.eta = phi.upper_edge(eta_bin);
  // The plain theta-quantile read off the prefix CDF: smallest bin whose
  // running sum reaches theta (the partial sums are the same bits
  // quantile_bin accumulates on a normalised copy), last bin as fallback.
  std::size_t quantile = bins - 1;
  for (std::size_t l = 0; l < bins; ++l) {
    if (prefix[l] >= theta) {
      quantile = l;
      break;
    }
  }
  result.reference_eta = phi.upper_edge(quantile);
  return result;
}

}  // namespace rush
