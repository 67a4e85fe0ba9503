#include "src/core/rush_config.h"

#include <algorithm>
#include <cmath>

#include "src/common/error.h"

namespace rush {

KlRadius RushConfig::delta_for(std::size_t samples) const {
  if (!adaptive_delta || samples <= full_trust_samples) return KlRadius(delta);
  const double shrink =
      std::sqrt(static_cast<double>(full_trust_samples) / static_cast<double>(samples));
  return KlRadius(std::max(delta * shrink, delta_min));
}

void RushConfig::validate() const {
  require(theta > 0.0 && theta < 1.0, "RushConfig: theta must be in (0,1)");
  require(std::isfinite(delta) && delta >= 0.0,
          "RushConfig: delta must be finite and non-negative");
  require(bins >= 2, "RushConfig: need at least 2 bins");
  require(std::isfinite(peel_tolerance) && peel_tolerance > 0.0,
          "RushConfig: peel tolerance must be finite and positive");
  require(std::isfinite(delta_min) && delta_min >= 0.0,
          "RushConfig: delta_min must be finite and non-negative");
  require(std::isfinite(prior.mean_runtime) && prior.mean_runtime > 0.0,
          "RushConfig: prior mean must be finite and positive");
  // Estimator snapshots restore only such priors (require_restorable_prior).
  require(std::isfinite(prior.stddev_runtime) && prior.stddev_runtime >= 0.0,
          "RushConfig: prior stddev must be finite and non-negative");
}

}  // namespace rush
