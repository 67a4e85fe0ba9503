#include "src/robust/eta_drift.h"

#include <algorithm>
#include <cmath>

namespace rush {

double eta_drift(ContainerSeconds planned, ContainerSeconds fresh) {
  const double scale = std::max(std::abs(planned), 1.0);
  return std::abs(fresh - planned) / scale;
}

bool eta_within_tolerance(ContainerSeconds planned, ContainerSeconds fresh,
                          double tolerance) {
  if (tolerance <= 0.0) return planned == fresh;
  return eta_drift(planned, fresh) <= tolerance;
}

}  // namespace rush
