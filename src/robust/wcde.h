// Worst-Case Distribution Estimation — Algorithm 2 of the paper.
//
// Given the reference demand distribution phi_i reported by a job's
// distribution estimator, the entropy threshold delta_i and the percentile
// theta, compute eta_i: the smallest demand such that EVERY distribution
// within KL distance delta_i of phi_i places at least theta mass on
// [0, eta_i].  Allocating eta_i container-seconds to the job then satisfies
// robust constraint (3) of the RS problem.

#pragma once

#include <vector>

#include "src/common/units.h"
#include "src/stats/pmf.h"

namespace rush {

struct WcdeResult {
  /// Robust demand eta_i in container-seconds.
  ContainerSeconds eta = 0.0;
  /// eta expressed as a number of bins (bins [0, eta_bin) are guaranteed).
  /// eta_bin == phi.bins() when the adversary can push the quantile into
  /// the last bin: the support is too narrow for this (delta, theta), and
  /// eta is clamped to tau_max.
  std::size_t eta_bin = 0;
  /// The plain theta-quantile of phi itself (the delta = 0 answer); the gap
  /// eta - reference_eta is the price of robustness.
  ContainerSeconds reference_eta = 0.0;
};

/// Reusable buffers of one WCDE solve, so repeated solves (the planner's
/// memo misses, benches, audits in a loop) allocate nothing after the first
/// call.  The prefix CDF is built directly from phi's masses —
/// normalisation is folded into the accumulation, never materialised as a
/// copied PMF.
struct WcdeScratch {
  std::vector<double> prefix;
};

/// Solves WCDE by bisection over the candidate objective value L
/// (monotone feasibility, O(bins) prefix pass + O(log bins) probes).
///
/// @param phi    reference demand PMF (normalisation is folded into the
///               prefix pass; phi itself is never copied)
/// @param theta  completion probability requirement, in (0,1)
/// @param delta  KL ball radius (entropy threshold), finite and >= 0;
///               delta = 0 degenerates to the plain theta-quantile of phi
WcdeResult solve_wcde(const QuantizedPmf& phi, Probability theta, KlRadius delta);

/// Allocation-free overload: identical result, caller-owned buffers.
WcdeResult solve_wcde(const QuantizedPmf& phi, Probability theta, KlRadius delta,
                      WcdeScratch& scratch);

}  // namespace rush
