// Relative Entropy Minimisation — Algorithm 1 of the paper.
//
// Inner step of the WCDE bisection: given a reference PMF phi, a candidate
// objective value L (a bin index) and the percentile theta, find the
// distribution p closest to phi (in KL divergence) among those with
// CDF_p(L) <= theta.  The KKT conditions give the closed form of eq. (11):
// p is phi rescaled to total mass theta on bins [0, L] and 1-theta on
// (L, tau_max].  Theorem 1: this is optimal.

#pragma once

#include <cmath>
#include <cstddef>

#include "src/common/units.h"
#include "src/stats/pmf.h"

namespace rush {

struct RemResult {
  /// The minimising distribution p_{i,l} (normalised).
  QuantizedPmf worst_case;
  /// KL(p || phi); +infinity when no feasible p exists within phi's support
  /// (i.e. phi has no mass above L, so mass cannot be pushed past L).
  double kl;
};

/// Solves REM for one job.  `phi` must be normalised; `bin` is the candidate
/// objective value L as a bin index.
RemResult solve_rem(const QuantizedPmf& phi, std::size_t bin, Probability theta);

/// The theta-dependent constants of the binary-KL feasibility test, hoisted
/// out of the per-probe evaluation: a WCDE bisection evaluates rem_min_kl at
/// many CDF values s, but `theta*ln(theta)` and `(1-theta)*ln(1-theta)`
/// never change.  Computing them once per solve is bit-identical to
/// recomputing per probe: libm is deterministic, so equal theta bits give
/// equal term bits.
struct RemThetaTerms {
  /// The coverage level theta itself (raw).
  double level = 0.0;
  /// 1 - theta, the single subtraction shared by both tail factors.
  double complement = 0.0;
  /// theta * ln(theta).
  double head_entropy = 0.0;
  /// (1 - theta) * ln(1 - theta).
  double tail_entropy = 0.0;
};

/// Builds the hoisted constants; theta must be in (0,1).
RemThetaTerms rem_theta_terms(Probability theta);

/// The binary-KL divergence for the already-infeasible middle case
/// theta < s < 1, evaluated from the hoisted constants.
///
/// OPERATION ORDER CONTRACT: this inline is the *only* definition of the
/// binary-KL arithmetic — rem_min_kl and the WCDE bisection both call it,
/// so their results agree to the last bit by construction.  The order is
/// pinned to
///     (t*ln t - t*ln s) + ((1-t)*ln(1-t) - (1-t)*ln(1-s))
/// (NOT the algebraically equal t*ln(t/s) + (1-t)*ln((1-t)/(1-s)) form):
/// it keeps the divisions out of the per-probe path so only the two logs of
/// s remain hot.  Change the order here and every byte-identity matrix in
/// tests/ changes with it — do not "simplify".
inline double rem_min_kl_terms(double cdf_at_bin, const RemThetaTerms& terms) {
  return (terms.head_entropy - terms.level * std::log(cdf_at_bin)) +
         (terms.tail_entropy - terms.complement * std::log(1.0 - cdf_at_bin));
}

/// The optimal REM objective value without materialising p.
///
/// With p proportional to phi on each side of L, the divergence collapses to
/// the *binary* KL divergence between (theta, 1-theta) and (S_L, 1-S_L),
/// where S_L = CDF_phi(L):
///     minKL(L) = theta*ln(theta/S_L) + (1-theta)*ln((1-theta)/(1-S_L))
/// when S_L > theta, and 0 otherwise (phi itself is feasible).
/// Given the prefix CDF of phi this is O(1), which makes the WCDE bisection
/// O(log bins) after one O(bins) pass.  Both arguments are probabilities —
/// a CDF value and a coverage level — and typed as such.  Evaluated via
/// rem_min_kl_terms (see the operation-order contract there).
double rem_min_kl(Probability reference_cdf_at_bin, Probability theta);

}  // namespace rush
