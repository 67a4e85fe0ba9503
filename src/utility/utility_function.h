// Time-dependent job utilities (paper §II and §IV).
//
// Every job carries a non-increasing utility function U_i of its completion
// time.  The onion peeling algorithm additionally needs the inverse
// U_i^{-1}(L) = the latest completion time that still yields utility >= L
// (Section III-B), so the interface exposes both directions.

#pragma once

#include <memory>
#include <string>

#include "src/common/types.h"

namespace rush {

class UtilityFunction {
 public:
  virtual ~UtilityFunction() = default;

  /// U(T): utility of completing at absolute time T (seconds).
  /// Must be non-increasing in T and non-negative.
  [[nodiscard]] virtual Utility value(Seconds completion_time) const = 0;

  /// U^{-1}(L): the latest completion time T with U(T) >= L.
  ///  - Returns `horizon` when even U(horizon) >= L (the level is free).
  ///  - Returns -infinity when no completion time achieves L
  ///    (the level is unreachable, e.g. L above the function's maximum).
  [[nodiscard]] virtual Seconds inverse(Utility level, Seconds horizon) const = 0;

  /// inverse(level, horizon) for a caller that already holds
  /// `horizon_value` == value(horizon): the onion peel evaluates it once per
  /// job and calls this on every probe, so classes whose inverse starts with
  /// a value(horizon) test skip re-evaluating it.  Must return exactly what
  /// inverse() returns.  The default forwards to inverse(), which keeps
  /// user-defined classes correct without an override.
  [[nodiscard]] virtual Seconds inverse_known_horizon(Utility level, Seconds horizon,
                                                      Utility horizon_value) const;

  /// Name used in configs, logs and benchmark tables.
  [[nodiscard]] virtual std::string name() const = 0;

  [[nodiscard]] virtual std::unique_ptr<UtilityFunction> clone() const = 0;
};

/// Piece-wise linear class (paper §IV): U(T) = max(beta*(B - T) + W, 0).
/// Time-sensitive jobs: utility decays linearly past the budget B.
class LinearUtility final : public UtilityFunction {
 public:
  /// @param budget   absolute time budget B (seconds)
  /// @param priority weight W added at T = B
  /// @param beta     decay slope per second, beta > 0
  LinearUtility(Seconds budget, Priority priority, double beta);

  Utility value(Seconds completion_time) const override;
  Seconds inverse(Utility level, Seconds horizon) const override;
  Seconds inverse_known_horizon(Utility level, Seconds horizon,
                                Utility horizon_value) const override;
  std::string name() const override { return "linear"; }
  std::unique_ptr<UtilityFunction> clone() const override;

  Seconds budget() const { return budget_; }
  Priority priority() const { return priority_; }
  double beta() const { return beta_; }

 private:
  Seconds budget_;
  Priority priority_;
  double beta_;
};

/// Sigmoid class: U(T) = W / (1 + exp(beta * (T - B))).
///
/// Note the sign: the paper prints exp(beta*(B-T)), which is increasing in T
/// and contradicts its own non-increasing assumption; we implement the
/// non-increasing orientation (see DESIGN.md §2).  Large beta = time-critical
/// (utility collapses right after B); small beta = time-sensitive.
class SigmoidUtility final : public UtilityFunction {
 public:
  SigmoidUtility(Seconds budget, Priority priority, double beta);

  Utility value(Seconds completion_time) const override;
  Seconds inverse(Utility level, Seconds horizon) const override;
  Seconds inverse_known_horizon(Utility level, Seconds horizon,
                                Utility horizon_value) const override;
  std::string name() const override { return "sigmoid"; }
  std::unique_ptr<UtilityFunction> clone() const override;

  Seconds budget() const { return budget_; }
  Priority priority() const { return priority_; }
  double beta() const { return beta_; }

 private:
  Seconds budget_;
  Priority priority_;
  double beta_;
};

/// Constant class: U(T) = W for every T (time-insensitive jobs).
class ConstantUtility final : public UtilityFunction {
 public:
  explicit ConstantUtility(Priority priority);

  Utility value(Seconds completion_time) const override;
  Seconds inverse(Utility level, Seconds horizon) const override;
  std::string name() const override { return "constant"; }
  std::unique_ptr<UtilityFunction> clone() const override;

  Priority priority() const { return priority_; }

 private:
  Priority priority_;
};

/// Hard-deadline step class (extension beyond the paper's three built-ins,
/// matching its "users may submit their own utility classes" hook):
/// U(T) = W for T <= B, 0 afterwards.
class StepUtility final : public UtilityFunction {
 public:
  StepUtility(Seconds budget, Priority priority);

  Utility value(Seconds completion_time) const override;
  Seconds inverse(Utility level, Seconds horizon) const override;
  std::string name() const override { return "step"; }
  std::unique_ptr<UtilityFunction> clone() const override;

  Seconds budget() const { return budget_; }
  Priority priority() const { return priority_; }

 private:
  Seconds budget_;
  Priority priority_;
};

/// Factory used by the job configuration interface.  `kind` is one of
/// "linear", "sigmoid", "constant", "step".  Throws InvalidInput on an
/// unknown kind or invalid parameters.
std::unique_ptr<UtilityFunction> make_utility(const std::string& kind, Seconds budget,
                                              Priority priority, double beta);

}  // namespace rush
