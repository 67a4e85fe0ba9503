#include "src/utility/utility_function.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/error.h"

namespace rush {
namespace {

constexpr Seconds kUnreachable = -std::numeric_limits<Seconds>::infinity();

}  // namespace

Seconds UtilityFunction::inverse_known_horizon(Utility level, Seconds horizon,
                                               Utility /*horizon_value*/) const {
  return inverse(level, horizon);
}

LinearUtility::LinearUtility(Seconds budget, Priority priority, double beta)
    : budget_(budget), priority_(priority), beta_(beta) {
  require(budget >= 0.0, "LinearUtility: negative budget");
  require(priority >= 0.0, "LinearUtility: negative priority");
  require(beta > 0.0, "LinearUtility: beta must be positive");
}

Utility LinearUtility::value(Seconds t) const {
  return std::max(beta_ * (budget_ - t) + priority_, 0.0);
}

Seconds LinearUtility::inverse(Utility level, Seconds horizon) const {
  return inverse_known_horizon(level, horizon, value(horizon));
}

Seconds LinearUtility::inverse_known_horizon(Utility level, Seconds horizon,
                                             Utility horizon_value) const {
  if (level <= horizon_value) return horizon;
  // Solve beta*(B - T) + W = level for T; U is strictly decreasing where
  // positive, so this is exact.
  const Seconds t = budget_ + (priority_ - level) / beta_;
  if (t < 0.0) return kUnreachable;
  return std::min(t, horizon);
}

std::unique_ptr<UtilityFunction> LinearUtility::clone() const {
  return std::make_unique<LinearUtility>(*this);
}

SigmoidUtility::SigmoidUtility(Seconds budget, Priority priority, double beta)
    : budget_(budget), priority_(priority), beta_(beta) {
  require(budget >= 0.0, "SigmoidUtility: negative budget");
  require(priority > 0.0, "SigmoidUtility: priority must be positive");
  require(beta > 0.0, "SigmoidUtility: beta must be positive");
}

Utility SigmoidUtility::value(Seconds t) const {
  return priority_ / (1.0 + std::exp(beta_ * (t - budget_)));
}

Seconds SigmoidUtility::inverse(Utility level, Seconds horizon) const {
  return inverse_known_horizon(level, horizon, value(horizon));
}

Seconds SigmoidUtility::inverse_known_horizon(Utility level, Seconds horizon,
                                              Utility horizon_value) const {
  if (level <= horizon_value) return horizon;
  if (level >= priority_) return kUnreachable;  // sup U = W, never attained
  if (level <= 0.0) return horizon;
  // W / (1 + e^{beta (T-B)}) = level  =>  T = B + ln(W/level - 1)/beta.
  const Seconds t = budget_ + std::log(priority_ / level - 1.0) / beta_;
  if (t < 0.0) return kUnreachable;
  return std::min(t, horizon);
}

std::unique_ptr<UtilityFunction> SigmoidUtility::clone() const {
  return std::make_unique<SigmoidUtility>(*this);
}

ConstantUtility::ConstantUtility(Priority priority) : priority_(priority) {
  require(priority >= 0.0, "ConstantUtility: negative priority");
}

Utility ConstantUtility::value(Seconds /*t*/) const { return priority_; }

Seconds ConstantUtility::inverse(Utility level, Seconds horizon) const {
  return level <= priority_ ? horizon : kUnreachable;
}

std::unique_ptr<UtilityFunction> ConstantUtility::clone() const {
  return std::make_unique<ConstantUtility>(*this);
}

StepUtility::StepUtility(Seconds budget, Priority priority)
    : budget_(budget), priority_(priority) {
  require(budget >= 0.0, "StepUtility: negative budget");
  require(priority >= 0.0, "StepUtility: negative priority");
}

Utility StepUtility::value(Seconds t) const { return t <= budget_ ? priority_ : 0.0; }

Seconds StepUtility::inverse(Utility level, Seconds horizon) const {
  if (level <= 0.0) return horizon;
  if (level > priority_) return kUnreachable;
  return std::min(budget_, horizon);
}

std::unique_ptr<UtilityFunction> StepUtility::clone() const {
  return std::make_unique<StepUtility>(*this);
}

std::unique_ptr<UtilityFunction> make_utility(const std::string& kind, Seconds budget,
                                              Priority priority, double beta) {
  if (kind == "linear") return std::make_unique<LinearUtility>(budget, priority, beta);
  if (kind == "sigmoid") return std::make_unique<SigmoidUtility>(budget, priority, beta);
  if (kind == "constant") return std::make_unique<ConstantUtility>(priority);
  if (kind == "step") return std::make_unique<StepUtility>(budget, priority);
  throw InvalidInput("make_utility: unknown utility class '" + kind + "'");
}

}  // namespace rush
