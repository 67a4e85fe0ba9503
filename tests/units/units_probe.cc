// Negative fixtures for the dimensional-safety layer (DESIGN.md §5g).
//
// This translation unit is compiled by ctest (never linked into anything)
// with -fsyntax-only, once per RUSH_UNITS_PROBE value.  Probe 0 is the legal
// algebra control and must compile; every other probe commits exactly ONE
// dimensionally invalid construct and must therefore FAIL to compile (the
// ctest entries are WILL_FAIL).
//
// Each probe pins one guard in src/common/units.h: make a constructor
// implicit, loosen the narrowing requires-clause, or add a stray operator,
// and the corresponding probe's construct becomes legal, the fixture
// compiles, and the WILL_FAIL test turns red.  Unlike the thread-safety
// probes these are plain overload-resolution errors, so they run under any
// C++20 compiler, not just Clang.

#include <cstdint>

#include "src/common/units.h"

#ifndef RUSH_UNITS_PROBE
#error "compile with -DRUSH_UNITS_PROBE=<n>"
#endif

namespace rush {
namespace {

// Local id types: the probes exercise StrongId itself, not any particular
// deployment of it (the reference slot mapper's QueueId in
// src/check/slot_mapping_reference.h is one such deployment).
using LaneId = units::StrongId<struct LaneTag, int>;
using SlotId = units::StrongId<struct SlotTag, int>;

void probe() {
#if RUSH_UNITS_PROBE == 0
  // Legal: the full admitted algebra.  This probe proves the fixture and
  // flag plumbing compile at all, so a WILL_FAIL red elsewhere can only
  // mean the forbidden construct was accepted.
  constexpr units::Seconds t = units::Seconds(2.0) + units::Seconds(3.0);
  constexpr units::Seconds dt = t - units::Seconds(1.0);
  constexpr units::Seconds neg = -dt;
  constexpr units::Seconds scaled = 2.0 * t * 0.5;
  constexpr double ratio = t / dt;                              // dims cancel
  constexpr units::Containers rate = units::Containers(3) * 2;  // exact scale
  constexpr units::ContainerSeconds work = rate * t;            // cross table
  constexpr units::Seconds drain = work / rate;
  constexpr double frac = work / t;
  constexpr bool ordered = t > dt && scaled >= neg;
  constexpr Probability theta(0.95);
  constexpr KlRadius delta(0.25);
  constexpr double raw = theta.value() + delta.value();
  constexpr LaneId lane(4);
  static_assert(lane.valid() && !LaneId().valid());
  static_assert(LaneId(1) < LaneId(2) && LaneId(3) == LaneId(3));
  static_cast<void>(drain);
  static_cast<void>(frac);
  static_cast<void>(ordered);
  static_cast<void>(raw);
#elif RUSH_UNITS_PROBE == 1
  // Implicit construction from a bare double.
  units::Seconds t = 1.0;
  static_cast<void>(t);
#elif RUSH_UNITS_PROBE == 2
  // Implicit conversion back to a bare double (no conversion operator;
  // .value() is the only exit).
  double t = units::Seconds(1.0);
  static_cast<void>(t);
#elif RUSH_UNITS_PROBE == 3
  // Cross-dimension addition: a duration plus an amount of work.
  auto x = units::Seconds(1.0) + units::ContainerSeconds(1.0);
  static_cast<void>(x);
#elif RUSH_UNITS_PROBE == 4
  // Cross-dimension comparison.
  bool x = units::Seconds(1.0) < units::ContainerSeconds(1.0);
  static_cast<void>(x);
#elif RUSH_UNITS_PROBE == 5
  // Same-tag multiplication: seconds-squared is not an admitted dimension.
  auto x = units::Seconds(2.0) * units::Seconds(3.0);
  static_cast<void>(x);
#elif RUSH_UNITS_PROBE == 6
  // Narrowing construction: an int-repped quantity from a runtime double.
  auto x = units::Containers(1.5);
  static_cast<void>(x);
#elif RUSH_UNITS_PROBE == 7
  // Inexact scaling: int-repped container counts cannot take a double
  // factor (int{int * double} narrows).
  auto x = units::Containers(4) * 0.5;
  static_cast<void>(x);
#elif RUSH_UNITS_PROBE == 8
  // StrongId arithmetic: ids are names, not numbers.
  auto x = LaneId(1) + LaneId(2);
  static_cast<void>(x);
#elif RUSH_UNITS_PROBE == 9
  // Cross-tag StrongId comparison: lane 0 is not slot 0.
  bool x = LaneId(0) == SlotId(0);
  static_cast<void>(x);
#elif RUSH_UNITS_PROBE == 10
  // Implicit StrongId construction from a bare int.
  LaneId x = 3;
  static_cast<void>(x);
#elif RUSH_UNITS_PROBE == 11
  // A cross-dimension division the operator table does not define
  // (seconds per container is not an admitted dimension).
  auto x = units::Seconds(1.0) / units::Containers(2);
  static_cast<void>(x);
#elif RUSH_UNITS_PROBE == 12
  // Narrowing construction from a wider integer: the requires-clause
  // rejects it for runtime values even when the literal would fit.
  auto x = units::Containers(std::int64_t{2});
  static_cast<void>(x);
#else
#error "unknown RUSH_UNITS_PROBE value"
#endif
}

}  // namespace
}  // namespace rush
