// In-memory span tracer for the traced benchmark run.
//
// Spans nest on a stack: when one closes, its duration is charged to its
// parent as child time, and its self time (duration minus child time) is
// recorded for its layer.  Planner stages are not spans (the planner times
// them itself and exposes the totals through RushScheduler::plan_stats()),
// so the scheduler decorator records their per-pass deltas as timings of
// their own and excludes them from the enclosing span's self time.  The
// result is a flat self-time split whose sum, over the session's wall time,
// is the attributed fraction.  Samples stay in memory until the session
// ends; nothing is written while the session runs.

#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <vector>

namespace rushbench {

/// Every timing the traced run reports.  Spans record self time per call
/// (kCoreAssign is core.self's span with its whole duration); planner
/// stages record one sample per planning pass.
enum class Timing : int {
  kClientBusy,
  kWireDecode,
  kWireEncode,
  kDaemonSelf,
  kEngineSelf,
  kCoreAssign,
  kCoreSelf,
  kEstimatorHook,
  kWalAppend,
  kStateSnapshot,
  kStateRestore,
  kRobustWcde,
  kTasPeel,
  kTasMap,
  kCount,
};

/// Reported name of each timing, in enum order.
inline constexpr std::array<const char*, static_cast<std::size_t>(Timing::kCount)>
    kTimingNames = {"client.busy",    "wire.decode",    "wire.encode",
                    "daemon.self",    "engine.self",    "core.assign",
                    "core.self",      "estimator.hook", "wal.append",
                    "state.snapshot", "state.restore",  "robust.wcde",
                    "tas.peel",       "tas.map"};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  /// RAII span around one call into a layer: records its self time under
  /// `self` and, if given, its whole duration under `inclusive`.  A null
  /// tracer makes it a no-op, so untraced sessions pay one branch per
  /// boundary.
  class Span {
   public:
    Span(Tracer* tracer, Timing self, Timing inclusive = Timing::kCount)
        : tracer_(tracer), self_(self), inclusive_(inclusive) {
      if (tracer_ != nullptr) tracer_->open();
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(self_, inclusive_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    Timing self_;
    Timing inclusive_;
  };

  /// Charges `us` of non-span child work (a planner stage) to the innermost
  /// open span, so it does not count as that span's self time.
  void exclude(double us) { stack_.back().child_us += us; }

  /// Records one sample of a timing measured outside the span stack.
  void record(Timing timing, double us) { samples_[index(timing)].push_back(us); }

  const std::vector<double>& samples(Timing timing) const {
    return samples_[index(timing)];
  }

  void clear() {
    for (auto& s : samples_) s.clear();
    stack_.clear();
  }

 private:
  struct Frame {
    Clock::time_point start;
    double child_us = 0.0;
  };

  static std::size_t index(Timing timing) { return static_cast<std::size_t>(timing); }

  void open() { stack_.push_back(Frame{Clock::now(), 0.0}); }

  void close(Timing self, Timing inclusive) {
    const Frame frame = stack_.back();
    stack_.pop_back();
    const double us =
        std::chrono::duration<double, std::micro>(Clock::now() - frame.start).count();
    if (!stack_.empty()) stack_.back().child_us += us;
    record(self, us - frame.child_us);
    if (inclusive != Timing::kCount) record(inclusive, us);
  }

  std::array<std::vector<double>, static_cast<std::size_t>(Timing::kCount)> samples_;
  std::vector<Frame> stack_;
};

}  // namespace rushbench
