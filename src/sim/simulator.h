// Discrete-event simulation engine.
//
// A minimal, deterministic event loop: callbacks are scheduled at absolute
// times and executed in time order, with FIFO ordering among events that
// share a timestamp (sequence numbers break ties, so runs are exactly
// reproducible).  An optional wave-end hook fires once after the last event
// of each timestamp batch, letting clients coalesce same-timestamp events
// into a single reaction (the cluster's batched dispatch wave).

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "src/common/types.h"

namespace rush {

class Simulator {
 public:
  using Callback = std::function<void()>;

  /// Current simulated time.  Starts at 0.
  Seconds now() const { return now_; }

  /// Schedules `callback` to run at absolute time `at` (>= now()).
  void schedule_at(Seconds at, Callback callback);

  /// Schedules `callback` to run `delay` seconds from now.
  void schedule_after(Seconds delay, Callback callback);

  /// Runs events until the queue drains or `max_time` is passed.
  /// Returns the number of events executed.
  std::size_t run(Seconds max_time = kNever);

  /// Installs a hook invoked by run() after the last executed event of each
  /// timestamp batch (i.e. when no further queued event shares now()).  The
  /// hook may schedule new events; events it adds at exactly now() extend
  /// the current batch.  Pass nullptr to clear.
  void set_wave_end(Callback hook) { wave_end_ = std::move(hook); }

  /// Number of events currently queued.
  std::size_t pending() const { return queue_.size(); }

 private:
  struct Event {
    Seconds at;
    std::uint64_t sequence;
    Callback callback;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.sequence > b.sequence;
    }
  };

  Seconds now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  Callback wave_end_;
};

}  // namespace rush
