//===- runtime/EventLoop.h - Virtual-time event loop ------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic single-threaded event loop over a virtual clock. Tasks
/// are ordered by (time, sequence number); equal-time tasks run in FIFO
/// order. The paper's "environmental asynchrony" (network bandwidth, CPU
/// speed, user timing; Sec. 2.1) shows up here as the scheduled times of
/// network completions, timer expiries, and user actions - all derived
/// from one seed, so executions are replayable.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_RUNTIME_EVENTLOOP_H
#define WEBRACER_RUNTIME_EVENTLOOP_H

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace wr::rt {

/// Virtual time in microseconds.
using VirtualTime = uint64_t;

/// A deterministic task queue with a virtual clock.
class EventLoop {
public:
  using TaskFn = std::function<void()>;
  using TaskId = uint64_t;

  /// Current virtual time.
  VirtualTime now() const { return Now; }

  /// Schedules \p Fn to run at absolute time \p When (clamped to now).
  TaskId scheduleAt(VirtualTime When, TaskFn Fn);

  /// Schedules \p Fn after \p Delay microseconds.
  TaskId scheduleAfter(VirtualTime Delay, TaskFn Fn) {
    return scheduleAt(Now + Delay, std::move(Fn));
  }

  /// Cancels a scheduled task; true if it had not run yet.
  bool cancel(TaskId Id);

  /// Runs tasks until the queue is empty. Returns the number executed.
  size_t runUntilIdle();

  /// Runs at most one task; false if the queue was empty or a bound cut
  /// the run.
  bool runOne();

  /// Pending (not yet run, not cancelled) task count.
  size_t pendingTasks() const;

  /// Scheduled time of the next task (may be a cancelled one), or
  /// UINT64_MAX when the queue is empty. Lets drivers stop *before*
  /// the clock jumps past a point of interest.
  VirtualTime nextTaskTime() const {
    return Queue.empty() ? ~static_cast<VirtualTime>(0) : Queue.top().When;
  }

  /// Total tasks executed.
  uint64_t executedTasks() const { return Executed; }

  /// Bounds on the loop's whole run, so a page that never goes idle - an
  /// interval nobody clears, a timeout that reschedules itself with delay
  /// 0 - still ends. A task due after Horizon, or any task once MaxTasks
  /// have run, cuts the run: it and every pending task are dropped. Both
  /// sit more than 10x above the most any corpus site, figure page, harm
  /// replay or test reaches (803 tasks, 9.6 s).
  static constexpr VirtualTime Horizon = 100'000'000; ///< 100 s.
  static constexpr uint64_t MaxTasks = 50'000;

  /// The bound that last cut the run ("virtual-time horizon" or "task
  /// cap"), or null while none has.
  const char *cutBy() const { return CutBy; }

private:
  struct Task {
    VirtualTime When;
    uint64_t Seq;
    TaskId Id;
    TaskFn Fn;
  };
  struct TaskOrder {
    bool operator()(const Task &A, const Task &B) const {
      if (A.When != B.When)
        return A.When > B.When; // Min-heap.
      return A.Seq > B.Seq;
    }
  };

  std::priority_queue<Task, std::vector<Task>, TaskOrder> Queue;
  std::unordered_set<TaskId> Cancelled;
  std::unordered_set<TaskId> Finished;
  VirtualTime Now = 0;
  uint64_t NextSeq = 0;
  TaskId NextId = 1;
  uint64_t Executed = 0;
  const char *CutBy = nullptr;
};

} // namespace wr::rt

#endif // WEBRACER_RUNTIME_EVENTLOOP_H
