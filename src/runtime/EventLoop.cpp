//===- runtime/EventLoop.cpp - Virtual-time event loop ----------------------===//

#include "runtime/EventLoop.h"

#include <algorithm>

using namespace wr;
using namespace wr::rt;

EventLoop::TaskId EventLoop::scheduleAt(VirtualTime When, TaskFn Fn) {
  Task T;
  T.When = std::max(When, Now);
  T.Seq = NextSeq++;
  T.Id = NextId++;
  T.Fn = std::move(Fn);
  Queue.push(std::move(T));
  return NextId - 1;
}

bool EventLoop::cancel(TaskId Id) {
  if (Id == 0 || Id >= NextId)
    return false;
  if (Cancelled.count(Id) || Finished.count(Id))
    return false;
  Cancelled.insert(Id);
  return true;
}

bool EventLoop::runOne() {
  while (!Queue.empty()) {
    Task T = Queue.top();
    Queue.pop();
    Finished.insert(T.Id);
    if (Cancelled.count(T.Id))
      continue;
    if (T.When > Horizon || Executed >= MaxTasks) {
      CutBy = T.When > Horizon ? "virtual-time horizon" : "task cap";
      for (; !Queue.empty(); Queue.pop())
        Finished.insert(Queue.top().Id);
      return false;
    }
    Now = std::max(Now, T.When);
    ++Executed;
    T.Fn();
    return true;
  }
  return false;
}

size_t EventLoop::runUntilIdle() {
  size_t Count = 0;
  while (runOne())
    ++Count;
  return Count;
}

size_t EventLoop::pendingTasks() const {
  size_t Pending = Queue.size();
  for (TaskId Id : Cancelled)
    if (!Finished.count(Id))
      --Pending;
  return Pending;
}
