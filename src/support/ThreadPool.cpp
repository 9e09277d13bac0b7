//===- ThreadPool.cpp -----------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>

using namespace stq;

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = 1;
  Queues.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Queues.push_back(std::make_unique<WorkerQueue>());
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> Lock(WakeM);
    Stop = true;
  }
  WakeCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

unsigned ThreadPool::defaultJobs() {
  unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : N;
}

void ThreadPool::submit(std::function<void()> Task) {
  unsigned Target = static_cast<unsigned>(
      NextQueue.fetch_add(1, std::memory_order_relaxed) % Queues.size());
  Pending.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Lock(Queues[Target]->M);
    Queues[Target]->Q.push_back(std::move(Task));
  }
  // A worker holds WakeM from its `Pending == 0` test until it sleeps on
  // WakeCv. Passing through WakeM here orders this notify after that
  // sleep (or the test after the increment), so the wakeup cannot fall
  // in between and be lost.
  { std::lock_guard<std::mutex> Lock(WakeM); }
  WakeCv.notify_one();
}

std::function<void()> ThreadPool::takeTask(unsigned Self) {
  // Own deque first, newest task first: the task most likely to have a hot
  // working set.
  {
    WorkerQueue &Mine = *Queues[Self];
    std::lock_guard<std::mutex> Lock(Mine.M);
    if (!Mine.Q.empty()) {
      std::function<void()> T = std::move(Mine.Q.back());
      Mine.Q.pop_back();
      return T;
    }
  }
  // Steal oldest-first from the other workers, scanning from the next
  // index so victims are spread evenly.
  for (size_t Off = 1; Off < Queues.size(); ++Off) {
    WorkerQueue &Victim = *Queues[(Self + Off) % Queues.size()];
    std::lock_guard<std::mutex> Lock(Victim.M);
    if (!Victim.Q.empty()) {
      std::function<void()> T = std::move(Victim.Q.front());
      Victim.Q.pop_front();
      Steals.fetch_add(1, std::memory_order_relaxed);
      return T;
    }
  }
  return {};
}

void ThreadPool::workerLoop(unsigned Index) {
  for (;;) {
    std::function<void()> Task = takeTask(Index);
    if (Task) {
      Task();
      Executed.fetch_add(1, std::memory_order_relaxed);
      if (Pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Last task done; wake any wait()ers.
        std::lock_guard<std::mutex> Lock(WakeM);
        IdleCv.notify_all();
      }
      continue;
    }
    std::unique_lock<std::mutex> Lock(WakeM);
    if (Stop)
      return;
    if (Pending.load(std::memory_order_acquire) == 0) {
      WakeCv.wait(Lock);
      continue;
    }
    // Work exists but another worker may hold it; re-scan after a brief
    // wait rather than spinning.
    WakeCv.wait_for(Lock, std::chrono::milliseconds(1));
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(WakeM);
  IdleCv.wait(Lock, [this] {
    return Pending.load(std::memory_order_acquire) == 0;
  });
}

ThreadPool::PoolStats ThreadPool::stats() const {
  PoolStats S;
  S.Executed = Executed.load(std::memory_order_relaxed);
  S.Steals = Steals.load(std::memory_order_relaxed);
  return S;
}

void TaskGroup::submit(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(M);
    ++Outstanding;
  }
  Pool.submit([this, T = std::move(Task)] {
    T();
    std::lock_guard<std::mutex> Lock(M);
    if (--Outstanding == 0)
      Cv.notify_all();
  });
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> Lock(M);
  Cv.wait(Lock, [this] { return Outstanding == 0; });
}

void stq::parallelFor(unsigned Jobs, size_t N,
                      const std::function<void(size_t)> &Fn,
                      ThreadPool::PoolStats *StatsOut, ThreadPool *Shared) {
  if (StatsOut)
    *StatsOut = {};
  if (Jobs <= 1 || N <= 1) {
    for (size_t I = 0; I < N; ++I)
      Fn(I);
    if (StatsOut)
      StatsOut->Executed = N;
    return;
  }
  if (Shared) {
    TaskGroup Group(*Shared);
    for (size_t I = 0; I < N; ++I)
      Group.submit([&Fn, I] { Fn(I); });
    Group.wait();
    if (StatsOut)
      StatsOut->Executed = N; // Steals are pool-wide, not per-group.
    return;
  }
  ThreadPool Pool(static_cast<unsigned>(std::min<size_t>(Jobs, N)));
  for (size_t I = 0; I < N; ++I)
    Pool.submit([&Fn, I] { Fn(I); });
  Pool.wait();
  if (StatsOut)
    *StatsOut = Pool.stats();
}
