//===- ThreadPool.h - Work-stealing thread pool -----------------*- C++ -*-===//
//
// Part of the stq project: a reproduction of "Semantic Type Qualifiers"
// (Chin, Markstrum, Millstein; PLDI 2005).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small work-stealing thread pool shared by the parallel checking
/// pipeline: the qualifier checker shards functions across it and the
/// soundness checker fans proof obligations out over it. Each worker owns a
/// deque; it pops its own work LIFO (cache-friendly) and steals FIFO from
/// victims when idle. Tasks may submit further tasks.
///
/// Determinism contract: the pool schedules tasks in an arbitrary order, so
/// callers that need reproducible output (diagnostics!) must write results
/// into preassigned slots and merge them in task-index order after wait().
/// `parallelFor` does exactly that.
///
//===----------------------------------------------------------------------===//

#ifndef STQ_SUPPORT_THREADPOOL_H
#define STQ_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace stq {

class ThreadPool {
public:
  /// Counters describing one pool's lifetime, for `stqc --metrics`.
  struct PoolStats {
    uint64_t Executed = 0; ///< Tasks run to completion.
    uint64_t Steals = 0;   ///< Tasks taken from another worker's deque.
  };

  /// Spawns \p Threads workers (at least one).
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Task. Tasks must not throw; exceptions terminate.
  void submit(std::function<void()> Task);

  /// Blocks until every submitted task (including tasks submitted by
  /// tasks) has finished.
  void wait();

  unsigned threadCount() const { return static_cast<unsigned>(Workers.size()); }
  PoolStats stats() const;

  /// The job count to use when the user passes no --jobs: the hardware
  /// concurrency, with 1 as the fallback when it is unknown.
  static unsigned defaultJobs();

private:
  struct WorkerQueue {
    std::mutex M;
    std::deque<std::function<void()>> Q;
  };

  void workerLoop(unsigned Index);
  /// Pops from the worker's own deque (back) or steals from a victim's
  /// (front). Returns an empty function when no work is available.
  std::function<void()> takeTask(unsigned Self);

  std::vector<std::unique_ptr<WorkerQueue>> Queues;
  std::vector<std::thread> Workers;

  std::mutex WakeM;
  std::condition_variable WakeCv;  ///< Signals "new work or shutdown".
  std::condition_variable IdleCv;  ///< Signals "Pending may have hit zero".
  bool Stop = false;

  std::atomic<uint64_t> Pending{0};  ///< Submitted but not yet completed.
  std::atomic<uint64_t> NextQueue{0}; ///< Round-robin submission cursor.
  std::atomic<uint64_t> Executed{0};
  std::atomic<uint64_t> Steals{0};
};

/// A completion scope over a shared ThreadPool: tracks only the tasks
/// submitted through it, so several callers (the stqd request workers) can
/// fan work into one process-wide pool and each wait for just their own
/// batch. ThreadPool::wait() waits for *everything* pending, which under a
/// server's sustained load may never drain; a TaskGroup's wait() cannot
/// starve that way. Tasks submitted through a group must not wait on
/// another group from inside the pool (no nested fan-out).
class TaskGroup {
public:
  explicit TaskGroup(ThreadPool &Pool) : Pool(Pool) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup &) = delete;
  TaskGroup &operator=(const TaskGroup &) = delete;

  /// Enqueues \p Task on the shared pool, counted against this group.
  void submit(std::function<void()> Task);
  /// Blocks until every task submitted through this group has finished.
  void wait();

private:
  ThreadPool &Pool;
  std::mutex M;
  std::condition_variable Cv;
  size_t Outstanding = 0;
};

/// Runs Fn(0) .. Fn(N-1) across \p Jobs workers and returns once all calls
/// finished. Jobs <= 1 (or N <= 1) runs inline on the caller's thread,
/// which is the deterministic sequential baseline. \p StatsOut, when
/// non-null, receives the pool's counters.
///
/// When \p Shared is non-null the iterations are fanned into that
/// long-lived pool through a TaskGroup instead of spawning a fresh pool:
/// the stqd daemon shares one pool across all requests. Per-call Steals
/// are not attributable on a shared pool and report as 0; Executed still
/// reports N.
void parallelFor(unsigned Jobs, size_t N,
                 const std::function<void(size_t)> &Fn,
                 ThreadPool::PoolStats *StatsOut = nullptr,
                 ThreadPool *Shared = nullptr);

} // namespace stq

#endif // STQ_SUPPORT_THREADPOOL_H
