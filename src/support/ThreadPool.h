//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed set of worker threads draining a task queue. Root-shard analysis
/// and batched pass-1 parsing queue closures here; wait() is the merge
/// barrier that makes their results safe to splice back into shared
/// structures. Workers run on stacks of a fixed size, so the analysis's depth
/// budget does not depend on the job count or on RLIMIT_STACK.
///
//===----------------------------------------------------------------------===//

#ifndef MC_SUPPORT_THREADPOOL_H
#define MC_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include <pthread.h>

namespace mc {

/// Fixed worker count, FIFO task queue, reusable across wait() barriers.
class ThreadPool {
public:
  /// \p Workers == 0 picks hardwareThreads().
  explicit ThreadPool(unsigned Workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Queues \p Task for execution on some worker.
  void async(std::function<void()> Task);

  /// Blocks until the queue is drained and every worker is idle. In builds
  /// with exceptions enabled, rethrows the first exception a task escaped
  /// with (the library builds with -fno-exceptions, but host programs
  /// embedding it may not). Every escaped exception — not just the first —
  /// is counted in failedTasks() so callers can tell one fault from many.
  void wait();

  /// Cumulative number of tasks that escaped with an exception over the
  /// pool's lifetime. Always 0 in -fno-exceptions builds.
  size_t failedTasks() const;

  unsigned workerCount() const { return unsigned(Workers.size()); }

  /// Stack size of every worker. The engine's path walk recurses once per
  /// block across every frame up to EngineOptions::MaxPathLength; at the
  /// default that takes a bit over 5 MiB in a Release build and 32-40 MiB
  /// under ASan. std::thread would take glibc's default instead, which comes
  /// from RLIMIT_STACK at startup and is only 2 MiB when that is unlimited.
  static constexpr size_t kWorkerStackBytes = size_t(64) << 20;

  /// Runs Fn(0..N-1) across the pool and waits. Indices are claimed
  /// dynamically so uneven per-index costs balance.
  void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

  /// std::thread::hardware_concurrency(), clamped to at least 1.
  static unsigned hardwareThreads();

private:
  static void *workerMain(void *Pool);
  void workerLoop();

  std::vector<pthread_t> Workers;
  std::deque<std::function<void()>> Queue; ///< Guarded by Mu.
  mutable std::mutex Mu;
  std::condition_variable WorkAvailable; ///< Workers sleep here.
  std::condition_variable AllIdle;       ///< wait() sleeps here.
  unsigned Active = 0;                   ///< Tasks in flight; guarded by Mu.
  bool Stop = false;                     ///< Guarded by Mu.
  size_t FailedTasks = 0;                ///< Guarded by Mu.
#if defined(__cpp_exceptions)
  std::vector<std::exception_ptr> Errors; ///< Guarded by Mu.
#endif
};

} // namespace mc

#endif // MC_SUPPORT_THREADPOOL_H
