//===- support/ThreadPool.cpp - Fixed-size worker pool -------------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

using namespace mc;

unsigned ThreadPool::hardwareThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

ThreadPool::ThreadPool(unsigned WorkerCount) {
  if (WorkerCount == 0)
    WorkerCount = hardwareThreads();
  pthread_attr_t Attr;
  pthread_attr_init(&Attr);
  pthread_attr_setstacksize(&Attr, kWorkerStackBytes);
  Workers.resize(WorkerCount);
  for (pthread_t &W : Workers)
    if (pthread_create(&W, &Attr, &ThreadPool::workerMain, this) != 0) {
      // What std::thread does without exceptions: there is no pool to run on.
      std::fputs("fatal: cannot start a worker thread\n", stderr);
      std::abort();
    }
  pthread_attr_destroy(&Attr);
}

void *ThreadPool::workerMain(void *Pool) {
  static_cast<ThreadPool *>(Pool)->workerLoop();
  return nullptr;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stop = true;
  }
  WorkAvailable.notify_all();
  for (pthread_t W : Workers)
    pthread_join(W, nullptr);
}

void ThreadPool::async(std::function<void()> Task) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Queue.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      WorkAvailable.wait(Lock, [this] { return Stop || !Queue.empty(); });
      if (Queue.empty())
        return; // Stop requested and everything already ran.
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++Active;
    }
#if defined(__cpp_exceptions)
    try {
      Task();
    } catch (...) {
      std::lock_guard<std::mutex> Lock(Mu);
      Errors.push_back(std::current_exception());
      ++FailedTasks;
    }
#else
    Task();
#endif
    {
      std::lock_guard<std::mutex> Lock(Mu);
      --Active;
      if (Queue.empty() && Active == 0)
        AllIdle.notify_all();
    }
  }
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mu);
  AllIdle.wait(Lock, [this] { return Queue.empty() && Active == 0; });
#if defined(__cpp_exceptions)
  // Every failed task was recorded (and counted in FailedTasks, which
  // survives the rethrow); propagate the earliest failure to the caller.
  if (!Errors.empty()) {
    std::exception_ptr E = Errors.front();
    Errors.clear();
    std::rethrow_exception(E);
  }
#endif
}

size_t ThreadPool::failedTasks() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return FailedTasks;
}

void ThreadPool::parallelFor(size_t N, const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  auto Next = std::make_shared<std::atomic<size_t>>(0);
  size_t Spawn = std::min<size_t>(N, Workers.size());
  for (size_t W = 0; W != Spawn; ++W)
    async([Next, N, &Fn] {
      for (size_t I = (*Next)++; I < N; I = (*Next)++)
        Fn(I);
    });
  wait();
}
