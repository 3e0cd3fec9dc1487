//===- tests/threadpool_test.cpp - support/ThreadPool unit tests --------------===//
//
// Part of the metal/xgcc reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include <pthread.h>

using namespace mc;

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.workerCount(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I < 100; ++I)
    Pool.async([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusableBarrier) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int Round = 0; Round < 3; ++Round) {
    for (int I = 0; I < 10; ++I)
      Pool.async([&Count] { ++Count; });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Round + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 50; ++I)
      Pool.async([&Count] { ++Count; });
    // No wait(): the destructor must finish the queue before joining.
  }
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(Hits.size(), [&Hits](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingle) {
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  Pool.parallelFor(0, [&Count](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 0);
  Pool.parallelFor(1, [&Count](size_t) { ++Count; });
  EXPECT_EQ(Count.load(), 1);
}

TEST(ThreadPoolTest, TasksRunOffTheCallingThread) {
  ThreadPool Pool(2);
  std::thread::id Caller = std::this_thread::get_id();
  std::mutex Mu;
  std::set<std::thread::id> Seen;
  for (int I = 0; I < 20; ++I)
    Pool.async([&] {
      std::lock_guard<std::mutex> Lock(Mu);
      Seen.insert(std::this_thread::get_id());
    });
  Pool.wait();
  EXPECT_EQ(Seen.count(Caller), 0u);
  EXPECT_GE(Seen.size(), 1u);
}

TEST(ThreadPoolTest, WorkersGetTheFixedStackSize) {
  // A thread started without a stack size gets the process default, which
  // glibc takes from RLIMIT_STACK at startup (2 MiB when it is unlimited).
  // Shrink that default to 2 MiB here: the workers must not inherit it.
  pthread_attr_t Default;
  ASSERT_EQ(pthread_getattr_default_np(&Default), 0);
  pthread_attr_t Small;
  pthread_attr_init(&Small);
  pthread_attr_setstacksize(&Small, size_t(2) << 20);
  ASSERT_EQ(pthread_setattr_default_np(&Small), 0);
  pthread_attr_destroy(&Small);

  std::mutex Mu;
  std::vector<size_t> Sizes;
  {
    ThreadPool Pool(2);
    for (int I = 0; I < 8; ++I)
      Pool.async([&] {
        pthread_attr_t Attr;
        size_t Size = 0;
        if (pthread_getattr_np(pthread_self(), &Attr) == 0) {
          pthread_attr_getstacksize(&Attr, &Size);
          pthread_attr_destroy(&Attr);
        }
        std::lock_guard<std::mutex> Lock(Mu);
        Sizes.push_back(Size);
      });
    Pool.wait();
  }
  EXPECT_EQ(pthread_setattr_default_np(&Default), 0);
  pthread_attr_destroy(&Default);

  ASSERT_EQ(Sizes.size(), 8u);
  for (size_t Size : Sizes)
    EXPECT_GE(Size, ThreadPool::kWorkerStackBytes);
}

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.workerCount(), ThreadPool::hardwareThreads());
}

TEST(ThreadPoolTest, NoFailuresMeansZeroFailedTasks) {
  // failedTasks() counts worker tasks that died with an exception; in this
  // build (and any -fno-exceptions build) it must stay 0 and wait() must
  // still act as a clean barrier afterwards.
  ThreadPool Pool(3);
  std::atomic<int> Count{0};
  for (int I = 0; I < 40; ++I)
    Pool.async([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 40);
  EXPECT_EQ(Pool.failedTasks(), 0u);
  Pool.async([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Pool.failedTasks(), 0u);
}
