//===- ThreadPoolTests.cpp - runtime/ThreadPool unit tests ---------------------===//

#include "runtime/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <gtest/gtest.h>
#include <numeric>

using namespace limpet::runtime;

namespace {

TEST(StaticChunk, PartitionsEvenly) {
  int64_t B, E;
  ThreadPool::staticChunk(0, 100, 0, 4, B, E);
  EXPECT_EQ(B, 0);
  EXPECT_EQ(E, 25);
  ThreadPool::staticChunk(0, 100, 3, 4, B, E);
  EXPECT_EQ(B, 75);
  EXPECT_EQ(E, 100);
}

TEST(StaticChunk, DistributesRemainderToFirstChunks) {
  // 10 elements over 4 threads: 3,3,2,2.
  int64_t Sizes[4];
  for (unsigned I = 0; I != 4; ++I) {
    int64_t B, E;
    ThreadPool::staticChunk(0, 10, I, 4, B, E);
    Sizes[I] = E - B;
  }
  EXPECT_EQ(Sizes[0], 3);
  EXPECT_EQ(Sizes[1], 3);
  EXPECT_EQ(Sizes[2], 2);
  EXPECT_EQ(Sizes[3], 2);
}

TEST(StaticChunk, CoversRangeExactlyOnce) {
  for (int64_t N : {1, 7, 31, 100, 8192}) {
    for (unsigned T : {1u, 2u, 3u, 8u, 32u}) {
      int64_t Covered = 0;
      int64_t PrevEnd = 0;
      for (unsigned I = 0; I != T; ++I) {
        int64_t B, E;
        ThreadPool::staticChunk(0, N, I, T, B, E);
        EXPECT_EQ(B, PrevEnd);
        EXPECT_LE(B, E);
        Covered += E - B;
        PrevEnd = E;
      }
      EXPECT_EQ(Covered, N) << "N=" << N << " T=" << T;
      EXPECT_EQ(PrevEnd, N);
    }
  }
}

TEST(ThreadPool, ExecutesAllElements) {
  ThreadPool Pool(8);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(0, 1000, 8, [&](int64_t B, int64_t E) {
    for (int64_t I = B; I != E; ++I)
      Hits[size_t(I)]++;
  });
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool Pool(4);
  std::thread::id Caller = std::this_thread::get_id();
  std::thread::id Executor;
  Pool.parallelFor(0, 10, 1,
                   [&](int64_t, int64_t) { Executor = std::this_thread::get_id(); });
  EXPECT_EQ(Executor, Caller);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool Pool(4);
  bool Ran = false;
  Pool.parallelFor(5, 5, 4, [&](int64_t, int64_t) { Ran = true; });
  EXPECT_FALSE(Ran);
}

TEST(ThreadPool, ClampsThreadCount) {
  ThreadPool Pool(2);
  std::atomic<int64_t> Sum{0};
  Pool.parallelFor(0, 100, 64, [&](int64_t B, int64_t E) {
    Sum += E - B;
  });
  EXPECT_EQ(Sum.load(), 100);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  ThreadPool Pool(4);
  std::atomic<int64_t> Total{0};
  for (int Round = 0; Round != 200; ++Round)
    Pool.parallelFor(0, 64, 4, [&](int64_t B, int64_t E) {
      Total += E - B;
    });
  EXPECT_EQ(Total.load(), 200 * 64);
}

TEST(ThreadPool, MoreThreadsThanElements) {
  ThreadPool Pool(8);
  std::atomic<int64_t> Sum{0};
  Pool.parallelFor(0, 3, 8, [&](int64_t B, int64_t E) { Sum += E - B; });
  EXPECT_EQ(Sum.load(), 3);
}

TEST(ThreadPool, ChunkRunsOnTheSameWorkerEveryInvocation) {
  ThreadPool Pool(4);
  std::vector<std::thread::id> First(4), Now(4);
  auto Record = [&](std::vector<std::thread::id> &Ids) {
    Pool.parallelFor(0, 4, 4, [&](int64_t B, int64_t E) {
      for (int64_t I = B; I != E; ++I)
        Ids[size_t(I)] = std::this_thread::get_id();
    });
  };
  Record(First);
  EXPECT_EQ(First[0], std::this_thread::get_id());
  for (int Round = 0; Round != 50; ++Round) {
    // A narrower fork-join in between leaves workers 2 and 3 parked.
    Pool.parallelFor(0, 2, 2, [](int64_t, int64_t) {});
    Record(Now);
    ASSERT_EQ(Now, First) << "round " << Round;
  }
}

TEST(ThreadPool, ConcurrentCallersEachGetTheirFullRange) {
  ThreadPool Pool(4);
  std::atomic<int64_t> Total{0};
  std::vector<std::thread> Callers;
  for (unsigned C = 0; C != 3; ++C)
    Callers.emplace_back([&, C] {
      for (int Round = 0; Round != 100; ++Round)
        Pool.parallelFor(0, 64, 2 + C % 3, [&](int64_t B, int64_t E) {
          Total += E - B;
        });
    });
  for (std::thread &T : Callers)
    T.join();
  EXPECT_EQ(Total.load(), 3 * 100 * 64);
}

TEST(ThreadPool, OversubscribedForkJoinCompletes) {
  // Wider than the host's CPUs, so every waiter parks without spinning.
  unsigned Wide = std::max(std::thread::hardware_concurrency(), 1u) + 2;
  ThreadPool Pool(Wide);
  std::atomic<int64_t> Total{0};
  for (int Round = 0; Round != 20; ++Round)
    Pool.parallelFor(0, 1000, Wide, [&](int64_t B, int64_t E) {
      Total += E - B;
    });
  EXPECT_EQ(Total.load(), 20 * 1000);
}

TEST(ThreadPool, GlobalPoolProvides32Way) {
  EXPECT_EQ(globalThreadPool().maxThreads(), 32u);
}

} // namespace
