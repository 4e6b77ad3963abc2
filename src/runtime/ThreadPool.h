//===- ThreadPool.h - Static-schedule parallel for --------------*- C++-*-===//
//
// The reproduction's analogue of `#pragma omp parallel for
// schedule(static)` over the cell range (paper Listing 2): a persistent
// pool of workers executing contiguous chunks of [begin, end), with the
// calling thread participating. The per-invocation synchronization cost is
// intentionally real — the paper's small models are dominated by exactly
// this overhead at high thread counts (Sec. 4.2). The wait policy is
// libgomp's default one: a fork-join wakes only the workers it uses, and
// waiters spin briefly before parking, so back-to-back stages do not pay
// a futex wake-up.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_RUNTIME_THREADPOOL_H
#define LIMPET_RUNTIME_THREADPOOL_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace limpet {
namespace runtime {

/// A chunk worker: processes cells [Begin, End).
using RangeFn = std::function<void(int64_t Begin, int64_t End)>;

/// Persistent worker pool with a fork-join parallelFor.
///
/// parallelFor may be called from any thread, including concurrently:
/// the pool holds a single task slot, so concurrent fork-joins serialize
/// on a submission mutex (each completes its barrier before the next
/// dispatches). Within one invocation the static chunk-to-worker mapping
/// is unchanged, so the Scheduler's persistent shard-to-thread assignment
/// still holds per caller. This is what lets limpetd multiplex many
/// concurrent Simulators over the one shared pool.
///
/// Each worker parks on its own ticket word; a dispatch bumps the tickets
/// of workers 1..NumThreads-1 only, and the last worker to finish wakes
/// the caller. Waiters poll for a few tens of microseconds, yielding the
/// CPU between polls, before they park, but only when the fork-join fits
/// in the host's CPUs: an oversubscribed loop would spin on a CPU a chunk
/// still needs.
class ThreadPool {
public:
  /// Creates a pool able to run up to \p MaxThreads-way parallel loops
  /// (including the calling thread); spawns MaxThreads-1 workers.
  explicit ThreadPool(unsigned MaxThreads);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned maxThreads() const { return unsigned(Workers.size()) + 1; }

  /// Splits [Begin, End) into \p NumThreads contiguous chunks (static
  /// schedule) and runs \p Fn on them in parallel. Blocks until all chunks
  /// complete. NumThreads is clamped to maxThreads(); NumThreads <= 1 runs
  /// inline with no synchronization.
  void parallelFor(int64_t Begin, int64_t End, unsigned NumThreads,
                   const RangeFn &Fn);

  /// The static chunk [ChunkBegin, ChunkEnd) of thread \p Index out of
  /// \p NumThreads over [Begin, End). Exposed for tests.
  static void staticChunk(int64_t Begin, int64_t End, unsigned Index,
                          unsigned NumThreads, int64_t &ChunkBegin,
                          int64_t &ChunkEnd);

private:
  struct Task {
    const RangeFn *Fn = nullptr;
    int64_t Begin = 0, End = 0;
    unsigned NumThreads = 0;
  };
  /// A worker's ticket, on its own cache line: bumped to hand the worker
  /// the current task, and the word the worker parks on.
  struct alignas(64) Slot {
    std::atomic<uint32_t> Ticket{0};
  };

  void workerMain(unsigned WorkerIndex);

  std::vector<std::thread> Workers;
  std::unique_ptr<Slot[]> Slots; ///< indexed by worker; slot 0 unused
  /// Fork-joins up to this many threads wait by spinning first.
  unsigned SpinThreads;
  /// Serializes whole fork-joins from concurrent callers, and with them
  /// every write of Current.
  std::mutex SubmitMutex;
  Task Current;
  /// Workers still running the current task.
  std::atomic<uint32_t> Pending{0};
  std::atomic<bool> ShuttingDown{false};
};

/// Process-wide pool sized for the bench sweeps (32 threads, matching the
/// paper's largest configuration). Created on first use.
ThreadPool &globalThreadPool();

} // namespace runtime
} // namespace limpet

#endif // LIMPET_RUNTIME_THREADPOOL_H
