//===- ThreadPool.cpp -----------------------------------------------------===//

#include "runtime/ThreadPool.h"

#include "support/Telemetry.h"

#include <cassert>
#include <chrono>
#include <cstdlib>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

using namespace limpet;
using namespace limpet::runtime;

namespace {

/// Whether LIMPET_PIN_THREADS=1 asked for worker pinning. openCARP runs
/// pin OpenMP workers so the NUMA first-touch placement of the AoSoA
/// state stays local; the analogue here is a round-robin CPU affinity for
/// the pool's workers. Off by default: pinning an oversubscribed pool
/// (32 workers on a small container) would serialize it.
bool pinningRequested() {
  const char *V = std::getenv("LIMPET_PIN_THREADS");
  return V && V[0] == '1' && V[1] == '\0';
}

/// Pins the calling thread to one CPU (round-robin by worker index).
/// Linux-only, best effort — no new dependencies, no failure path beyond
/// skipping the pin.
void pinWorkerThread(unsigned WorkerIndex) {
#if defined(__linux__)
  unsigned NumCpus = std::thread::hardware_concurrency();
  if (NumCpus == 0)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(WorkerIndex % NumCpus, &Set);
  if (pthread_setaffinity_np(pthread_self(), sizeof Set, &Set) == 0)
    telemetry::counter("pool.pinned_threads").add(1);
#else
  (void)WorkerIndex;
#endif
}

/// How long a waiter polls before it parks: enough to cover the gap
/// between back-to-back stages of one step, short enough that an idle
/// pool goes quiet at once.
constexpr std::chrono::microseconds kSpinFor{50};

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until \p Ready holds for \p Word's value: polls for kSpinFor
/// when \p Spin, then parks on the word (a futex wait on Linux). The poll
/// yields between short pause bursts: the thread that will signal may
/// share this CPU, and a pure pause loop would hold the CPU against it
/// for the whole kSpinFor, which doubles the step time of a 2-thread
/// smoke-scale tissue run.
template <typename Pred>
void spinThenPark(const std::atomic<uint32_t> &Word, bool Spin, Pred Ready) {
  if (Spin) {
    auto Until = std::chrono::steady_clock::now() + kSpinFor;
    do {
      for (int I = 0; I != 8; ++I) {
        if (Ready(Word.load(std::memory_order_acquire)))
          return;
        cpuRelax();
      }
      std::this_thread::yield();
    } while (std::chrono::steady_clock::now() < Until);
  }
  for (uint32_t V; !Ready(V = Word.load(std::memory_order_acquire));)
    Word.wait(V, std::memory_order_acquire);
}

} // namespace

ThreadPool::ThreadPool(unsigned MaxThreads)
    : Slots(std::make_unique<Slot[]>(MaxThreads)),
      SpinThreads(std::thread::hardware_concurrency()) {
  assert(MaxThreads >= 1 && "pool needs at least the calling thread");
  bool Pin = pinningRequested();
  for (unsigned I = 1; I < MaxThreads; ++I)
    Workers.emplace_back([this, I, Pin] {
      if (Pin)
        pinWorkerThread(I);
      workerMain(I);
    });
}

ThreadPool::~ThreadPool() {
  ShuttingDown.store(true, std::memory_order_release);
  for (unsigned I = 1; I <= Workers.size(); ++I) {
    Slots[I].Ticket.fetch_add(1, std::memory_order_release);
    Slots[I].Ticket.notify_one();
  }
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::staticChunk(int64_t Begin, int64_t End, unsigned Index,
                             unsigned NumThreads, int64_t &ChunkBegin,
                             int64_t &ChunkEnd) {
  int64_t Total = End - Begin;
  int64_t Base = Total / NumThreads;
  int64_t Extra = Total % NumThreads;
  // The first Extra chunks get one extra element (OpenMP static schedule).
  int64_t Lo = Begin + int64_t(Index) * Base +
               int64_t(Index < Extra ? Index : Extra);
  int64_t Hi = Lo + Base + (Index < Extra ? 1 : 0);
  ChunkBegin = Lo;
  ChunkEnd = Hi;
}

void ThreadPool::parallelFor(int64_t Begin, int64_t End, unsigned NumThreads,
                             const RangeFn &Fn) {
  if (End <= Begin)
    return;
  if (NumThreads > maxThreads())
    NumThreads = maxThreads();
  if (NumThreads <= 1) {
    Fn(Begin, End);
    return;
  }

  // One registry add per fork-join, looked up once; the workers
  // themselves only touch their thread-local telemetry shards.
  static telemetry::Counter &Dispatches =
      telemetry::counter("pool.parallel_for.calls");
  static telemetry::Counter &Chunks =
      telemetry::counter("pool.parallel_for.chunks");
  Dispatches.add(1);
  Chunks.add(NumThreads);

  // One fork-join at a time: the task slot is not reentrant, and limpetd
  // runs many Simulators against this pool concurrently. Held across the
  // barrier so a second caller never observes a half-finished dispatch.
  std::lock_guard<std::mutex> Submit(SubmitMutex);

  // Workers 1..NumThreads-1 participate; the caller runs chunk 0. The
  // release on each ticket publishes Current and Pending to its worker.
  Current = {&Fn, Begin, End, NumThreads};
  Pending.store(NumThreads - 1, std::memory_order_relaxed);
  for (unsigned I = 1; I != NumThreads; ++I) {
    Slots[I].Ticket.fetch_add(1, std::memory_order_release);
    Slots[I].Ticket.notify_one();
  }

  int64_t ChunkBegin, ChunkEnd;
  staticChunk(Begin, End, 0, NumThreads, ChunkBegin, ChunkEnd);
  if (ChunkEnd > ChunkBegin)
    Fn(ChunkBegin, ChunkEnd);

  spinThenPark(Pending, NumThreads <= SpinThreads,
               [](uint32_t Left) { return Left == 0; });
}

void ThreadPool::workerMain(unsigned WorkerIndex) {
  const std::atomic<uint32_t> &Ticket = Slots[WorkerIndex].Ticket;
  uint32_t Seen = 0;
  // Whether the last task fitted in the CPUs, so that waiting for the
  // next one may spin.
  bool Spin = false;
  while (true) {
    spinThenPark(Ticket, Spin, [&](uint32_t T) { return T != Seen; });
    // One bump per dispatch: the caller waits for this worker before it
    // can bump again.
    ++Seen;
    if (ShuttingDown.load(std::memory_order_acquire))
      return;
    Task Local = Current;
    Spin = Local.NumThreads <= SpinThreads;
    int64_t ChunkBegin, ChunkEnd;
    staticChunk(Local.Begin, Local.End, WorkerIndex, Local.NumThreads,
                ChunkBegin, ChunkEnd);
    if (ChunkEnd > ChunkBegin)
      (*Local.Fn)(ChunkBegin, ChunkEnd);
    // acq_rel: this worker's reads of Current happen before the next
    // dispatch rewrites it.
    if (Pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      Pending.notify_one();
  }
}

ThreadPool &runtime::globalThreadPool() {
  static ThreadPool Pool(32);
  return Pool;
}
