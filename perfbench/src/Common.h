//===- Common.h - Shared benchmark plumbing ---------------------*- C++-*-===//
//
// Run arguments, the op ledger behind `attempted`/`failed`, the metric
// lists a workload returns, and the helpers every workload shares: the
// native-kernel priming rule, counter snapshots, the host calibration
// loop and the dispatch/barrier probe.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "Spans.h"

#include "compiler/CompilerDriver.h"
#include "support/Telemetry.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Caches, daemon state dirs and traces, relative to the checkout root
  /// the benchmark runs from.
  std::string WorkDir = ".bench_build/perfbench/work";
};

/// Attempted and failed ops. An op fails on a wrong checksum, a
/// non-finite state, a native tier that did not attach, a job that did
/// not finish, a rejected submit or a wrong quarantine count.
struct Ledger {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  std::vector<std::string> Misses; ///< the first few failure reasons

  void pass(int64_t Ops = 1) { Attempted += Ops; }
  void fail(std::string Why, int64_t Ops = 1);
  double failedRatio() const {
    return Attempted ? double(Failed) / double(Attempted) : 0;
  }
};

/// Bitwise equality of two doubles (NaN payloads included).
bool sameBits(double A, double B);

/// Records \p Ops ops as passed when \p Got equals \p Want bit for bit and
/// is finite, else as failed with a reason naming \p What.
bool checkChecksum(Ledger &L, std::string_view What, double Want, double Got,
                   int64_t Ops = 1);

/// "%.17g", the daemon's wire form of a checksum.
std::string checksumText(double V);

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// A metric as BENCHMARK.json declares it.
struct MetricDecl {
  const char *Name;
  const char *Unit;
  const char *Better; ///< "higher" or "lower"
};

/// Every end-to-end metric; each workload reports all of them.
const std::vector<MetricDecl> &endToEndMetrics();
/// Every per-layer metric of the traced mode, in report order; a
/// workload that bypasses a layer reports 0 for it.
const std::vector<MetricDecl> &perLayerMetrics();

/// What one workload pass returns.
struct WorkloadResult {
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer; ///< filled only when traced
  std::vector<std::string> Notes; ///< human-readable lines
  Ledger Ops;

  void e2e(std::string Name, double V, std::string Unit) {
    EndToEnd.push_back({std::move(Name), V, std::move(Unit)});
  }
  void layer(std::string Name, double V, std::string Unit) {
    PerLayer.push_back({std::move(Name), V, std::move(Unit)});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  double value(std::string_view Name) const;
};

WorkloadResult runIonic(const Args &A, Tracer *T);
WorkloadResult runTissue(const Args &A, Tracer *T);
WorkloadResult runDaemon(const Args &A, Tracer *T);

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

double secondsSince(Clock::time_point T0);
double peakRssMb();

/// A fixed benchmark-owned reference loop; returns its wall time in ms.
/// Interleaved with ops so host drift can be told from program changes.
/// Diagnostic only: it never adjusts or gates a metric.
double hostCalibMs();

/// Median wall time in us of an empty Scheduler::forEachShard over a
/// 2048-cell plan at \p Threads threads.
double dispatchBarrierUs(unsigned Threads, int Reps);

/// Points the process's compile cache at \p Dir, emptied first, and
/// clears the in-process tiers. Every workload pass starts here and then
/// emits and compiles its native kernels anew (untimed), so a rebuilt
/// library never attaches a kernel that an older build left in \p Dir.
void useEmptyCache(const std::string &Dir);

/// Empties the in-process tiers (compile-cache memory, native registry)
/// and removes compiled artifacts from the disk tier, keeping the primed
/// native .so files: the next compile runs limpet's codegen and attaches
/// its kernel with a disk hit and dlopen, but never runs the C++ compiler.
void coldenCaches();

/// Compiles registry model \p Name under limpetMLIR(8) on \p Tier with
/// the compile cache bypassed. Spans: compiler.
limpet::compiler::CompileResult compileModel(Tracer *T, const std::string &Name,
                                             limpet::exec::EngineTier Tier);

/// Why \p R cannot serve a \p Tier case (compile error, or a native
/// tier that did not attach); empty when it can.
std::string unusable(const limpet::compiler::CompileResult &R,
                     limpet::exec::EngineTier Tier);

/// Runtime-counter growth since \p Before.
limpet::telemetry::RuntimeCounters
runtimeSince(const limpet::telemetry::RuntimeCounters &Before);

/// One case's op times in ms: the mean (the case's rate is its work per
/// op over this), the median and the nearest-rank p90.
struct CaseTimes {
  double MeanMs = 0;
  double MedianMs = 0;
  double P90Ms = 0;
};

/// Summarises a case's op times (\p OpSec, seconds) and adds a report
/// line with its mean, quartiles and the number of samples beyond its p90.
CaseTimes summarizeCase(WorkloadResult &R, const std::string &Label,
                        int64_t StepsPerOp, const std::vector<double> &OpSec);

/// A snapshot of the telemetry registry.
struct Counters {
  std::vector<std::pair<std::string, uint64_t>> Reg;
  static Counters now();
  uint64_t get(std::string_view Path) const;
};

/// Counter delta B - A of \p Path.
inline double delta(const Counters &A, const Counters &B,
                    std::string_view Path) {
  return double(B.get(Path)) - double(A.get(Path));
}

/// Seconds per native C++ compile between snapshots \p A and \p B (0
/// when none ran).
double ccSecondsEach(const Counters &A, const Counters &B);

/// Per-layer metrics every traced pass reports the same way: compile
/// stage times over the set-up's cold compiles, LUT builds, and the
/// self-time table of \p T. \p Ops is the op count the table is divided
/// by.
void addCommonLayerMetrics(WorkloadResult &R, const Tracer &T,
                           const Counters &SetupBefore,
                           const Counters &SetupAfter, int64_t Compiles,
                           int64_t Ops);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
