//===- BenchHarness.h - Figure/table regeneration harness -------*- C++-*-===//
//
// Shared machinery for the per-figure benchmark binaries (bench/): model
// compilation for each engine configuration, the paper's timing protocol
// (several runs, extrema dropped, rest averaged — Sec. 4), environment
// scaling knobs, geometric means and aligned table rendering.
//
// Scale note: the paper's protocol is 100,000 steps x 8,192 cells per
// model (hours per figure). The benches default to a scaled protocol and
// honour LIMPET_BENCH_CELLS / LIMPET_BENCH_STEPS / LIMPET_BENCH_REPEATS /
// LIMPET_BENCH_MODELS to approach the paper's scale when desired.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_BENCH_BENCHHARNESS_H
#define LIMPET_BENCH_BENCHHARNESS_H

#include "exec/CompiledModel.h"
#include "models/Registry.h"
#include "sim/Simulator.h"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace limpet {
namespace bench {

/// Scaled benchmark protocol (paper: Cells=8192, Steps=100000, Repeats=5
/// with the two extrema dropped).
struct BenchProtocol {
  int64_t NumCells = 4096;
  int64_t NumSteps = 100;
  int Repeats = 3;
  /// Drop the fastest and slowest run when Repeats >= 3 (paper protocol).
  bool DropExtrema = true;
  /// Run with the Simulator guard rails (health scan + fault-tolerant
  /// stepping) enabled; LIMPET_BENCH_GUARD=1 turns it on to measure the
  /// production-mode overhead.
  bool GuardRails = false;
  /// Durable-checkpoint protocol knobs: when CheckpointDir is non-empty
  /// every timed run writes rotated checkpoints (cadence CheckpointEvery
  /// steps) into a per-(model, config) subdirectory, so the NDJSON
  /// records quantify the durability overhead. LIMPET_BENCH_CHECKPOINT_DIR
  /// / LIMPET_BENCH_CHECKPOINT_EVERY set them.
  std::string CheckpointDir;
  int64_t CheckpointEvery = 0;

  /// Reads LIMPET_BENCH_* environment overrides.
  static BenchProtocol fromEnv(int64_t DefaultCells = 4096,
                               int64_t DefaultSteps = 100,
                               int DefaultRepeats = 3);
};

/// Returns the LIMPET_BENCH_MODELS filter (comma-separated names), or all
/// 43 models when unset.
std::vector<const models::ModelEntry *> selectedModels();

/// A compiled model cache keyed by (model, config) so sweeps do not
/// recompile. Compiles go through the CompilerDriver, so they also hit
/// the process-wide content-addressed compile cache (and its disk tier
/// when LIMPET_CACHE_DIR is set: warm bench runs skip codegen entirely).
class ModelCache {
public:
  /// Compiles (or returns the cached) model for (entry, config, tier).
  /// Asking for the Native tier uses EngineTier::Auto semantics under the
  /// hood — the model silently runs on the VM when the box lacks a
  /// toolchain; callers that must distinguish check usingNativeTier().
  const exec::CompiledModel &
  get(const models::ModelEntry &Entry, const exec::EngineConfig &Cfg,
      exec::EngineTier Tier = exec::EngineTier::VM);

  /// Compiles every (entry, config) pair up front, each configuration's
  /// suite fanned out concurrently over the global thread pool; later
  /// get() calls are pure lookups. Aborts on a compile failure, like
  /// get().
  void prewarm(const std::vector<const models::ModelEntry *> &Entries,
               const std::vector<exec::EngineConfig> &Configs,
               exec::EngineTier Tier = exec::EngineTier::VM);

  /// With \p On, auto-width compiles (EngineConfig::autoTuned()) with no
  /// persisted tuning record run the autotuner instead of the capability
  /// heuristic; concrete-width compiles are unaffected.
  void setAutotune(bool On) { Autotune = On; }

  size_t size() const { return Cache.size(); }

private:
  std::map<std::string, std::unique_ptr<exec::CompiledModel>> Cache;
  bool Autotune = false;
};

/// Times one simulation under the paper's protocol: returns seconds
/// (averaged after dropping extrema). When \p Report is non-null the
/// guard-rail run reports of every repeat are merged into it (faults,
/// retries, scan overhead). Every call also appends one NDJSON record to
/// $LIMPET_BENCH_STATS (see recordBenchStat); \p ConfigLabel overrides
/// the record's config field — benches timing an auto-tuned model pass
/// "auto" so the row key stays stable across machines whose tuners
/// resolve different concrete points.
double timeSimulation(const exec::CompiledModel &Model,
                      const BenchProtocol &Protocol, unsigned Threads,
                      sim::RunReport *Report = nullptr,
                      const std::string &ConfigLabel = "");

/// Replaces the bench name stamped into NDJSON records (normally set by
/// printBanner) and returns the previous one, so nested measurement
/// phases — the width autotuner runs inside compiles — label their rows
/// "autotune" without clobbering the enclosing bench's name.
std::string setBenchName(std::string Name);

/// One machine-readable benchmark timing, exported as a line of NDJSON.
struct BenchStat {
  std::string Bench;  ///< benchmark/figure name (printBanner title)
  std::string Model;  ///< model name
  std::string Config; ///< engine configuration or variant label
  unsigned Threads = 1;
  int64_t Cells = 0;
  int64_t Steps = 0;
  int Repeats = 1;
  double Seconds = 0; ///< averaged wall time of one run
  // Derived from the telemetry runtime-counter deltas around the timed
  // region; zero in telemetry-off builds.
  double NsPerCellStep = 0;
  double CellStepsPerSec = 0;
  uint64_t LutInterps = 0;
  uint64_t FastMathCalls = 0;
  uint64_t LibmCalls = 0;
  /// Modeled memory traffic of the timed region (roofline numerator),
  /// from the per-chunk static byte counts of each kernel's bytecode.
  uint64_t BytesLoaded = 0;
  uint64_t BytesStored = 0;
  /// Durable-checkpoint overhead of the timed region (deltas of the
  /// sim.checkpoint.* counters); all zero unless the protocol enables
  /// checkpointing via LIMPET_BENCH_CHECKPOINT_DIR.
  uint64_t CheckpointCount = 0;
  uint64_t CheckpointBytes = 0;
  uint64_t CheckpointNs = 0;

  /// The record as one line of JSON (no trailing newline). It also names
  /// the host ISA the process's backend registry probed ("isa"), so a
  /// baseline compare matches a record only with rows of its own ISA.
  std::string json() const;
};

/// Appends \p S to the NDJSON file named by $LIMPET_BENCH_STATS. Returns
/// false when the variable is unset or the file cannot be appended to.
bool recordBenchStat(const BenchStat &S);

/// Geometric mean (ignores non-positive entries).
double geomean(const std::vector<double> &Values);

/// Renders an aligned table: first row is the header.
std::string renderTable(const std::vector<std::vector<std::string>> &Rows);

/// Prints a standard bench banner with the protocol in use.
void printBanner(const std::string &Title, const std::string &PaperRef,
                 const BenchProtocol &Protocol);

/// "S" -> "small", 'M' -> "medium", 'L' -> "large".
std::string className(char SizeClass);

} // namespace bench
} // namespace limpet

#endif // LIMPET_BENCH_BENCHHARNESS_H
