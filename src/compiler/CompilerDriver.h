//===- CompilerDriver.h - Staged model compilation driver -------*- C++-*-===//
//
// Reifies the compile pipeline as an explicit sequence of named stages
//
//   frontend -> preprocess -> integrator -> lut-analysis ->
//   emit-ir -> opt -> [vectorize -> opt] -> emit-bytecode
//
// mirroring how MLIR-based compilers (and the paper's limpetMLIR) expose
// their lowering as inspectable, re-orderable passes. Each stage returns a
// recoverable Status instead of asserting, is wrapped in a telemetry span
// and a per-stage wall-time counter (compile.stage.<name>.{ns,count}), and
// can snapshot its output IR (--print-ir-after=<stage> in limpetc).
//
// The driver is also the cache integration point: compiles are keyed by
// content (source x config x pipeline x format version) and cache hits
// re-run only the cheap AST stages — the four codegen stages (emit-ir,
// opt, vectorize, emit-bytecode) are skipped entirely, which is what makes
// warm suite runs compile-free.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_COMPILER_COMPILERDRIVER_H
#define LIMPET_COMPILER_COMPILERDRIVER_H

#include "compiler/Artifact.h"
#include "compiler/Autotuner.h"
#include "compiler/CompileCache.h"
#include "exec/CompiledModel.h"
#include "exec/NativeKernel.h"
#include "models/Registry.h"
#include "support/Status.h"

#include <optional>
#include <string>
#include <vector>

namespace limpet {
namespace compiler {

/// The ordered stages of one compile. Opt appears once in the enum but may
/// run twice (scalar function, then the vectorized clone).
enum class Stage : unsigned {
  Frontend,
  Preprocess,
  Integrator,
  LutAnalysis,
  EmitIR,
  Opt,
  Vectorize,
  EmitBytecode,
};

inline constexpr unsigned kNumStages = 8;

/// "frontend", "preprocess", "integrator", "lut-analysis", "emit-ir",
/// "opt", "vectorize", "emit-bytecode".
std::string_view stageName(Stage S);

/// Inverse of stageName; nullopt for unknown names.
std::optional<Stage> stageFromName(std::string_view Name);

/// Comma-separated list of all stage names (for error messages / --help).
std::string stageNameList();

/// True for the stages a cache hit skips (everything from emit-ir on).
bool isCodegenStage(Stage S);

struct DriverOptions {
  exec::EngineConfig Config;
  /// Which execution tier to attach (exec/NativeKernel.h). VM keeps the
  /// interpreted engines; Native emits + loads a specialized kernel and
  /// reports (but survives) toolchain failures; Auto falls back silently.
  exec::EngineTier Tier = exec::EngineTier::VM;
  /// Consult/populate the content-addressed compile cache.
  bool UseCache = true;
  /// For auto-width configs with no persisted TuningRecord: benchmark
  /// every registry point (compiler/Autotuner.h) and persist the result
  /// instead of falling back to the capability heuristic.
  bool Autotune = false;
  /// Capture an output snapshot after every stage (--print-ir-after-all).
  bool SnapshotAll = false;
  /// Capture snapshots after just these stages (--print-ir-after=...).
  std::vector<Stage> SnapshotStages;
};

/// One executed stage: which, how long, and (when requested) the textual
/// form of its output — AST expressions for the front half, IR for
/// emit-ir/opt/vectorize, disassembled bytecode for emit-bytecode.
struct StageRecord {
  Stage S = Stage::Frontend;
  uint64_t Ns = 0;
  std::string Snapshot; ///< empty unless requested
};

/// Outcome of one driver compile.
struct CompileResult {
  std::string ModelName;
  std::optional<exec::CompiledModel> Model;
  /// Why Model is absent; ok when it is present.
  Status Err;
  /// The content-address of this compile.
  uint64_t CacheKey = 0;
  uint64_t SourceHash = 0;
  bool CacheHit = false; ///< served from cache (either tier)
  bool DiskHit = false;  ///< specifically the on-disk tier
  uint64_t TotalNs = 0;
  std::vector<StageRecord> Stages;

  // Native-tier outcome (all false/ok when DriverOptions::Tier is VM).
  bool NativeAttached = false; ///< Model dispatches to a native kernel
  bool NativeCacheHit = false; ///< kernel came from a cache tier (no cc)
  bool NativeDiskHit = false;  ///< specifically the on-disk .so tier
  uint64_t NativeKey = 0;      ///< native cache key (0 before keying)
  /// Why the native tier is absent when it was requested; ok otherwise.
  /// Always recoverable — the model still runs on the VM.
  Status NativeErr;

  // Auto-width outcome (meaningful only when the driver's config had
  // Width = kWidthAuto; AutoSelected stays false otherwise).
  bool AutoSelected = false;
  TuneSource AutoSource = TuneSource::Heuristic;
  std::string AutoPointName; ///< e.g. "aosoa/w8/vm"
  double AutoRate = 0;       ///< measured cell-steps/s (0 for heuristic)
  uint64_t TuneKey = 0;      ///< the tuning-record key consulted

  explicit operator bool() const { return Model.has_value(); }
};

/// Attaches a native kernel to \p M (compile-cache key \p Key), recording
/// the outcome in \p R; a failure leaves \p M on its VM engine.
void attachNativeKernel(CompileResult &R, exec::CompiledModel &M, uint64_t Key,
                        std::string_view KernelName);

class CompilerDriver {
public:
  explicit CompilerDriver(DriverOptions Opts = {}) : Opts(std::move(Opts)) {}

  const DriverOptions &options() const { return Opts; }

  /// Compiles \p Source (model \p Name) under the driver's configuration,
  /// consulting the cache first. Never throws or aborts on bad input: all
  /// failures land in CompileResult::Err.
  CompileResult compileSource(std::string_view Name, std::string_view Source);

  /// compileSource over a registry entry.
  CompileResult compileEntry(const models::ModelEntry &Entry);

  /// Compiles \p Entries concurrently over the global thread pool
  /// (\p Threads = 0 means the pool's full width). Results are positional.
  std::vector<CompileResult>
  compileSuite(const std::vector<const models::ModelEntry *> &Entries,
               unsigned Threads = 0);

  /// Assembles a runnable model from a deserialized artifact plus the
  /// model source it claims to come from. Verifies the source hash,
  /// re-runs the AST stages (the runtime needs ModelInfo and the LUT plan
  /// for parameter rebuilds) and skips all codegen stages. The artifact's
  /// embedded config wins over the driver's.
  CompileResult loadArtifact(const Artifact &A, std::string_view Name,
                             std::string_view Source);

  /// Packages a successful compile for serialization / caching.
  static Artifact makeArtifact(const exec::CompiledModel &M,
                               std::string_view Name, uint64_t SourceHash);

private:
  /// The auto-width path: resolve the configuration (forced / record /
  /// tuned / heuristic), then compile under it with a sub-driver.
  CompileResult compileAuto(std::string_view Name, std::string_view Source);
  CompileResult compileCold(std::string_view Name, std::string_view Source);
  /// Warm path shared by cache hits and explicit artifact loads.
  CompileResult assembleFromArtifact(const Artifact &A, std::string_view Name,
                                     std::string_view Source);
  /// Attaches the native kernel tier to a successful compile when the
  /// driver targets it; failures are recorded, never fatal.
  void attachNativeTier(CompileResult &R);
  bool wantSnapshot(Stage S) const;

  DriverOptions Opts;
};

} // namespace compiler
} // namespace limpet

#endif // LIMPET_COMPILER_COMPILERDRIVER_H
