//===- CompilerDriver.cpp -------------------------------------------------===//

#include "compiler/CompilerDriver.h"

#include "codegen/Vectorize.h"
#include "compiler/KernelEmitter.h"
#include "easyml/Sema.h"
#include "exec/BytecodeCompiler.h"
#include "ir/Printer.h"
#include "runtime/ThreadPool.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <array>

using namespace limpet;
using namespace limpet::compiler;
using namespace limpet::codegen;

//===----------------------------------------------------------------------===//
// Stage names
//===----------------------------------------------------------------------===//

static constexpr std::array<std::string_view, kNumStages> kStageNames = {
    "frontend",  "preprocess", "integrator", "lut-analysis",
    "emit-ir",   "opt",        "vectorize",  "emit-bytecode",
};

std::string_view compiler::stageName(Stage S) {
  return kStageNames[unsigned(S)];
}

std::optional<Stage> compiler::stageFromName(std::string_view Name) {
  for (unsigned I = 0; I != kNumStages; ++I)
    if (kStageNames[I] == Name)
      return Stage(I);
  return std::nullopt;
}

std::string compiler::stageNameList() {
  std::string Out;
  for (std::string_view N : kStageNames) {
    if (!Out.empty())
      Out += ", ";
    Out += N;
  }
  return Out;
}

bool compiler::isCodegenStage(Stage S) { return S >= Stage::EmitIR; }

//===----------------------------------------------------------------------===//
// Stage execution plumbing
//===----------------------------------------------------------------------===//

namespace {

/// Runs \p Fn as stage \p S of \p R: telemetry span, per-stage counters,
/// and a StageRecord appended to the result.
template <typename Fn>
StageRecord &runStage(CompileResult &R, Stage S, Fn &&Body) {
  std::string Name(stageName(S));
  telemetry::TraceSpan Span("stage:" + Name, "compile");
  telemetry::counter("compile.stage." + Name + ".count").add(1);
  telemetry::Clock::time_point T0 = telemetry::Clock::now();
  Body();
  uint64_t Ns = telemetry::nanosecondsSince(T0);
  telemetry::counter("compile.stage." + Name + ".ns").add(Ns);
  R.Stages.push_back(StageRecord{S, Ns, ""});
  return R.Stages.back();
}

std::string snapshotExprStage(const ModelProgram &P, Stage S) {
  std::string Out = "// after " + std::string(stageName(S)) + ": model " +
                    P.Info.Name + "\n";
  if (S == Stage::Preprocess) {
    for (const easyml::StateVarInfo &Sv : P.Info.StateVars)
      Out += "diff_" + Sv.Name + " = " +
             (Sv.Diff ? easyml::printExpr(*Sv.Diff) : "<null>") + "\n";
    return Out;
  }
  for (size_t I = 0; I != P.StateUpdates.size(); ++I)
    Out += P.Info.StateVars[I].Name + "' = " +
           (P.StateUpdates[I] ? easyml::printExpr(*P.StateUpdates[I])
                              : "<null>") +
           "\n";
  if (S == Stage::LutAnalysis) {
    for (const LutTablePlan &T : P.Luts.Tables) {
      Out += "lut " + T.Spec.VarName + " [" + std::to_string(T.Spec.Lo) +
             ", " + std::to_string(T.Spec.Hi) + "] step " +
             std::to_string(T.Spec.Step) + ", " +
             std::to_string(T.Columns.size()) + " columns\n";
      for (const easyml::ExprPtr &Col : T.Columns)
        Out += "  col = " + easyml::printExpr(*Col) + "\n";
    }
  }
  return Out;
}

std::string snapshotFrontend(const easyml::ModelInfo &Info) {
  return "// after frontend: model " + Info.Name + ": " +
         std::to_string(Info.StateVars.size()) + " state vars, " +
         std::to_string(Info.Params.size()) + " params, " +
         std::to_string(Info.Externals.size()) + " externals, " +
         std::to_string(Info.Luts.size()) + " lut specs\n";
}

CodeGenOptions codegenOptions(const exec::EngineConfig &Cfg) {
  CodeGenOptions Options;
  Options.Layout = Cfg.Layout;
  Options.AoSoABlockWidth = Cfg.Width;
  Options.EnableLuts = Cfg.EnableLuts;
  Options.CubicLut = Cfg.CubicLut;
  Options.RunPasses = Cfg.RunPasses;
  Options.PassPipeline = Cfg.PassPipeline;
  return Options;
}

/// Stage "frontend": lex + parse + sema. Returns false with R.Err set on
/// failure (diagnostics folded into the message).
bool runFrontendStage(CompileResult &R, std::string_view Name,
                      std::string_view Source, easyml::ModelInfo &Info) {
  bool Ok = true;
  runStage(R, Stage::Frontend, [&] {
    DiagnosticEngine Diags;
    std::optional<easyml::ModelInfo> I =
        easyml::compileModelInfo(Name, Source, Diags);
    if (!I) {
      R.Err = Status::error("frontend: " + Diags.str());
      Ok = false;
      return;
    }
    Info = std::move(*I);
  });
  return Ok;
}

} // namespace

bool CompilerDriver::wantSnapshot(Stage S) const {
  if (Opts.SnapshotAll)
    return true;
  return std::find(Opts.SnapshotStages.begin(), Opts.SnapshotStages.end(),
                   S) != Opts.SnapshotStages.end();
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

Artifact CompilerDriver::makeArtifact(const exec::CompiledModel &M,
                                      std::string_view Name,
                                      uint64_t SourceHash) {
  Artifact A;
  A.ModelName = std::string(Name);
  A.SourceHash = SourceHash;
  A.Config = M.config();
  A.Program = M.program();
  A.Luts = M.luts();
  return A;
}

CompileResult CompilerDriver::compileAuto(std::string_view Name,
                                          std::string_view Source) {
  AutoSelection Sel =
      selectAutoConfig(Name, Source, Opts.Config, Opts.Tier, Opts.Autotune);
  if (!Sel) {
    CompileResult R;
    R.ModelName = std::string(Name);
    R.SourceHash = fnv1a64(Source);
    R.TuneKey = Sel.TuneKey;
    R.Err = Sel.Err;
    return R;
  }
  DriverOptions Sub = Opts;
  Sub.Config = Sel.Config;
  Sub.Tier = Sel.Tier;
  CompilerDriver SubDriver(std::move(Sub));
  CompileResult R = SubDriver.compileSource(Name, Source);
  R.AutoSelected = true;
  R.AutoSource = Sel.Source;
  R.AutoPointName = Sel.Point.name();
  R.AutoRate = Sel.Rate;
  R.TuneKey = Sel.TuneKey;
  return R;
}

CompileResult CompilerDriver::compileSource(std::string_view Name,
                                            std::string_view Source) {
  if (Status S = Opts.Config.validate(); !S) {
    CompileResult R;
    R.ModelName = std::string(Name);
    R.SourceHash = fnv1a64(Source);
    R.Err = S;
    return R;
  }
  if (Opts.Config.isAutoWidth())
    return compileAuto(Name, Source);

  CompileResult R;
  R.ModelName = std::string(Name);
  R.SourceHash = fnv1a64(Source);
  R.CacheKey = compileCacheKey(Source, Opts.Config);

  if (Opts.UseCache) {
    bool FromDisk = false;
    if (std::optional<Artifact> A =
            CompileCache::global().lookup(R.CacheKey, &FromDisk)) {
      CompileResult Warm = assembleFromArtifact(*A, Name, Source);
      if (Warm) {
        Warm.DiskHit = FromDisk;
        attachNativeTier(Warm);
        return Warm;
      }
      // A cached artifact that no longer assembles (e.g. scribbled memory,
      // hand-edited cache file that still checksums) degrades to a clean
      // recompile rather than an error.
      telemetry::counter("compile.cache.bad").add(1);
    }
  }

  CompileResult Cold = compileCold(Name, Source);
  if (Cold && Opts.UseCache)
    CompileCache::global().store(
        R.CacheKey, makeArtifact(*Cold.Model, Name, R.SourceHash));
  attachNativeTier(Cold);
  return Cold;
}

void compiler::attachNativeKernel(CompileResult &R, exec::CompiledModel &M,
                                  uint64_t Key, std::string_view KernelName) {
  NativeAttachResult N = getOrEmitNativeKernel(M, Key, KernelName);
  R.NativeKey = N.Key;
  if (N) {
    M.attachNative(std::move(N.Kernel));
    R.NativeAttached = true;
    R.NativeCacheHit = N.MemoryHit || N.DiskHit;
    R.NativeDiskHit = N.DiskHit;
    return;
  }
  // The fallback ladder's last rung: the model keeps its VM engine and
  // the reason is reported (Native) or available on request (Auto).
  R.NativeErr = N.Err;
}

void CompilerDriver::attachNativeTier(CompileResult &R) {
  if (Opts.Tier != exec::EngineTier::VM && R)
    attachNativeKernel(R, *R.Model, R.CacheKey, R.ModelName);
}

CompileResult CompilerDriver::compileCold(std::string_view Name,
                                          std::string_view Source) {
  CompileResult R;
  R.ModelName = std::string(Name);
  R.SourceHash = fnv1a64(Source);
  R.CacheKey = compileCacheKey(Source, Opts.Config);
  const exec::EngineConfig &Cfg = Opts.Config;

  telemetry::TraceSpan Span("compile:" + R.ModelName + " (" +
                                exec::engineConfigName(Cfg) + ")",
                            "compile");
  telemetry::ScopedTimerNs ColdTimer("compile.cold.ns");
  telemetry::counter("compile.cold.count").add(1);
  telemetry::Clock::time_point T0 = telemetry::Clock::now();

  easyml::ModelInfo Info;
  ModelProgram P;
  if (!runFrontendStage(R, Name, Source, Info))
    return R;
  if (wantSnapshot(Stage::Frontend))
    R.Stages.back().Snapshot = snapshotFrontend(Info);

  runStage(R, Stage::Preprocess, [&] { preprocessProgram(P, Info); });
  if (wantSnapshot(Stage::Preprocess))
    R.Stages.back().Snapshot = snapshotExprStage(P, Stage::Preprocess);

  runStage(R, Stage::Integrator, [&] { expandIntegrators(P); });
  if (wantSnapshot(Stage::Integrator))
    R.Stages.back().Snapshot = snapshotExprStage(P, Stage::Integrator);

  runStage(R, Stage::LutAnalysis,
           [&] { analyzeLutTables(P, Cfg.EnableLuts); });
  if (wantSnapshot(Stage::LutAnalysis))
    R.Stages.back().Snapshot = snapshotExprStage(P, Stage::LutAnalysis);

  GeneratedKernel K;
  runStage(R, Stage::EmitIR,
           [&] { K = emitKernelIR(std::move(P), codegenOptions(Cfg)); });
  if (wantSnapshot(Stage::EmitIR))
    R.Stages.back().Snapshot = ir::printOp(K.ScalarFunc);

  if (Cfg.RunPasses) {
    runStage(R, Stage::Opt, [&] { (void)optimizeKernelFunc(K, K.ScalarFunc); });
    if (!K.PipelineStatus) {
      R.Err = Status::error("opt: " + K.PipelineStatus.message());
      return R;
    }
    if (wantSnapshot(Stage::Opt))
      R.Stages.back().Snapshot = ir::printOp(K.ScalarFunc);
  }

  ir::Operation *Func = K.ScalarFunc;
  if (Cfg.Width > 1) {
    runStage(R, Stage::Vectorize,
             [&] { Func = cloneVectorKernel(K, Cfg.Width); });
    if (wantSnapshot(Stage::Vectorize))
      R.Stages.back().Snapshot = ir::printOp(Func);
    if (Cfg.RunPasses) {
      runStage(R, Stage::Opt, [&] { (void)optimizeKernelFunc(K, Func); });
      if (!K.PipelineStatus) {
        R.Err = Status::error("opt (vector): " + K.PipelineStatus.message());
        return R;
      }
      if (wantSnapshot(Stage::Opt))
        R.Stages.back().Snapshot = ir::printOp(Func);
    }
  }

  exec::BcProgram Program;
  runStage(R, Stage::EmitBytecode,
           [&] { Program = exec::compileToBytecode(K, Func); });
  if (wantSnapshot(Stage::EmitBytecode))
    R.Stages.back().Snapshot = Program.str();

  std::string Error;
  std::optional<exec::CompiledModel> M = exec::CompiledModel::fromParts(
      std::move(K), std::move(Program), std::nullopt, Cfg, &Error);
  if (!M) {
    R.Err = Status::error(Error);
    return R;
  }
  R.Model = std::move(M);
  R.TotalNs = telemetry::nanosecondsSince(T0);
  return R;
}

CompileResult CompilerDriver::assembleFromArtifact(const Artifact &A,
                                                   std::string_view Name,
                                                   std::string_view Source) {
  CompileResult R;
  R.ModelName = std::string(Name);
  R.SourceHash = fnv1a64(Source);
  R.CacheKey = compileCacheKey(Source, A.Config);
  const exec::EngineConfig &Cfg = A.Config;

  if (A.SourceHash != R.SourceHash) {
    R.Err = Status::error("artifact was compiled from different model "
                          "source (hash mismatch)");
    return R;
  }
  if (Status S = Cfg.validate(); !S) {
    R.Err = S;
    return R;
  }

  telemetry::TraceSpan Span("load:" + R.ModelName + " (" +
                                exec::engineConfigName(Cfg) + ")",
                            "compile");
  telemetry::ScopedTimerNs WarmTimer("compile.warm.ns");
  telemetry::counter("compile.warm.count").add(1);
  telemetry::Clock::time_point T0 = telemetry::Clock::now();

  // The AST stages still run on warm loads: the runtime needs ModelInfo
  // (initial state, parameter defaults) and the LUT plan expressions
  // (rebuildLuts re-bakes tables on parameter changes). All codegen
  // stages — emit-ir, opt, vectorize, emit-bytecode — are skipped; the
  // kernel's IR handles stay null.
  easyml::ModelInfo Info;
  ModelProgram P;
  if (!runFrontendStage(R, Name, Source, Info))
    return R;
  if (wantSnapshot(Stage::Frontend))
    R.Stages.back().Snapshot = snapshotFrontend(Info);
  runStage(R, Stage::Preprocess, [&] { preprocessProgram(P, Info); });
  runStage(R, Stage::Integrator, [&] { expandIntegrators(P); });
  runStage(R, Stage::LutAnalysis,
           [&] { analyzeLutTables(P, Cfg.EnableLuts); });

  GeneratedKernel K;
  K.Program = std::move(P);
  K.Options = codegenOptions(Cfg);

  std::string Error;
  std::optional<exec::CompiledModel> M = exec::CompiledModel::fromParts(
      std::move(K), A.Program, A.Luts, Cfg, &Error);
  if (!M) {
    R.Err = Status::error("artifact rejected: " + Error);
    return R;
  }
  R.Model = std::move(M);
  R.CacheHit = true;
  R.TotalNs = telemetry::nanosecondsSince(T0);
  return R;
}

CompileResult CompilerDriver::loadArtifact(const Artifact &A,
                                           std::string_view Name,
                                           std::string_view Source) {
  if (!A.ModelName.empty() && Name != A.ModelName) {
    CompileResult R;
    R.ModelName = std::string(Name);
    R.Err = Status::error("artifact is for model '" + A.ModelName +
                          "', not '" + std::string(Name) + "'");
    return R;
  }
  CompileResult R = assembleFromArtifact(A, Name, Source);
  attachNativeTier(R);
  return R;
}

CompileResult CompilerDriver::compileEntry(const models::ModelEntry &Entry) {
  return compileSource(Entry.Name, Entry.Source);
}

std::vector<CompileResult> CompilerDriver::compileSuite(
    const std::vector<const models::ModelEntry *> &Entries, unsigned Threads) {
  std::vector<CompileResult> Results(Entries.size());
  runtime::ThreadPool &Pool = runtime::globalThreadPool();
  if (Threads == 0)
    Threads = Pool.maxThreads();
  telemetry::TraceSpan Span("compile-suite", "compile");
  telemetry::ScopedTimerNs Timer("compile.suite.ns");
  Pool.parallelFor(0, int64_t(Entries.size()), Threads,
                   [&](int64_t Begin, int64_t End) {
                     for (int64_t I = Begin; I != End; ++I)
                       Results[size_t(I)] = compileEntry(*Entries[size_t(I)]);
                   });
  return Results;
}
