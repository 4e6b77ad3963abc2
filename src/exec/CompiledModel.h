//===- CompiledModel.h - End-to-end compiled ionic model --------*- C++-*-===//
//
// The main user-facing entry point of the library: compiles an analyzed
// EasyML model through the full pipeline (preprocessor, integrator
// expansion, LUT extraction, IR emission, optimization passes, optional
// vectorization, bytecode) for a chosen engine configuration, builds the
// runtime LUT tables, and executes time steps over cell populations.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_EXEC_COMPILEDMODEL_H
#define LIMPET_EXEC_COMPILEDMODEL_H

#include "codegen/MLIRCodeGen.h"
#include "exec/Backend.h"
#include "exec/Bytecode.h"
#include "exec/Engine.h"
#include "exec/NativeKernel.h"
#include "runtime/Lut.h"
#include "support/Status.h"

#include <memory>
#include <optional>
#include <string>

namespace limpet {
namespace exec {

/// Selects which of the paper's configurations a model is compiled for.
struct EngineConfig {
  /// Width sentinel: let the CompilerDriver pick the (layout × width ×
  /// engine) point from a persisted TuningRecord or the capability
  /// heuristic. Never reaches codegen or execution — the driver resolves
  /// it to a concrete configuration first.
  static constexpr unsigned kWidthAuto = 0;

  /// SIMD width: 1 (scalar), 2 (SSE), 4 (AVX2), 8 (AVX-512), or any
  /// other width the BackendRegistry advertises on this host; kWidthAuto
  /// defers the choice to the driver's autotuner.
  unsigned Width = 1;
  codegen::StateLayout Layout = codegen::StateLayout::AoS;
  /// VecMath (SVML analogue) vs libm.
  bool FastMath = false;
  bool EnableLuts = true;
  /// Cubic (Catmull-Rom) LUT interpolation instead of linear.
  bool CubicLut = false;
  bool RunPasses = true;
  /// Optimization pass pipeline, mlir-opt style ("cse,licm,dce"). Empty
  /// means the default pipeline. Part of the compile-cache key.
  std::string PassPipeline;

  /// openCARP's original code generation: scalar, AoS, libm, scalar LUTs.
  static EngineConfig baseline();
  /// Full limpetMLIR: W lanes, AoSoA layout, vector math, vector LUTs.
  static EngineConfig limpetMLIR(unsigned Width);
  /// The Sec. 5 "auto-vectorizer" comparison point: vector arithmetic but
  /// no data-layout transformation (AoS gathers).
  static EngineConfig autoVecLike(unsigned Width);
  /// The guard-rail degradation target: exact scalar kernel (no LUTs,
  /// libm, AoS). Cells whose fast-path integration keeps faulting fall
  /// back to a model compiled with this configuration.
  static EngineConfig recovery();
  /// Auto-selected point: Width = kWidthAuto with limpetMLIR-style
  /// defaults. The CompilerDriver replaces layout/width (and possibly
  /// fast-math, in fast-math mode) with the tuned or heuristic choice.
  static EngineConfig autoTuned();

  /// True when the driver must resolve the width (and layout) before
  /// compiling.
  bool isAutoWidth() const { return Width == kWidthAuto; }

  /// Checks that this configuration names an executable engine
  /// (supported width, layout/width compatibility, LUT flag coherence).
  /// CompiledModel::compile rejects invalid configurations with this
  /// recoverable Status instead of asserting deep in codegen. An
  /// auto-width configuration validates (the driver resolves it), but
  /// compile()/fromParts() reject it — they need a concrete point.
  Status validate() const;

  /// Field-wise equality. Checkpoint resume requires the resuming model
  /// to be compiled under exactly the configuration the checkpoint was
  /// captured with (bit-identical continuation needs the same engine).
  bool operator==(const EngineConfig &) const = default;
};

std::string engineConfigName(const EngineConfig &Cfg);

/// A fully compiled model ready to run.
class CompiledModel {
public:
  /// Compiles \p Info under \p Cfg. Returns nullopt with \p Error set on
  /// failure (e.g. pipeline verification errors).
  static std::optional<CompiledModel>
  compile(const easyml::ModelInfo &Info, const EngineConfig &Cfg,
          std::string *Error = nullptr);

  /// Assembles a runnable model from already-produced parts: a kernel
  /// (whose IR handles may be null on artifact loads), a bytecode program
  /// and optionally pre-built LUT tables (rebuilt at default parameters
  /// when absent). Validates cross-part consistency — layout, widths,
  /// state/external/parameter counts, and every instruction's opcode and
  /// operand indices (BcProgram::validate) — so a corrupt or mismatched
  /// artifact is rejected with a recoverable error rather than executed.
  static std::optional<CompiledModel>
  fromParts(codegen::GeneratedKernel Kernel, BcProgram Program,
            std::optional<runtime::LutTableSet> Luts, const EngineConfig &Cfg,
            std::string *Error = nullptr);

  const easyml::ModelInfo &info() const { return Kernel.Program.Info; }
  const EngineConfig &config() const { return Cfg; }
  /// The execution backend this configuration resolved to at compile
  /// time (never null for a successfully compiled model).
  const Backend *backend() const { return Engine; }
  const BcProgram &program() const { return Program; }
  const runtime::LutTableSet &luts() const { return Luts; }
  const codegen::GeneratedKernel &kernel() const { return Kernel; }

  /// Number of doubles the state array needs for \p NumCells (AoSoA pads
  /// to full blocks).
  size_t stateArraySize(int64_t NumCells) const;

  /// Number of cells the kernel addressing covers given padding.
  int64_t paddedCells(int64_t NumCells) const;

  /// Writes every state variable's initial value for cells [0, NumCells).
  void initializeState(double *State, int64_t NumCells) const;

  /// Initial values for every external variable.
  std::vector<double> externalInits() const;

  /// The default parameter vector.
  std::vector<double> defaultParams() const;

  /// Rebuilds the internal LUT tables for a modified parameter vector
  /// (tables bake parameter values in, as openCARP does at
  /// initialization).
  void rebuildLuts(const double *Params);

  /// Builds a standalone LUT table set for \p Params (used by simulators
  /// that adjust parameters without mutating the compiled model).
  runtime::LutTableSet buildLuts(const double *Params) const;

  /// Runs one compute step over [Args.Start, Args.End). When Args.Luts is
  /// null the model's internal tables are used. Dispatches to the native
  /// kernel when one is attached, else through the VM backend.
  void computeStep(KernelArgs Args) const;

  /// Attaches (or, with null, detaches) a dlopen'd native kernel; the
  /// KernelEmitter guarantees it was specialized for this model's exact
  /// (program, config, toolchain) point. Shared: several models compiled
  /// from the same content hash reuse one loaded object.
  void attachNative(std::shared_ptr<NativeKernel> K) { Native = std::move(K); }

  /// The attached native kernel, or null when running on the VM tier.
  const NativeKernel *nativeKernel() const { return Native.get(); }

  /// True when computeStep dispatches to native code.
  bool usingNativeTier() const { return Native != nullptr; }

  /// Reads sv \p Sv of cell \p Cell from a state array of this layout.
  double readState(const double *State, int64_t Cell, int64_t Sv,
                   int64_t NumCells) const;

  /// Writes sv \p Sv of cell \p Cell into a state array of this layout
  /// (used by checkpoint restore, fault injection and the scalar-exact
  /// fallback scatter).
  void writeState(double *State, int64_t Cell, int64_t Sv, int64_t NumCells,
                  double Value) const;

private:
  CompiledModel() = default;

  codegen::GeneratedKernel Kernel;
  BcProgram Program;
  runtime::LutTableSet Luts;
  EngineConfig Cfg;
  /// Resolved once at compile time; computeStep dispatches through it.
  const Backend *Engine = nullptr;
  /// Optional specialized-kernel tier; takes dispatch priority when set.
  std::shared_ptr<NativeKernel> Native;
};

} // namespace exec
} // namespace limpet

#endif // LIMPET_EXEC_COMPILEDMODEL_H
