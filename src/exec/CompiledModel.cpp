//===- CompiledModel.cpp --------------------------------------------------===//

#include "exec/CompiledModel.h"

#include "codegen/Vectorize.h"
#include "easyml/ConstEval.h"
#include "exec/BytecodeCompiler.h"
#include "support/Casting.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::codegen;

EngineConfig EngineConfig::baseline() {
  EngineConfig Cfg;
  Cfg.Width = 1;
  Cfg.Layout = StateLayout::AoS;
  Cfg.FastMath = false;
  Cfg.EnableLuts = true;
  return Cfg;
}

EngineConfig EngineConfig::limpetMLIR(unsigned Width) {
  EngineConfig Cfg;
  Cfg.Width = Width;
  Cfg.Layout = StateLayout::AoSoA;
  Cfg.FastMath = true;
  Cfg.EnableLuts = true;
  return Cfg;
}

EngineConfig EngineConfig::autoVecLike(unsigned Width) {
  EngineConfig Cfg;
  Cfg.Width = Width;
  Cfg.Layout = StateLayout::AoS;
  Cfg.FastMath = true;
  Cfg.EnableLuts = true;
  return Cfg;
}

EngineConfig EngineConfig::recovery() {
  EngineConfig Cfg;
  Cfg.Width = 1;
  Cfg.Layout = StateLayout::AoS;
  Cfg.FastMath = false;
  Cfg.EnableLuts = false;
  return Cfg;
}

EngineConfig EngineConfig::autoTuned() {
  EngineConfig Cfg;
  Cfg.Width = kWidthAuto;
  Cfg.Layout = StateLayout::AoSoA;
  Cfg.FastMath = true;
  Cfg.EnableLuts = true;
  return Cfg;
}

std::string exec::engineConfigName(const EngineConfig &Cfg) {
  std::string Name = Cfg.isAutoWidth() ? "auto"
                     : Cfg.Width == 1  ? "scalar"
                                       : "vec" + std::to_string(Cfg.Width);
  Name += "/";
  Name += stateLayoutName(Cfg.Layout);
  Name += Cfg.FastMath ? "/fastmath" : "/libm";
  Name += Cfg.EnableLuts ? (Cfg.CubicLut ? "/cubiclut" : "/lut") : "/nolut";
  return Name;
}

Status EngineConfig::validate() const {
  if (CubicLut && !EnableLuts)
    return Status::error("cubic LUT interpolation requires LUTs "
                         "(EnableLuts) to be on");
  // Auto width: the driver resolves layout/width against the registry
  // before anything executable is built, so only the width-independent
  // checks apply here.
  if (isAutoWidth())
    return Status::success();
  const Backend *B = tryResolveBackend(Width, FastMath);
  if (!B)
    return Status::error("no backend registered for vector width " +
                         std::to_string(Width));
  if (!B->supportsLayout(Layout))
    return Status::error("AoSoA layout requires a vector engine");
  return Status::success();
}

std::optional<CompiledModel>
CompiledModel::compile(const easyml::ModelInfo &Info, const EngineConfig &Cfg,
                       std::string *Error) {
  // Reject unsupported configurations up front with a recoverable error
  // instead of asserting deep in codegen.
  if (Status S = Cfg.validate(); !S) {
    if (Error)
      *Error = S.message();
    return std::nullopt;
  }
  if (Cfg.isAutoWidth()) {
    if (Error)
      *Error = "auto width must be resolved by the CompilerDriver before "
               "compiling (use compiler::selectAutoConfig)";
    return std::nullopt;
  }

  telemetry::TraceSpan Span(
      "compile:" + Info.Name + " (" + engineConfigName(Cfg) + ")", "compile");
  telemetry::ScopedTimerNs Timer("compile.model.ns");
  telemetry::counter("compile.model.count").add(1);

  CodeGenOptions Options;
  Options.Layout = Cfg.Layout;
  Options.AoSoABlockWidth = Cfg.Width;
  Options.EnableLuts = Cfg.EnableLuts;
  Options.CubicLut = Cfg.CubicLut;
  Options.RunPasses = Cfg.RunPasses;
  Options.PassPipeline = Cfg.PassPipeline;
  GeneratedKernel Kernel = generateKernel(Info, Options);
  if (!Kernel.PipelineStatus) {
    if (Error)
      *Error = Kernel.PipelineStatus.message();
    return std::nullopt;
  }

  ir::Operation *Func = Kernel.ScalarFunc;
  if (Cfg.Width > 1) {
    Func = vectorizeKernel(Kernel, Cfg.Width);
    if (!Kernel.PipelineStatus) {
      if (Error)
        *Error = Kernel.PipelineStatus.message();
      return std::nullopt;
    }
  }
  BcProgram Program = compileToBytecode(Kernel, Func);
  return fromParts(std::move(Kernel), std::move(Program), std::nullopt, Cfg,
                   Error);
}

std::optional<CompiledModel>
CompiledModel::fromParts(GeneratedKernel Kernel, BcProgram Program,
                         std::optional<runtime::LutTableSet> Luts,
                         const EngineConfig &Cfg, std::string *Error) {
  auto Fail = [&](std::string Msg) -> std::optional<CompiledModel> {
    if (Error)
      *Error = std::move(Msg);
    return std::nullopt;
  };
  if (Status S = Cfg.validate(); !S)
    return Fail(S.message());
  if (Cfg.isAutoWidth())
    return Fail("auto width must be resolved before assembling a model");

  const easyml::ModelInfo &Info = Kernel.Program.Info;
  if (Program.Layout != Cfg.Layout)
    return Fail("program layout does not match the engine configuration");
  unsigned WantAoSoAW = Cfg.Layout == StateLayout::AoSoA ? Cfg.Width : 1;
  if (Program.AoSoAW != WantAoSoAW)
    return Fail("program AoSoA block width does not match the configuration");
  if (Program.NumSv != Info.StateVars.size())
    return Fail("program state-variable count does not match the model");
  if (Program.NumExternals != Info.Externals.size())
    return Fail("program external count does not match the model");
  if (Program.NumParams != Info.Params.size())
    return Fail("program parameter count does not match the model");
  if (Program.Body.empty() || Program.NumRegs == 0)
    return Fail("program has no compute body");
  if (Luts && Luts->Tables.size() != Kernel.Program.Luts.Tables.size())
    return Fail("LUT table count does not match the model's LUT plan");
  // Every operand index the VM will use as a raw index must be in range.
  std::vector<int> TableCols;
  if (Luts)
    for (const runtime::LutTable &T : Luts->Tables)
      TableCols.push_back(T.cols());
  else
    for (const LutTablePlan &Plan : Kernel.Program.Luts.Tables)
      TableCols.push_back(int(Plan.Columns.size()));
  if (Status S = Program.validate(TableCols); !S)
    return Fail(S.message());

  CompiledModel M;
  M.Cfg = Cfg;
  M.Engine = tryResolveBackend(Cfg.Width, Cfg.FastMath);
  if (!M.Engine)
    return Fail("no backend registered for vector width " +
                std::to_string(Cfg.Width));
  M.Kernel = std::move(Kernel);
  M.Program = std::move(Program);
  if (Luts) {
    M.Luts = std::move(*Luts);
  } else {
    std::vector<double> Params = M.defaultParams();
    M.rebuildLuts(Params.data());
  }
  return M;
}

size_t CompiledModel::stateArraySize(int64_t NumCells) const {
  return size_t(paddedCells(NumCells)) * Program.NumSv;
}

int64_t CompiledModel::paddedCells(int64_t NumCells) const {
  if (Cfg.Layout != StateLayout::AoSoA)
    return NumCells;
  int64_t W = int64_t(Program.AoSoAW);
  return (NumCells + W - 1) / W * W;
}

void CompiledModel::initializeState(double *State, int64_t NumCells) const {
  const easyml::ModelInfo &Info = Kernel.Program.Info;
  int64_t Padded = paddedCells(NumCells);
  for (int64_t Cell = 0; Cell != Padded; ++Cell)
    for (size_t Sv = 0; Sv != Info.StateVars.size(); ++Sv)
      State[stateIndex(Cfg.Layout, Cell, int64_t(Sv), Program.NumSv,
                       NumCells, Program.AoSoAW)] = Info.StateVars[Sv].Init;
}

std::vector<double> CompiledModel::externalInits() const {
  std::vector<double> Inits;
  for (const easyml::ExternalInfo &Ext : Kernel.Program.Info.Externals)
    Inits.push_back(Ext.Init);
  return Inits;
}

std::vector<double> CompiledModel::defaultParams() const {
  std::vector<double> Params;
  for (const easyml::ParamInfo &P : Kernel.Program.Info.Params)
    Params.push_back(P.DefaultValue);
  return Params;
}

void CompiledModel::rebuildLuts(const double *Params) {
  Luts = buildLuts(Params);
}

runtime::LutTableSet CompiledModel::buildLuts(const double *Params) const {
  telemetry::TraceSpan Span("lut-build", "compile");
  telemetry::ScopedTimerNs Timer("compile.lut.build.ns");
  const easyml::ModelInfo &Info = Kernel.Program.Info;
  runtime::LutTableSet Set;
  for (const LutTablePlan &Plan : Kernel.Program.Luts.Tables) {
    runtime::LutTable Table(Plan.Spec.Lo, Plan.Spec.Hi, Plan.Spec.Step,
                            int(Plan.Columns.size()));
    for (int Row = 0; Row != Table.rows(); ++Row) {
      double X = Table.rowX(Row);
      easyml::EvalEnv Env =
          [&](std::string_view Name) -> std::optional<double> {
        if (Name == Plan.Spec.VarName)
          return X;
        int Idx = Info.paramIndex(Name);
        if (Idx >= 0)
          return Params[Idx];
        return std::nullopt;
      };
      for (size_t Col = 0; Col != Plan.Columns.size(); ++Col) {
        auto V = easyml::evalExpr(*Plan.Columns[Col], Env);
        assert(V && "LUT column expression references a non-table variable");
        Table.at(Row, int(Col)) = *V;
      }
    }
    Set.Tables.push_back(std::move(Table));
  }
  return Set;
}

void CompiledModel::computeStep(KernelArgs Args) const {
  if (!Args.Luts)
    Args.Luts = &Luts;
  if (Native) {
    Native->step(Program, Args);
    return;
  }
  Engine->step(Program, Args);
}

double CompiledModel::readState(const double *State, int64_t Cell,
                                int64_t Sv, int64_t NumCells) const {
  return State[stateIndex(Cfg.Layout, Cell, Sv, Program.NumSv, NumCells,
                          Program.AoSoAW)];
}

void CompiledModel::writeState(double *State, int64_t Cell, int64_t Sv,
                               int64_t NumCells, double Value) const {
  State[stateIndex(Cfg.Layout, Cell, Sv, Program.NumSv, NumCells,
                   Program.AoSoAW)] = Value;
}
