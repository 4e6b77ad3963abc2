//===- Run.cpp ------------------------------------------------------------===//

#include "sim/Run.h"

#include "compiler/CompileCache.h"
#include "easyml/Sema.h"
#include "models/Registry.h"
#include "support/Telemetry.h"

using namespace limpet;
using namespace limpet::sim;

Status RunSpec::validate() const {
  if (Model.empty())
    return Status::error("'model' is required");
  if (NumCells <= 0 || NumSteps <= 0)
    return Status::error("'cells' and 'steps' must be positive");
  if (!(Dt > 0))
    return Status::error("'dt' must be positive");
  if (TimeoutSec < 0)
    return Status::error("'timeout_sec' must be non-negative");
  if (TissueNX < 0 || TissueNY < 1)
    return Status::error("'tissue_nx' must be >= 0, 'tissue_ny' >= 1");
  if (!(TissueDx > 0))
    return Status::error("'tissue_dx' must be positive");
  if (TissueSigma < 0)
    return Status::error("'tissue_sigma' must be non-negative");
  if (!TissueStim.empty()) {
    TissueGrid G{isTissue() ? TissueNX : 1, TissueNY, TissueDx};
    if (Expected<StimulusProtocol> P = StimulusProtocol::parse(TissueStim, G);
        !P)
      return P.status();
  }
  if (EnsembleCellsPer < 1)
    return Status::error("'ensemble_cells_per' must be >= 1");
  if (isEnsemble()) {
    if (isTissue())
      return Status::error(
          "'ensemble_sweep' and 'tissue_nx' are mutually exclusive");
    if (!EnsembleSweep.empty() && !EnsembleMembers.empty())
      return Status::error(
          "a sweep and an explicit member list are mutually exclusive");
    // The grammar only: unknown parameter names need the model, so
    // buildRun reports them.
    if (Expected<EnsembleSpec> E = ensembleSpec(); !E)
      return E.status();
  }
  return Config.validate();
}

/// Compiles a sweep: one frontend run, the swept parameters lowered to
/// per-cell externals, one compile of the lowered model and, off the VM
/// tier, one native kernel for it. The base model is never compiled.
static Status compileSweep(Run &R, const RunSpec &Spec,
                           std::string_view Source) {
  EnsembleSpec ES = *Spec.ensembleSpec(); // validate() parsed it
  compiler::CompileResult &C = R.Compile;
  C.ModelName = Spec.Model;
  C.SourceHash = compiler::fnv1a64(Source);
  // An auto width resolves as the driver resolves it for a plain run.
  exec::EngineConfig Cfg = Spec.Config;
  exec::EngineTier Tier = Spec.Tier;
  if (Cfg.isAutoWidth()) {
    compiler::AutoSelection Sel = compiler::selectAutoConfig(
        Spec.Model, Source, Cfg, Tier, Spec.Autotune);
    C.TuneKey = Sel.TuneKey;
    if (!Sel)
      return Status::error("compile failed: " + Sel.Err.message());
    Cfg = Sel.Config;
    Tier = Sel.Tier;
    C.AutoSelected = true;
    C.AutoSource = Sel.Source;
    C.AutoPointName = Sel.Point.name();
    C.AutoRate = Sel.Rate;
  }
  C.CacheKey = compiler::compileCacheKey(Source, Cfg);

  telemetry::Clock::time_point T0 = telemetry::Clock::now();
  DiagnosticEngine Diags;
  std::optional<easyml::ModelInfo> Info =
      easyml::compileModelInfo(Spec.Model, Source, Diags);
  if (!Info)
    return Status::error("compile failed: frontend: " + Diags.str());
  Expected<EnsembleModel> Built =
      buildEnsembleModel(*Info, std::move(ES), Cfg);
  if (!Built)
    return Built.status();
  R.Sweep.emplace(std::move(*Built));
  C.TotalNs = telemetry::nanosecondsSince(T0);
  if (Tier != exec::EngineTier::VM) {
    // The base model's key extended with the lowering, so a base-model
    // .so never serves the lowered program.
    uint64_t Key = compiler::fnv1a64("ensemble", C.CacheKey);
    for (const std::string &P : R.Sweep->Swept)
      Key = compiler::fnv1a64(P, Key);
    compiler::attachNativeKernel(C, *R.Sweep->Model, Key,
                                 Spec.Model + "_ensemble");
  }
  return Status::success();
}

Expected<std::unique_ptr<Run>> sim::buildRun(const RunSpec &Spec,
                                             const RunEnv &Env) {
  if (Status St = Spec.validate(); !St)
    return St;
  std::string_view Source;
  if (Spec.Source)
    Source = *Spec.Source;
  else if (const models::ModelEntry *E = models::findModel(Spec.Model))
    Source = E->Source;
  else
    return Status::error("unknown model '" + Spec.Model + "'");

  auto R = std::make_unique<Run>();
  if (Spec.isEnsemble()) {
    if (Env.Artifact || Env.Driver.SnapshotAll ||
        !Env.Driver.SnapshotStages.empty())
      return Status::error("ensemble: a sweep compiles only its lowered "
                           "model: no artifact, no stage snapshots");
    if (Status St = compileSweep(*R, Spec, Source); !St)
      return St;
  } else {
    // Through the content-addressed cache, so repeat runs skip codegen.
    compiler::DriverOptions O = Env.Driver;
    O.Config = Spec.Config;
    O.Tier = Spec.Tier;
    O.Autotune = Spec.Autotune;
    compiler::CompilerDriver Driver(std::move(O));
    R->Compile = Env.Artifact
                     ? Driver.loadArtifact(*Env.Artifact, Spec.Model, Source)
                     : Driver.compileSource(Spec.Model, Source);
    if (!R->Compile)
      return Status::error("compile failed: " + R->Compile.Err.message());
  }

  CancelToken &Cancel = Env.Cancel ? *Env.Cancel : R->Token;
  SimOptions Opts;
  Opts.NumCells = Spec.NumCells;
  Opts.NumSteps = Spec.NumSteps;
  Opts.Dt = Spec.Dt;
  Opts.NumThreads = Env.Threads;
  Opts.StimPeriod = 100.0;
  Opts.Guard.Enabled = Spec.Guard;
  Opts.Cancel = &Cancel;
  Opts.ProgressEvery = Env.ProgressEvery;
  Opts.Progress = Env.Progress;
  if (!Env.CheckpointDir.empty()) {
    // Probe up front: an unwritable directory is one clear error before
    // the run, not a failure at its first checkpoint.
    CheckpointStore Store(Env.CheckpointDir, Env.CheckpointRetain);
    if (Status St = Store.prepare(); !St)
      return Status::error("checkpoint dir: " + St.message());
    Opts.Checkpoint.Dir = Env.CheckpointDir;
    Opts.Checkpoint.EveryN = Spec.CheckpointEveryN;
    Opts.Checkpoint.Retain = Env.CheckpointRetain;
    Opts.Checkpoint.SourceHash = R->Compile.SourceHash;
  }

  if (Spec.isTissue()) {
    TissueOptions TO;
    TO.Grid = {Spec.TissueNX, Spec.TissueNY, Spec.TissueDx};
    TO.Sigma = Spec.TissueSigma;
    TO.Method = DiffusionMethod(Spec.TissueMethod);
    if (!Spec.TissueStim.empty()) // parsed against this grid by validate()
      TO.Stim = *StimulusProtocol::parse(Spec.TissueStim, TO.Grid);
    TO.Sim = Opts;
    auto TS = std::make_unique<TissueSimulator>(R->model(), TO);
    if (Status St = TS->preflight(); !St)
      return Status::error("tissue preflight: " + St.message());
    R->Sim = std::move(TS);
  } else if (R->Sweep) {
    R->Sim = std::make_unique<EnsembleRunner>(*R->Sweep, Opts);
  } else {
    R->Sim = std::make_unique<Simulator>(R->model(), Opts);
  }
  if (Spec.TimeoutSec > 0)
    Cancel.setDeadlineAfter(Spec.TimeoutSec);
  return R;
}
