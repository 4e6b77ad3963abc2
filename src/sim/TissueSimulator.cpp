//===- TissueSimulator.cpp ------------------------------------------------===//

#include "sim/TissueSimulator.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace limpet;
using namespace limpet::sim;
using namespace limpet::exec;

namespace {

double quietNaN() { return std::numeric_limits<double>::quiet_NaN(); }

TissueOptions sanitizeTissue(TissueOptions T) {
  if (T.Grid.NX < 1)
    T.Grid.NX = 1;
  if (T.Grid.NY < 1)
    T.Grid.NY = 1;
  if (!std::isfinite(T.Grid.Dx) || T.Grid.Dx <= 0)
    T.Grid.Dx = 0.025;
  if (!std::isfinite(T.Sigma) || T.Sigma < 0)
    T.Sigma = 0;
  // The tridiagonal solve is 1D-only; a 2D sheet downgrades recoverably
  // to the explicit stencil (preflight() still enforces its CFL limit).
  if (T.Method == DiffusionMethod::CrankNicolson && T.Grid.is2D())
    T.Method = DiffusionMethod::FTCS;
  if (T.Stim.empty()) {
    // Default protocol: the single-population stimulus knobs as a pulse
    // train on the x=0 edge (a planar wavefront source).
    StimEvent E;
    E.Region = {0, std::max<int64_t>(T.Grid.NX / 16, 1) - 1, 0, -1};
    E.Start = T.Sim.StimStart;
    E.Duration = T.Sim.StimDuration;
    E.Strength = T.Sim.StimStrength;
    E.Period = T.Sim.StimPeriod;
    E.Count = T.Sim.StimPeriod > 0 ? 0 : 1; // unlimited train / one pulse
    T.Stim.Events.push_back(E);
  }
  return T;
}

SimOptions simOptionsFor(const TissueOptions &T) {
  TissueOptions S = sanitizeTissue(T);
  SimOptions O = S.Sim;
  O.NumCells = S.Grid.numNodes();
  // The base voltage stage never runs (advance() is overridden); zero the
  // scalar stimulus anyway so no code path can double-apply it.
  O.StimStrength = 0;
  return O;
}

} // namespace

TissueSimulator::TissueSimulator(const CompiledModel &Model,
                                 const TissueOptions &OptsIn)
    : Simulator(Model, simOptionsFor(OptsIn)),
      TOpts(sanitizeTissue(OptsIn)),
      Diff(TOpts.Grid, TOpts.Sigma, TOpts.Method) {
  // Node count matches the population by construction.
  (void)Buf.attachGrid(TOpts.Grid);
  CellsPer = Opts.NumCells; // the sheet is one member
  buildPipeline();
}

void TissueSimulator::buildPipeline() {
  if (VmIdx < 0 || IionIdx < 0)
    return; // preflight() reports this; the pipeline stays empty.
  double *Vm = Buf.ext(size_t(VmIdx));
  if (TOpts.Method == DiffusionMethod::CrankNicolson &&
      !TOpts.Grid.is2D()) {
    // Serial tridiagonal solve on shard 0; the stage barrier keeps every
    // other shard out of the field while it runs, so the result is
    // shard-count independent.
    PipelineStage Cn;
    Cn.Name = "diffuse-cn";
    Cn.Run = [this, Vm](unsigned Shard, int64_t, int64_t) {
      if (Shard == 0)
        Diff.applyCrankNicolson(Vm, HalfDt);
    };
    DiffPlan.Stages.push_back(std::move(Cn));
  } else {
    PipelineStage Publish;
    Publish.Name = "diffuse-publish";
    Publish.Run = [this, Vm](unsigned, int64_t Begin, int64_t End) {
      Diff.publish(Vm, Begin, End);
    };
    PipelineStage Apply;
    Apply.Name = "diffuse-apply";
    Apply.Run = [this, Vm](unsigned, int64_t Begin, int64_t End) {
      Diff.applyFromSnapshot(Vm, HalfDt, Begin, End);
    };
    DiffPlan.Stages.push_back(std::move(Publish));
    DiffPlan.Stages.push_back(std::move(Apply));
  }

  VoltStage.Name = "voltage-stim";
  VoltStage.Run = [this, Vm](unsigned, int64_t Begin, int64_t End) {
    const double *Iion = Buf.ext(size_t(IionIdx));
    double Dt = StageDt;
    for (int64_t C = Begin; C < End; ++C)
      Vm[C] -= Dt * Iion[C];
    const TissueGrid &G = TOpts.Grid;
    int64_t YLo = G.yOf(Begin), YHi = G.yOf(End - 1);
    for (const StimulusProtocol::ActiveStim &A : Active) {
      for (int64_t Y = std::max(A.Y0, YLo); Y <= std::min(A.Y1, YHi);
           ++Y) {
        int64_t Lo = std::max(G.nodeAt(A.X0, Y), Begin);
        int64_t Hi = std::min(G.nodeAt(A.X1, Y) + 1, End);
        for (int64_t C = Lo; C < Hi; ++C)
          Vm[C] += Dt * A.Strength;
      }
    }
  };
}

Status TissueSimulator::preflight() const {
  if (!hasVoltageCoupling())
    return Status::error("model '" + model().info().Name +
                         "' has no Vm/Iion externals; tissue coupling "
                         "needs the monodomain convention");
  if (TOpts.Method == DiffusionMethod::FTCS && TOpts.Sigma > 0) {
    double Limit = Diff.maxStableDt();
    double Applied = 0.5 * Opts.Dt; // Strang half-step
    if (Applied > Limit)
      return Status::error(
          "FTCS diffusion is unstable at dt=" + std::to_string(Opts.Dt) +
          " (half-step " + std::to_string(Applied) +
          " ms exceeds the CFL limit " + std::to_string(Limit) +
          " ms); reduce dt or sigma, increase dx, or use --diffusion=cn");
  }
  return Status::success();
}

void TissueSimulator::advance(double Dt) {
  bool HasFallback = Report.CellsDegraded > 0;
  diffusionHalf(0.5 * Dt);
  if (HasFallback)
    runScalarFallback(Dt, /*Gather=*/true);
  computeStage(Dt);
  if (HasFallback)
    runScalarFallback(Dt, /*Gather=*/false);
  voltageStimStage(Dt);
  diffusionHalf(0.5 * Dt);
  T += Dt;
  if (TrackActivation)
    updateActivation();
}

void TissueSimulator::diffusionHalf(double Dt) {
  if (TOpts.Sigma <= 0 || DiffPlan.Stages.empty())
    return;
  HalfDt = Dt;
  Sched.runPlan(DiffPlan, Dt, T);
  // The roofline's second regime: modeled stencil traffic, alongside the
  // kernel byte counters the compute stage accumulates.
  static telemetry::Counter &Loaded =
      telemetry::counter("sim.bytes.stencil.loaded");
  static telemetry::Counter &Stored =
      telemetry::counter("sim.bytes.stencil.stored");
  Loaded.add(Diff.bytesLoadedPerStep());
  Stored.add(Diff.bytesStoredPerStep());
}

void TissueSimulator::voltageStimStage(double Dt) {
  if (!hasVoltageCoupling())
    return;
  TOpts.Stim.collectActive(T, TOpts.Grid, Active);
  StageDt = Dt;
  Sched.runStage(VoltStage, Dt, T);
}

void TissueSimulator::enableActivationMap(double Threshold) {
  TrackActivation = true;
  ActThreshold = Threshold;
  ActTime.assign(size_t(Opts.NumCells), quietNaN());
  PrevVm.assign(size_t(Opts.NumCells), quietNaN());
  if (VmIdx >= 0) {
    const double *Vm = Buf.ext(size_t(VmIdx));
    std::copy(Vm, Vm + Opts.NumCells, PrevVm.begin());
  }
}

void TissueSimulator::updateActivation() {
  if (VmIdx < 0)
    return;
  const double *Vm = Buf.ext(size_t(VmIdx));
  for (int64_t C = 0; C != Opts.NumCells; ++C) {
    if (std::isnan(ActTime[size_t(C)]) && Vm[C] >= ActThreshold &&
        PrevVm[size_t(C)] < ActThreshold)
      ActTime[size_t(C)] = T;
    PrevVm[size_t(C)] = Vm[C];
  }
}

double TissueSimulator::activationTime(int64_t Cell) const {
  if (!TrackActivation || Cell < 0 || Cell >= int64_t(ActTime.size()))
    return quietNaN();
  return ActTime[size_t(Cell)];
}

double TissueSimulator::conductionVelocity(int64_t CellA,
                                           int64_t CellB) const {
  double TA = activationTime(CellA), TB = activationTime(CellB);
  if (std::isnan(TA) || std::isnan(TB) || TA == TB)
    return quietNaN();
  const TissueGrid &G = TOpts.Grid;
  double DX = double(G.xOf(CellA) - G.xOf(CellB));
  double DY = double(G.yOf(CellA) - G.yOf(CellB));
  double Dist = std::sqrt(DX * DX + DY * DY) * G.Dx; // cm
  return Dist / std::fabs(TB - TA);                  // cm/ms
}

void TissueSimulator::annotateCheckpoint(CheckpointData &C) const {
  C.TissueNX = TOpts.Grid.NX;
  C.TissueNY = TOpts.Grid.NY;
  C.TissueDx = TOpts.Grid.Dx;
  C.TissueSigma = TOpts.Sigma;
  C.TissueMethod = uint8_t(TOpts.Method);
  C.TissueStim = TOpts.Stim.str();
}

Status TissueSimulator::validateResume(const CheckpointData &C) const {
  if (C.TissueNX <= 0)
    return Status::error("cannot resume: checkpoint is not a tissue run; "
                         "resume it with a plain simulator");
  if (C.TissueNX != TOpts.Grid.NX || C.TissueNY != TOpts.Grid.NY ||
      C.TissueDx != TOpts.Grid.Dx)
    return Status::error(
        "cannot resume: tissue geometry mismatch (checkpoint " +
        std::to_string(C.TissueNX) + "x" + std::to_string(C.TissueNY) +
        ", this run " + std::to_string(TOpts.Grid.NX) + "x" +
        std::to_string(TOpts.Grid.NY) + ")");
  if (C.TissueSigma != TOpts.Sigma ||
      C.TissueMethod != uint8_t(TOpts.Method))
    return Status::error(
        "cannot resume: diffusion settings mismatch (checkpoint sigma=" +
        std::to_string(C.TissueSigma) + " method=" +
        diffusionMethodName(DiffusionMethod(C.TissueMethod)) +
        ", this run sigma=" + std::to_string(TOpts.Sigma) + " method=" +
        diffusionMethodName(TOpts.Method) + ")");
  if (C.TissueStim != TOpts.Stim.str())
    return Status::error("cannot resume: stimulus protocol mismatch "
                         "(checkpoint '" +
                         C.TissueStim + "', this run '" +
                         TOpts.Stim.str() + "')");
  return Status::success();
}
