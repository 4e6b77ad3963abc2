//===- TissueSimulator.h - Reaction-diffusion tissue driver -----*- C++-*-===//
//
// The tissue-scale driver: ionic cells on a 1D/2D grid coupled by a
// diffusion term on the transmembrane voltage (the monodomain equation),
// integrated by Strang operator splitting:
//
//   D(dt/2) -> ionic kernel(dt) + Vm update + stimulus -> D(dt/2)
//
// Each operator is one or two stages of the Scheduler's StagePlan, so
// every stage runs sharded over the persistent shard-to-thread
// assignment with a full barrier between stages. The FTCS diffusion
// half-step is a publish/apply pair — the publish stage copies each
// shard's Vm range into a snapshot (the shared-memory halo exchange) and
// the apply stage reads only that snapshot — so tissue runs are
// bit-identical for any shard count. The Crank-Nicolson path solves the
// tridiagonal system serially on shard 0 behind the same barrier.
//
// Everything else is inherited from Simulator: guard rails, cooperative
// cancellation, durable checkpoint/resume (tissue geometry rides in the
// v2 checkpoint section and is cross-checked on resume; the Vm field is
// an external like any other). Diffusion couples every node to the
// sheet, so the sheet is one member of the recovery ladder: a fault
// re-runs the whole sheet (advance() is the virtual substep, so every
// rung re-runs diffusion too), and a fault no rung heals quarantines the
// whole sheet at its last healthy checkpoint rather than clamping one
// node inside a live field.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_TISSUESIMULATOR_H
#define LIMPET_SIM_TISSUESIMULATOR_H

#include "sim/Diffusion.h"
#include "sim/Simulator.h"
#include "sim/Stimulus.h"

namespace limpet {
namespace sim {

/// Protocol options of a tissue run. The embedded SimOptions supplies the
/// step count, dt, threads, guard rails, checkpointing, cancellation and
/// progress knobs; its NumCells is overridden by the grid's node count
/// and its scalar Stim* fields seed the default protocol when \p Stim is
/// empty (a pulse train on the x=0 edge).
struct TissueOptions {
  TissueGrid Grid{64, 1, 0.025};
  /// Effective diffusivity sigma/(beta*Cm), cm^2/ms.
  double Sigma = 0.001;
  DiffusionMethod Method = DiffusionMethod::FTCS;
  StimulusProtocol Stim;
  SimOptions Sim;
};

/// Operator-split reaction-diffusion driver over one tissue grid.
class TissueSimulator : public Simulator {
public:
  TissueSimulator(const exec::CompiledModel &Model,
                  const TissueOptions &Opts);

  const TissueGrid &grid() const { return TOpts.Grid; }
  const DiffusionOperator &diffusion() const { return Diff; }
  const StimulusProtocol &stimulus() const { return TOpts.Stim; }
  const TissueOptions &tissueOptions() const { return TOpts; }

  /// Pre-run validation as one recoverable error: the model must expose
  /// the Vm/Iion coupling, and an FTCS half-step of Dt/2 must respect
  /// the CFL stability limit (docs/TISSUE.md). Call before run().
  Status preflight() const;

  //===--------------------------------------------------------------------===//
  // Activation map / conduction velocity (diagnostic, not checkpointed)
  //===--------------------------------------------------------------------===//

  /// Starts recording each cell's first upward crossing of \p Threshold.
  void enableActivationMap(double Threshold = -20.0);
  /// First activation time of a cell (ms); NaN when not (yet) activated
  /// or out of range.
  double activationTime(int64_t Cell) const;
  /// Conduction velocity between two activated nodes in cm/ms (distance
  /// over activation-time difference); NaN when either is silent.
  double conductionVelocity(int64_t CellA, int64_t CellB) const;

protected:
  void advance(double Dt) override;
  void annotateCheckpoint(CheckpointData &C) const override;
  Status validateResume(const CheckpointData &C) const override;

private:
  TissueOptions TOpts;
  DiffusionOperator Diff;
  /// The diffusion half-step pipeline: FTCS publish + apply (two sharded
  /// stages with the halo-exchange barrier between them), or the serial
  /// Crank-Nicolson stage.
  StagePlan DiffPlan;
  /// Voltage update + regional stimulus, as one sharded stage.
  PipelineStage VoltStage;
  /// Dt of the stage currently in flight (stage lambdas read these; set
  /// before each runPlan/runStage).
  double HalfDt = 0;
  double StageDt = 0;
  /// Stimulus events active this step (collected once per step, applied
  /// per shard).
  std::vector<StimulusProtocol::ActiveStim> Active;

  bool TrackActivation = false;
  double ActThreshold = -20.0;
  std::vector<double> ActTime;
  std::vector<double> PrevVm;

  void buildPipeline();
  void diffusionHalf(double Dt);
  void voltageStimStage(double Dt);
  void updateActivation();
};

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_TISSUESIMULATOR_H
