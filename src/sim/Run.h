//===- Run.h - One run description, one run assembly ------------*- C++-*-===//
//
// A RunSpec is what a simulation run is; buildRun compiles it once,
// attaches the tier and constructs the simulator it describes. limpetc
// --run and limpetd's job runner both call it, so one description gives
// one checksum through either (limpetd's JobSpec is a RunSpec plus job
// fields). A RunEnv carries what differs per caller.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_RUN_H
#define LIMPET_SIM_RUN_H

#include "compiler/CompilerDriver.h"
#include "sim/Ensemble.h"
#include "sim/TissueSimulator.h"

namespace limpet {
namespace sim {

/// Everything that determines a run's result. The defaults are the
/// daemon's wire defaults.
struct RunSpec {
  std::string Model; ///< registry model name, or the name of Source
  /// EasyML source (limpetc's .easyml files); nullopt = registry lookup.
  std::optional<std::string> Source;

  exec::EngineConfig Config; ///< engine configuration (baseline default)
  /// Native/auto attach a dlopen'd kernel to the model that steps, or fall
  /// back to the VM (bit-identical) without a toolchain; never an error.
  exec::EngineTier Tier = exec::EngineTier::VM;
  /// With an auto width and no persisted tuning record: run the width
  /// autotuner instead of falling back to the capability heuristic.
  bool Autotune = false;

  int64_t NumCells = 256;
  int64_t NumSteps = 1000; ///< after a resume, the total step target
  double Dt = 0.01;        ///< ms
  bool Guard = true;
  /// Durable checkpoint cadence in steps: > 0 a cadence, 0 the final
  /// checkpoint only, -1 (the wire default) the daemon's default cadence.
  int64_t CheckpointEveryN = -1;
  /// Wall-clock budget in seconds, armed when the run is built (0 = none).
  double TimeoutSec = 0;

  // Tissue: TissueNX > 0 engages the reaction-diffusion driver, and the
  // grid's node count replaces NumCells.
  int64_t TissueNX = 0;
  int64_t TissueNY = 1;
  double TissueDx = 0.025;    ///< node spacing, cm
  double TissueSigma = 0.001; ///< effective diffusivity, cm^2/ms
  uint8_t TissueMethod = 0;   ///< sim::DiffusionMethod
  std::string TissueStim;     ///< --stim grammar; "" = default edge train

  // Ensemble: a sweep engages the fault-isolated parameter-sweep runner,
  // and its member count times EnsembleCellsPer replaces NumCells.
  std::string EnsembleSweep; ///< EnsembleSpec::fromSweep grammar
  /// EnsembleSpec::fromJson member list (limpetc --ensemble; no wire field).
  std::string EnsembleMembers;
  int64_t EnsembleCellsPer = 1;

  bool isTissue() const { return TissueNX > 0; }
  bool isEnsemble() const {
    return !EnsembleSweep.empty() || !EnsembleMembers.empty();
  }
  /// The sweep's members, parsed from whichever form is set.
  Expected<EnsembleSpec> ensembleSpec() const {
    return EnsembleMembers.empty()
               ? EnsembleSpec::fromSweep(EnsembleSweep, EnsembleCellsPer)
               : EnsembleSpec::fromJson(EnsembleMembers, EnsembleCellsPer);
  }

  /// The range and exclusivity checks of a run, the same for limpetd
  /// admission and limpetc. Errors name the wire fields.
  Status validate() const;
};

/// Parses a tissue grid size as limpetc --tissue and limpetctl --tissue
/// take it: "NX" or "NXxNY" ('X' also separates), with NX and NY >= 1.
/// The grid keeps the default node spacing.
Expected<TissueGrid> parseTissueGrid(std::string_view Text);

/// What differs between the callers of one RunSpec.
struct RunEnv {
  unsigned Threads = 1; ///< stepping threads (results are thread-invariant)
  /// Durable checkpoints (probed before the build); empty = none.
  std::string CheckpointDir;
  int CheckpointRetain = 3;
  /// Polled at step boundaries; the RunSpec deadline is armed on it. Not
  /// owned; null uses the Run's own token.
  CancelToken *Cancel = nullptr;
  int64_t ProgressEvery = 0; ///< steps between Progress calls (0 = none)
  std::function<void(int64_t StepsDone, int64_t StepTarget)> Progress;
  /// Cache use and stage snapshots of the model compile (the RunSpec
  /// sets its configuration, tier and autotune).
  compiler::DriverOptions Driver;
  /// Assemble the model from this artifact (its configuration wins) rather
  /// than compile it. Not owned. A sweep compiles only its lowered model,
  /// outside the driver, so it refuses an artifact and stage snapshots.
  const compiler::Artifact *Artifact = nullptr;
};

/// A built run. The simulator references the model it steps and the
/// token, so a Run never moves (buildRun hands it out behind a
/// unique_ptr) and Sim is declared last, to be destroyed first.
struct Run {
  /// The compile callers report. For a plain or tissue run, the driver's
  /// result, whose Model steps. For a sweep, the lowered compile's key,
  /// configuration choice, time and native outcome, with no Model: the
  /// lowered model lives in Sweep.
  compiler::CompileResult Compile;
  std::optional<EnsembleModel> Sweep;
  CancelToken Token; ///< the cancel token when the RunEnv brings none
  std::unique_ptr<Simulator> Sim;

  const exec::CompiledModel &model() const {
    return Sweep ? Sweep->model() : *Compile.Model;
  }
  /// Whether the model that steps dispatches to a native kernel.
  bool steppingNative() const { return model().usingNativeTier(); }
  TissueSimulator *tissueSim() const {
    return dynamic_cast<TissueSimulator *>(Sim.get());
  }
  EnsembleRunner *ensembleRunner() const {
    return dynamic_cast<EnsembleRunner *>(Sim.get());
  }
};

/// Validates \p Spec, compiles its model once, attaches the tier and
/// builds the simulator with the deadline armed; every failure is a
/// recoverable error. Resuming is left to the caller's policy.
Expected<std::unique_ptr<Run>> buildRun(const RunSpec &Spec,
                                        const RunEnv &Env);

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_RUN_H
