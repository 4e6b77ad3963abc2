//===- Simulator.h - Single-cell-population simulation driver ---*- C++-*-===//
//
// The analogue of openCARP's `bench` program, as a client of the layered
// runtime: the population lives in a StateBuffer (layout-aware state +
// external arrays), every compute step runs through the Scheduler's
// sharded stepping loop (static schedule, persistent shard-to-thread
// assignment), and the driver adds the minimal "solver stage" surrogate:
// a transmembrane-voltage update Vm += dt*(Istim - Iion) plus a periodic
// stimulus, enough to drive action potentials through the kernels.
//
// Guard rails (optional, SimOptions::Guard): run() scans the population
// for NaN/Inf/out-of-range values every kScanInterval steps. The unit of
// recovery is the member, a set of cells whose results no other cell
// depends on: a plain run is N one-cell members, a sweep its member
// slices (EnsembleRunner), a tissue sheet one member, because diffusion
// couples its nodes. The faulty members of a failed window walk one
// ladder — re-run the window at dt/2, dt/4, dt/8, then on the exact
// scalar kernel at nominal dt — and a member no rung heals is
// quarantined, pinned at the last healthy checkpoint. Each rung re-runs
// the whole population through advance() and then puts every member
// outside the rung back as it was, so healthy members stay bit-identical
// to an undisturbed run. The outcome is summarized in a RunReport and the
// member records. See docs/ROBUSTNESS.md.
//
//===----------------------------------------------------------------------===//

#ifndef LIMPET_SIM_SIMULATOR_H
#define LIMPET_SIM_SIMULATOR_H

#include "exec/CompiledModel.h"
#include "sim/CancelToken.h"
#include "sim/Checkpoint.h"
#include "sim/Health.h"
#include "sim/Scheduler.h"
#include "sim/StateBuffer.h"
#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace limpet {
namespace sim {

/// Health-scan (and in-memory checkpoint) cadence of a guarded run, in
/// steps. Each scan is one vectorized pass over the state and externals.
inline constexpr int64_t kScanInterval = 8;
/// dt-halving rungs of the recovery ladder: rung k re-runs the failed
/// window at dt / 2^k.
inline constexpr int kMaxDtRetries = 3;

/// Fault-tolerance switch for Simulator::run().
struct GuardRailOptions {
  /// Master switch; off preserves the raw stepping loop bit-for-bit.
  bool Enabled = false;
};

/// Durable checkpoint/resume knobs for Simulator::run().
struct CheckpointOptions {
  /// Directory the rotated ckpt-<step>.lmpc files live in; empty disables
  /// durable checkpointing entirely.
  std::string Dir;
  /// Checkpoint cadence in steps (0 = only the final shutdown
  /// checkpoint). In guarded runs checkpoints land on the next healthy
  /// scan boundary at or after the cadence.
  int64_t EveryN = 0;
  /// How many rotated checkpoint files to keep.
  int Retain = 3;
  /// FNV-1a 64 of the model source, stamped into every checkpoint so a
  /// resume against a different model is refused (0 = unknown).
  uint64_t SourceHash = 0;
};

/// Simulation protocol options. The paper's protocol is 100,000 steps of
/// 0.01 ms (1 s) over 8,192 cells; benches scale this down.
struct SimOptions {
  int64_t NumCells = 4096;
  int64_t NumSteps = 1000;
  double Dt = 0.01; ///< ms
  unsigned NumThreads = 1;

  // Stimulus: a current pulse of StimStrength applied during
  // [StimStart, StimStart+StimDuration), repeating every StimPeriod ms
  // (0 = single pulse).
  double StimStart = 1.0;
  double StimDuration = 2.0;
  double StimStrength = 30.0;
  double StimPeriod = 0.0;

  /// Record Vm of TraceCell each step (for AP plots and golden tests).
  bool RecordTrace = false;
  int64_t TraceCell = 0;

  /// Print the telemetry summary (runtime counters + registry) to stdout
  /// when run() finishes. A no-op note in telemetry-off builds.
  bool Stats = false;

  /// Numerical guard rails (health scan, checkpoint/retry, degradation).
  GuardRailOptions Guard;

  /// Durable checkpoint/resume (periodic on-disk snapshots, graceful
  /// shutdown). Independent of Guard: the in-memory guard-rail
  /// checkpoint is for rollback, this one survives the process.
  CheckpointOptions Checkpoint;

  /// Optional cooperative cancel token (explicit cancel / wall-clock
  /// deadline), polled at the same step/window boundaries as the
  /// shutdown flag. Not owned; must outlive run(). A stop through the
  /// token writes the same final durable checkpoint as a shutdown, so
  /// the run stays resumable.
  const CancelToken *Cancel = nullptr;

  /// Progress streaming: when ProgressEvery > 0, Progress(stepsDone,
  /// stepTarget) is invoked at step/window boundaries every
  /// ProgressEvery steps (after the scheduler's shard barrier — never
  /// from inside the stepping hot path). Used by limpetd to stream
  /// NDJSON progress events.
  int64_t ProgressEvery = 0;
  std::function<void(int64_t StepsDone, int64_t StepTarget)> Progress;
};

/// Drives one compiled model over a population of cells.
///
/// The stepping core is an extension point: advance() — one integration
/// substep — is virtual, and everything around it (the guarded run loop,
/// the member recovery ladder, durable checkpoints, cancellation, resume)
/// is inherited machinery. TissueSimulator overrides advance() with the
/// operator-split diffusion pipeline and adds its geometry section to
/// checkpoints through annotateCheckpoint / validateResume.
class Simulator {
public:
  Simulator(const exec::CompiledModel &Model, const SimOptions &Opts);
  virtual ~Simulator() = default;
  Simulator(const Simulator &) = delete;
  Simulator &operator=(const Simulator &) = delete;

  /// Advances one time step (compute stage + voltage update). Guard-rail
  /// scanning only happens inside run(); manual stepping is unguarded.
  void step();

  /// Runs Opts.NumSteps steps, with fault-tolerant stepping when
  /// Opts.Guard.Enabled is set. After resumeFrom, Opts.NumSteps is the
  /// *total* step target, so an interrupted run resumed mid-flight lands
  /// on the same final step as an uninterrupted one. Writes durable
  /// checkpoints on the Opts.Checkpoint cadence and stops cleanly (one
  /// final checkpoint, interrupted() set) when a shutdown was requested.
  void run();

  //===--------------------------------------------------------------------===//
  // Durable checkpoint / resume
  //===--------------------------------------------------------------------===//

  /// Snapshots the full simulation state — population, progress,
  /// parameters, trace, guard-rail counters and member records — into a
  /// serializable CheckpointData.
  CheckpointData captureCheckpoint() const;

  /// Restores this simulator from \p C. Refuses (recoverable error,
  /// state untouched) a checkpoint whose model name, source hash, engine
  /// configuration, population shape or member shape does not match this
  /// simulator. On success the next run() continues bit-identically to
  /// the run that captured \p C.
  Status resumeFrom(const CheckpointData &C);

  /// True when the last run() stopped early on a shutdown request,
  /// cancellation or deadline expiry (after writing its final
  /// checkpoint).
  bool interrupted() const { return Interrupted; }

  /// Why the last run() stopped early (None when it ran to the target).
  StopReason stopReason() const { return LastStop; }

  double time() const { return T; }
  int64_t stepsDone() const { return StepCount; }

  const exec::CompiledModel &model() const { return Model; }
  const SimOptions &options() const { return Opts; }
  /// The population container and the sharded stepping loop this driver
  /// runs through.
  const StateBuffer &stateBuffer() const { return Buf; }
  const Scheduler &scheduler() const { return Sched; }

  /// State variable value of one cell (layout-aware). Out-of-range
  /// cell/sv indices return NaN instead of reading out of bounds.
  double stateOf(int64_t Cell, int64_t Sv) const;
  /// External variable value of one cell (NaN when out of range).
  double externalOf(int64_t Cell, size_t ExtIdx) const;
  /// Membrane voltage of a cell; NaN when the model has no Vm external
  /// or the cell index is out of range. See tryVm for the checked form.
  double vm(int64_t Cell) const;
  /// Checked membrane-voltage access.
  Expected<double> tryVm(int64_t Cell) const;

  /// The recorded Vm trace (one entry per step when RecordTrace is set).
  const std::vector<double> &trace() const { return Trace; }

  /// Sets a parameter and rebuilds the LUT tables. Unknown names and
  /// non-finite values are recoverable errors (the simulation state is
  /// left untouched).
  Status setParam(std::string_view Name, double Value);
  /// Parameter value; NaN for unknown names (see tryParam).
  double param(std::string_view Name) const;
  /// Checked parameter access.
  Expected<double> tryParam(std::string_view Name) const;

  /// Order-independent digest of the full simulation state, used by
  /// engine-equivalence tests.
  double stateChecksum() const;

  /// Whether the model exposes the Vm/Iion convention the voltage update
  /// needs.
  bool hasVoltageCoupling() const { return VmIdx >= 0 && IionIdx >= 0; }

  //===--------------------------------------------------------------------===//
  // Members, guard-rail introspection and fault injection
  //===--------------------------------------------------------------------===//

  /// Member M is cells [M*cellsPerMember(), (M+1)*cellsPerMember()).
  int64_t numMembers() const { return Opts.NumCells / CellsPer; }
  int64_t cellsPerMember() const { return CellsPer; }
  /// Where member \p M stands on the recovery ladder (Ok when out of
  /// range).
  MemberStatus memberStatus(int64_t M) const;
  int64_t membersQuarantined() const { return Report.CellsFrozen / CellsPer; }
  /// Members not quarantined (healed and degraded ones included).
  int64_t membersOk() const { return numMembers() - membersQuarantined(); }

  /// What the last (or ongoing) run() did: faults, retries, substeps,
  /// degraded cells, scan overhead.
  const RunReport &report() const { return Report; }

  /// One bulk health scan of the current population (also used by the
  /// fault-injection harness to verify detection). Quarantined members
  /// always pass it, even one pinned to values that were never in bounds
  /// (a swept external beyond the magnitude limit).
  bool scanIsHealthy() const;

  /// Cells currently violating the health bounds.
  std::vector<int64_t> faultyCells() const;

  /// Layout-aware direct write into the population (fault injection and
  /// scenario setup). Out-of-range indices are ignored.
  void pokeState(int64_t Cell, int64_t Sv, double Value);
  void pokeExternal(size_t ExtIdx, int64_t Cell, double Value);

  /// Mutable access to this simulation's LUT tables (fault injection:
  /// corrupt rows to exercise the scalar-exact fallback).
  runtime::LutTableSet &mutableLuts() { return SimLuts; }

  /// Callback invoked after every completed nominal step (including steps
  /// re-run during recovery): a persistent-fault injector for tests and
  /// the faultinject tool.
  void setFaultInjector(std::function<void(Simulator &)> Injector);

protected:
  struct Checkpoint {
    StateBuffer::Snapshot Snap;
    double T = 0;
    int64_t StepCount = 0;
    size_t TraceLen = 0;
    bool Valid = false;
  };

  void computeStage(double Dt);
  void voltageStage(double Dt);
  /// One integration substep of size Dt (scalar-exact members included).
  /// The virtual stepping core: the guarded run loop, every rung of the
  /// recovery ladder and the durable-checkpoint machinery all drive
  /// whatever pipeline an override installs here.
  virtual void advance(double Dt);
  /// Hook for subclasses to stamp extra sections (tissue geometry) into
  /// a captured checkpoint.
  virtual void annotateCheckpoint(CheckpointData &C) const { (void)C; }
  /// Extra resume validation a subclass needs (e.g. tissue geometry
  /// cross-checks); runs after the base shape checks, before the member
  /// check and before any state is touched. The base refuses tissue
  /// checkpoints: a diffusion-coupled field must not silently continue as
  /// an uncoupled population.
  virtual Status validateResume(const CheckpointData &C) const {
    if (C.TissueNX > 0)
      return Status::error(
          "cannot resume: checkpoint is a tissue run (" +
          std::to_string(C.TissueNX) + "x" + std::to_string(C.TissueNY) +
          " grid); resume it with a tissue simulator");
    return Status::success();
  }
  /// Bookkeeping after the physics of one nominal step: injector hook,
  /// quarantine pins, step count, trace.
  void finishStep();
  /// The value the trace records for this step: Vm of the traced cell.
  double traceValue() const;
  /// Runs \p Steps nominal steps, each split into \p Substeps kernel
  /// steps of Dt/Substeps.
  void runWindow(int64_t Steps, int Substeps);
  void runGuarded(int64_t Target);
  /// Durable-checkpoint cadence + shutdown poll, called at step/window
  /// boundaries (after the scheduler's shard barrier). Returns true when
  /// the run should stop (shutdown requested; final checkpoint written).
  bool durableTick();
  /// Writes one durable checkpoint (timed, counted in telemetry).
  void writeDurableCheckpoint();
  /// The recovery ladder for the window that just failed its scan.
  void recoverWindow(int64_t Window);
  /// One rung: rolls back, re-runs the window at dt/Substeps and puts
  /// every member outside \p Rung back from the state before the rung.
  void rerunWindow(const std::vector<int64_t> &Rung, int64_t Window,
                   int Substeps);
  /// Members (ascending, quarantined ones excluded) with a faulty cell;
  /// \p FaultyCellsOut counts the faulty cells.
  std::vector<int64_t> faultyMembers(int64_t *FaultyCellsOut = nullptr) const;
  bool cellHealthy(int64_t Cell) const;
  bool memberHealthy(int64_t M) const;
  /// scanIsHealthy plus scan-count/scan-time accounting.
  bool timedScan();
  /// Mirrors this run()'s RunReport deltas into the telemetry registry.
  void foldReportIntoTelemetry(const RunReport &Before);

  void takeCheckpoint();
  void rollback();
  bool ensureRecoveryModel();
  void runScalarFallback(double Dt, bool Gather);
  void degradeMember(int64_t M);
  /// Marks member \p M quarantined and pins it, the trace of the failed
  /// window included.
  void quarantineMember(int64_t M, QuarantineReason Why);
  /// Writes member \p M's cells from the last healthy checkpoint.
  void pinMember(int64_t M);
  /// Re-pins every quarantined member (after each step).
  void restorePins();

  const exec::CompiledModel &Model;
  /// Per-simulation LUT tables (rebuilt when parameters change).
  runtime::LutTableSet SimLuts;
  SimOptions Opts;
  /// The one stepping loop (persistent shard plan); constructed before
  /// Buf so the population can be first-touch initialized per shard.
  Scheduler Sched;
  /// The population: state array in the compiled layout + externals.
  StateBuffer Buf;
  std::vector<double> Params;
  /// The single compute stage this driver runs each step (pointers into
  /// Buf/Params/SimLuts, all stable for the simulator's lifetime).
  std::vector<KernelStage> Stages;
  int VmIdx = -1, IionIdx = -1;
  double T = 0;
  int64_t StepCount = 0;
  std::vector<double> Trace;

  // Member table. Subclasses set the shape in their constructors: one
  // member of every node for a tissue sheet, the spec's slices and hash
  // for a sweep.
  int64_t CellsPer = 1;
  uint64_t SpecHash = 0;
  /// Records of the members that left Ok, by member index.
  std::map<int64_t, MemberRecord> Members;

  // Guard-rail state.
  RunReport Report;
  Checkpoint Ck;
  /// Lazily compiled exact scalar model for the fallback path.
  std::unique_ptr<exec::CompiledModel> RecoveryModel;
  bool RecoveryCompileFailed = false;
  /// Scratch for the per-cell scalar fallback (cell-major: NumSv svs then
  /// one slot per external, per degraded cell).
  std::vector<double> FallbackBuf;
  std::vector<int64_t> FallbackCells;
  std::function<void(Simulator &)> Injector;

  // Durable checkpoint state.
  std::unique_ptr<CheckpointStore> Durable;
  int64_t LastDurableStep = 0;
  /// StepCount when the current run() started. Report.StepsTaken is only
  /// folded in when run() returns; captureCheckpoint adds the in-flight
  /// delta so mid-run checkpoints carry an accurate count.
  int64_t RunStartStep = 0;
  bool Resumed = false;
  bool Interrupted = false;
  StopReason LastStop = StopReason::None;
  /// Step target of the run() in flight (for progress callbacks).
  int64_t RunTarget = 0;
  int64_t LastProgressStep = 0;
};

} // namespace sim
} // namespace limpet

#endif // LIMPET_SIM_SIMULATOR_H
