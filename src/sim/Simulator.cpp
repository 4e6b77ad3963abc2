//===- Simulator.cpp ------------------------------------------------------===//

#include "sim/Simulator.h"

#include "compiler/Serialize.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

using namespace limpet;
using namespace limpet::sim;
using namespace limpet::exec;

namespace {
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double quietNaN() { return std::numeric_limits<double>::quiet_NaN(); }

// Sanitize user-reachable knobs instead of corrupting memory or dividing
// by zero downstream. Runs before the scheduler/state-buffer members are
// constructed, so they see the sanitized values.
SimOptions sanitizeOptions(SimOptions Opts) {
  if (Opts.NumCells < 1)
    Opts.NumCells = 1;
  if (Opts.NumSteps < 0)
    Opts.NumSteps = 0;
  if (!std::isfinite(Opts.Dt) || Opts.Dt <= 0)
    Opts.Dt = 0.01;
  if (Opts.TraceCell < 0 || Opts.TraceCell >= Opts.NumCells)
    Opts.TraceCell = 0;
  if (Opts.Checkpoint.EveryN < 0)
    Opts.Checkpoint.EveryN = 0;
  if (Opts.Checkpoint.Retain < 1)
    Opts.Checkpoint.Retain = 1;
  if (Opts.ProgressEvery < 0)
    Opts.ProgressEvery = 0;
  return Opts;
}
} // namespace

Simulator::Simulator(const CompiledModel &ModelIn, const SimOptions &OptsIn)
    : Model(ModelIn), Opts(sanitizeOptions(OptsIn)),
      Sched(Opts.NumCells, Opts.NumThreads,
            std::max(Model.config().Width, 1u)),
      Buf(Model, Opts.NumCells, &Sched) {
  Params = Model.defaultParams();
  SimLuts = Model.buildLuts(Params.data());
  const easyml::ModelInfo &Info = Model.info();
  VmIdx = Info.externalIndex("Vm");
  IionIdx = Info.externalIndex("Iion");
  if (Opts.RecordTrace)
    Trace.reserve(size_t(Opts.NumSteps));

  // The one compute stage of a single-population run. All pointers are
  // stable for the simulator's lifetime (Buf restores snapshots in place,
  // setParam writes Params in place).
  KernelStage Stage;
  Stage.Model = &Model;
  Stage.State = Buf.state();
  Stage.Exts = Buf.extPointers();
  Stage.Params = Params.data();
  Stage.Luts = &SimLuts;
  Stages.push_back(std::move(Stage));
}

void Simulator::computeStage(double Dt) { Sched.step(Stages, Dt, T); }

void Simulator::voltageStage(double Dt) {
  if (!hasVoltageCoupling())
    return;
  // Stimulus window (repeating when StimPeriod > 0).
  double Phase = T;
  if (Opts.StimPeriod > 0)
    Phase = std::fmod(T, Opts.StimPeriod);
  double Stim = (Phase >= Opts.StimStart &&
                 Phase < Opts.StimStart + Opts.StimDuration)
                    ? Opts.StimStrength
                    : 0.0;
  Sched.voltageStep(Buf.ext(size_t(VmIdx)), Buf.ext(size_t(IionIdx)), Stim,
                    Dt);
}

void Simulator::advance(double Dt) {
  bool HasFallback = Report.CellsDegraded > 0;
  if (HasFallback)
    runScalarFallback(Dt, /*Gather=*/true);
  computeStage(Dt);
  if (HasFallback)
    runScalarFallback(Dt, /*Gather=*/false);
  voltageStage(Dt);
  T += Dt;
}

void Simulator::finishStep() {
  ++StepCount;
  if (Injector)
    Injector(*this);
  if (Report.CellsFrozen > 0)
    restorePins();
  if (Opts.RecordTrace)
    Trace.push_back(traceValue());
}

double Simulator::traceValue() const {
  return VmIdx >= 0 ? Buf.readExt(size_t(VmIdx), Opts.TraceCell)
                    : stateOf(Opts.TraceCell, 0);
}

void Simulator::step() {
  advance(Opts.Dt);
  finishStep();
}

void Simulator::runWindow(int64_t Steps, int Substeps) {
  double SubDt = Opts.Dt / Substeps;
  for (int64_t I = 0; I != Steps; ++I) {
    for (int S = 0; S != Substeps; ++S)
      advance(SubDt);
    if (Substeps > 1)
      Report.Substeps += Substeps - 1;
    finishStep();
  }
}

void Simulator::run() {
  telemetry::TraceSpan Span("sim.run:" + Model.info().Name, "sim");
  RunReport Before = Report;
  telemetry::RuntimeCounters RtBefore = telemetry::runtimeCounters();
  auto T0 = Clock::now();
  Interrupted = false;
  LastStop = StopReason::None;
  if (!Durable && !Opts.Checkpoint.Dir.empty()) {
    Durable = std::make_unique<CheckpointStore>(Opts.Checkpoint.Dir,
                                                Opts.Checkpoint.Retain);
    // Callers wanting the unwritable-directory error *before* stepping
    // (limpetc does) call prepare() themselves; here a failure just means
    // every later write counts a sim.checkpoint.errors tick.
    if (Status S = Durable->prepare(); !S)
      telemetry::counter("sim.checkpoint.errors").add(1);
  }
  LastDurableStep = StepCount;
  RunStartStep = StepCount;
  // A resumed run chases the same total step target the interrupted run
  // had, so it ends on the same step — the precondition for the resumed
  // final state being bit-identical to the uninterrupted one.
  int64_t Target = Resumed ? Opts.NumSteps : StepCount + Opts.NumSteps;
  RunTarget = Target;
  LastProgressStep = StepCount;
  if (!Opts.Guard.Enabled) {
    while (StepCount < Target) {
      step();
      if (durableTick())
        break;
    }
  } else {
    runGuarded(Target);
  }
  Report.StepsTaken += StepCount - RunStartStep;
  RunStartStep = StepCount;
  Report.RunSeconds += secondsSince(T0);
  foldReportIntoTelemetry(Before);
  // Modeled memory traffic of this run (roofline numerator): the delta of
  // the per-chunk byte counters the backends accumulated.
  telemetry::RuntimeCounters RtAfter = telemetry::runtimeCounters();
  if (RtAfter.BytesLoaded > RtBefore.BytesLoaded)
    telemetry::counter("sim.bytes.loaded")
        .add(RtAfter.BytesLoaded - RtBefore.BytesLoaded);
  if (RtAfter.BytesStored > RtBefore.BytesStored)
    telemetry::counter("sim.bytes.stored")
        .add(RtAfter.BytesStored - RtBefore.BytesStored);
  if (Opts.Stats)
    std::fputs(telemetry::summaryReport().c_str(), stdout);
}

/// Mirrors what this run() added to the RunReport into the global counter
/// registry, so guard-rail activity shows up next to the compile and
/// kernel counters in --stats output and bench NDJSON records.
void Simulator::foldReportIntoTelemetry(const RunReport &Before) {
  auto Add = [](const char *Path, int64_t Delta) {
    if (Delta > 0)
      telemetry::counter(Path).add(uint64_t(Delta));
  };
  Add("sim.steps", Report.StepsTaken - Before.StepsTaken);
  Add("sim.health.scans", Report.HealthScans - Before.HealthScans);
  Add("sim.health.fault_events", Report.FaultEvents - Before.FaultEvents);
  Add("sim.health.faulty_cells", Report.FaultyCells - Before.FaultyCells);
  Add("sim.recovery.retries", Report.Retries - Before.Retries);
  Add("sim.recovery.substeps", Report.Substeps - Before.Substeps);
  Add("sim.recovery.cells_degraded",
      Report.CellsDegraded - Before.CellsDegraded);
  Add("sim.recovery.cells_frozen", Report.CellsFrozen - Before.CellsFrozen);
  Add("sim.health.scan.ns",
      int64_t((Report.ScanSeconds - Before.ScanSeconds) * 1e9));
  Add("sim.recovery.ns",
      int64_t((Report.RecoverySeconds - Before.RecoverySeconds) * 1e9));
  Add("sim.run.ns", int64_t((Report.RunSeconds - Before.RunSeconds) * 1e9));
}

void Simulator::runGuarded(int64_t Target) {
  takeCheckpoint();
  while (StepCount < Target) {
    int64_t Window = std::min(kScanInterval, Target - StepCount);
    runWindow(Window, 1);
    if (timedScan())
      takeCheckpoint();
    else
      recoverWindow(Window);
    // Durable checkpoints land only on healthy scan boundaries (the
    // in-memory checkpoint was just refreshed either way), so a resumed
    // guarded run rebuilds the identical rollback point.
    if (durableTick())
      break;
  }
}

bool Simulator::durableTick() {
  // Stop sources in precedence order: the process-wide shutdown flag
  // (SIGINT/SIGTERM — the whole process is going away), then this run's
  // cancel token (explicit cancel or wall-clock deadline). All of them
  // stop at this boundary — after the scheduler's shard barrier — with
  // one final durable checkpoint, so every early stop is resumable.
  StopReason Stop = StopReason::None;
  if (shutdownRequested())
    Stop = StopReason::Shutdown;
  else if (Opts.Cancel)
    Stop = Opts.Cancel->stopRequested();
  if (Stop != StopReason::None) {
    if (Durable && StepCount > LastDurableStep)
      writeDurableCheckpoint();
    Interrupted = true;
    LastStop = Stop;
    return true;
  }
  if (Durable && Opts.Checkpoint.EveryN > 0 &&
      StepCount - LastDurableStep >= Opts.Checkpoint.EveryN)
    writeDurableCheckpoint();
  if (Opts.ProgressEvery > 0 && Opts.Progress &&
      StepCount - LastProgressStep >= Opts.ProgressEvery) {
    LastProgressStep = StepCount;
    Opts.Progress(StepCount, RunTarget);
  }
  return false;
}

void Simulator::writeDurableCheckpoint() {
  auto T0 = Clock::now();
  CheckpointData C = captureCheckpoint();
  std::string Bytes = serializeCheckpoint(C);
  Status S =
      compiler::writeFileAtomic(Bytes, Durable->pathForStep(C.StepCount));
  if (S) {
    Durable->prune();
    LastDurableStep = StepCount;
    telemetry::counter("sim.checkpoint.count").add(1);
    telemetry::counter("sim.checkpoint.bytes").add(Bytes.size());
  } else {
    // A full disk mid-run degrades durability, not the simulation: keep
    // stepping, count the failure, and let older checkpoints stand.
    telemetry::counter("sim.checkpoint.errors").add(1);
  }
  telemetry::counter("sim.checkpoint.ns")
      .add(uint64_t(secondsSince(T0) * 1e9));
}

bool Simulator::timedScan() {
  telemetry::TraceSpan Span("health-scan", "sim");
  auto T0 = Clock::now();
  bool Healthy = scanIsHealthy();
  ++Report.HealthScans;
  Report.ScanSeconds += secondsSince(T0);
  return Healthy;
}

void Simulator::recoverWindow(int64_t Window) {
  telemetry::TraceSpan Span("recovery", "sim");
  if (telemetry::TraceRecorder *R = telemetry::TraceRecorder::active())
    R->instant("fault-detected", "sim");
  auto T0 = Clock::now();
  double ScanSecondsAtEntry = Report.ScanSeconds;
  ++Report.FaultEvents;
  int64_t BadCells = 0;
  std::vector<int64_t> Bad = faultyMembers(&BadCells);
  Report.FaultyCells += BadCells;
  for (int64_t M : Bad)
    Members[M].FaultSteps += Window;
  // Drops the members a rung healed from the next rung; one that healed
  // on the full-speed path is Recovered.
  auto DropHealed = [&] {
    std::erase_if(Bad, [&](int64_t M) {
      if (!memberHealthy(M))
        return false;
      if (Members[M].Status == MemberStatus::Ok)
        Members[M].Status = MemberStatus::Recovered;
      return true;
    });
  };

  // Rung 1: re-run the window at dt/2, dt/4, dt/8. A corrupted lookup
  // table cannot be healed by re-integration — every retry would read the
  // same poisoned rows — so it goes straight to the scalar-exact rung.
  bool TablesBroken = !SimLuts.allFinite();
  for (int Retry = 1; !TablesBroken && !Bad.empty() && Retry <= kMaxDtRetries;
       ++Retry) {
    ++Report.Retries;
    for (int64_t M : Bad)
      ++Members[M].DtRetries;
    rerunWindow(Bad, Window, 1 << Retry);
    DropHealed();
  }

  // Rung 2: the members still faulty move to the exact scalar kernel (no
  // LUTs, libm) for the rest of the run, and the window re-runs at
  // nominal dt.
  bool HasScalar = !Bad.empty() && ensureRecoveryModel();
  if (HasScalar) {
    for (int64_t M : Bad)
      degradeMember(M);
    rerunWindow(Bad, Window, 1);
    DropHealed();
  }

  // Whatever no rung healed is quarantined, and so is any member a final
  // scan still finds faulty, so the population is clean by construction.
  QuarantineReason Why =
      HasScalar ? QuarantineReason::ScalarFault : QuarantineReason::DtFloor;
  for (int64_t M : Bad)
    quarantineMember(M, Why);
  if (!timedScan())
    for (int64_t M : faultyMembers())
      quarantineMember(M, Why);
  takeCheckpoint();
  double ScanPortion = Report.ScanSeconds - ScanSecondsAtEntry;
  Report.RecoverySeconds += secondsSince(T0) - ScanPortion;
}

void Simulator::rerunWindow(const std::vector<int64_t> &Rung, int64_t Window,
                            int Substeps) {
  // A rung that covers every member has nothing to put back.
  bool Partial = int64_t(Rung.size()) != numMembers();
  StateBuffer::Snapshot Before;
  std::vector<double> TraceBefore;
  if (Partial) {
    Buf.save(Before);
    TraceBefore.assign(Trace.begin() + ptrdiff_t(Ck.TraceLen), Trace.end());
  }
  rollback();
  runWindow(Window, Substeps);
  if (!Partial)
    return;

  // Keep the rung's cells, put everything else back (AoSoA pad lanes
  // included, so the state array matches an undisturbed run byte for
  // byte outside the rung).
  unsigned NumSv = Buf.numSv();
  size_t PerCell = NumSv + Buf.numExternals();
  std::vector<double> Kept(Rung.size() * size_t(CellsPer) * PerCell);
  double *Out = Kept.data();
  for (int64_t M : Rung)
    for (int64_t C = M * CellsPer; C != (M + 1) * CellsPer; ++C, Out += PerCell)
      Buf.gatherCell(C, Out, Out + NumSv);
  bool TraceInRung = std::binary_search(Rung.begin(), Rung.end(),
                                        Opts.TraceCell / CellsPer);
  Buf.restore(Before);
  Out = Kept.data();
  for (int64_t M : Rung)
    for (int64_t C = M * CellsPer; C != (M + 1) * CellsPer; ++C, Out += PerCell)
      Buf.scatterCell(C, Out, Out + NumSv);
  if (!TraceInRung)
    std::copy(TraceBefore.begin(), TraceBefore.end(),
              Trace.begin() + ptrdiff_t(Ck.TraceLen));
}

bool Simulator::scanIsHealthy() const {
  bool InBounds =
      allWithinMagnitude(Buf.state(), Buf.stateSize(), kStateMagLimit);
  for (size_t J = 0; InBounds && J != Buf.numExternals(); ++J) {
    const double *E = Buf.ext(J);
    InBounds = int(J) == VmIdx
                   ? allWithinRange(E, size_t(Opts.NumCells), kVmLo, kVmHi)
                   : allWithinMagnitude(E, size_t(Opts.NumCells),
                                        kStateMagLimit);
  }
  if (InBounds || Report.CellsFrozen == 0)
    return InBounds;
  // A quarantined member is pinned to the last healthy checkpoint, which
  // need not hold it in bounds: a member whose swept external exceeds the
  // magnitude limit is faulty from step 0. Only the other members count.
  for (int64_t M = 0; M != numMembers(); ++M)
    if (memberStatus(M) != MemberStatus::Quarantined && !memberHealthy(M))
      return false;
  return true;
}

bool Simulator::cellHealthy(int64_t Cell) const {
  for (unsigned Sv = 0; Sv != Buf.numSv(); ++Sv)
    if (!(std::fabs(Buf.readState(Cell, Sv)) <= kStateMagLimit))
      return false;
  for (size_t J = 0; J != Buf.numExternals(); ++J) {
    double V = Buf.readExt(J, Cell);
    if (int(J) == VmIdx ? !(V >= kVmLo && V <= kVmHi)
                        : !(std::fabs(V) <= kStateMagLimit))
      return false;
  }
  return true;
}

bool Simulator::memberHealthy(int64_t M) const {
  for (int64_t C = M * CellsPer; C != (M + 1) * CellsPer; ++C)
    if (!cellHealthy(C))
      return false;
  return true;
}

std::vector<int64_t> Simulator::faultyCells() const {
  std::vector<int64_t> Bad;
  for (int64_t C = 0; C != Opts.NumCells; ++C)
    if (!cellHealthy(C))
      Bad.push_back(C);
  return Bad;
}

std::vector<int64_t> Simulator::faultyMembers(int64_t *FaultyCellsOut) const {
  std::vector<int64_t> Bad;
  int64_t Cells = 0;
  for (int64_t C : faultyCells()) {
    int64_t M = C / CellsPer;
    if (memberStatus(M) == MemberStatus::Quarantined)
      continue;
    ++Cells;
    if (Bad.empty() || Bad.back() != M)
      Bad.push_back(M);
  }
  if (FaultyCellsOut)
    *FaultyCellsOut = Cells;
  return Bad;
}

void Simulator::takeCheckpoint() {
  Buf.save(Ck.Snap);
  Ck.T = T;
  Ck.StepCount = StepCount;
  Ck.TraceLen = Trace.size();
  Ck.Valid = true;
}

void Simulator::rollback() {
  Buf.restore(Ck.Snap);
  T = Ck.T;
  StepCount = Ck.StepCount;
  Trace.resize(Ck.TraceLen);
}

bool Simulator::ensureRecoveryModel() {
  if (RecoveryModel)
    return true;
  if (RecoveryCompileFailed)
    return false;
  std::string Error;
  auto M = CompiledModel::compile(Model.info(), EngineConfig::recovery(),
                                  &Error);
  if (!M) {
    RecoveryCompileFailed = true;
    return false;
  }
  RecoveryModel = std::make_unique<CompiledModel>(std::move(*M));
  return true;
}

void Simulator::runScalarFallback(double Dt, bool Gather) {
  unsigned NumSv = Model.program().NumSv;
  size_t PerCell = NumSv + Buf.numExternals();
  if (Gather) {
    // Integrate each degraded cell with the exact scalar kernel from its
    // pre-step state; the results are scattered over whatever the fast
    // path produced for those lanes once it has run.
    FallbackCells.clear();
    for (const auto &[M, Rec] : Members)
      if (Rec.Status == MemberStatus::ScalarExact)
        for (int64_t C = M * CellsPer; C != (M + 1) * CellsPer; ++C)
          FallbackCells.push_back(C);
    FallbackBuf.resize(FallbackCells.size() * PerCell);
    KernelArgs Args;
    Args.Params = Params.data();
    Args.Start = 0;
    Args.End = 1;
    Args.NumCells = 1;
    Args.Dt = Dt;
    Args.Exts.resize(Buf.numExternals());
    for (size_t I = 0; I != FallbackCells.size(); ++I) {
      int64_t C = FallbackCells[I];
      double *Sv = &FallbackBuf[I * PerCell];
      double *Ext = Sv + NumSv;
      Buf.gatherCell(C, Sv, Ext);
      for (size_t J = 0; J != Buf.numExternals(); ++J)
        Args.Exts[J] = &Ext[J];
      Args.State = Sv;
      Args.T = T;
      RecoveryModel->computeStep(Args);
    }
    return;
  }
  for (size_t I = 0; I != FallbackCells.size(); ++I) {
    const double *Sv = &FallbackBuf[I * PerCell];
    Buf.scatterCell(FallbackCells[I], Sv, Sv + NumSv);
  }
}

void Simulator::degradeMember(int64_t M) {
  MemberRecord &Rec = Members[M];
  if (Rec.Status == MemberStatus::ScalarExact)
    return;
  Rec.Status = MemberStatus::ScalarExact;
  Report.CellsDegraded += CellsPer;
}

void Simulator::quarantineMember(int64_t M, QuarantineReason Why) {
  // Callers pass only members faultyMembers() names, never quarantined.
  MemberRecord &Rec = Members[M];
  if (Rec.Status == MemberStatus::ScalarExact)
    Report.CellsDegraded -= CellsPer;
  Rec.Status = MemberStatus::Quarantined;
  Rec.Reason = Why;
  Rec.QuarantineStep = Ck.StepCount;
  Report.CellsFrozen += CellsPer;
  if (SpecHash != 0)
    telemetry::counter("sim.ensemble.quarantined").add(1);
  pinMember(M);
  // The failed window's trace entries were recorded before the pin; they
  // read the pinned value, as every later step's entry will.
  if (Opts.RecordTrace && Opts.TraceCell / CellsPer == M)
    std::fill(Trace.begin() + ptrdiff_t(Ck.TraceLen), Trace.end(),
              traceValue());
}

void Simulator::pinMember(int64_t M) {
  // The fast path keeps streaming over a quarantined member's lanes; its
  // cells go back to their values in the last healthy checkpoint, which
  // every later checkpoint then carries unchanged.
  for (int64_t C = M * CellsPer; C != (M + 1) * CellsPer; ++C) {
    for (unsigned S = 0; S != Buf.numSv(); ++S)
      Buf.writeState(C, S, Buf.snapshotState(Ck.Snap, C, S));
    for (size_t J = 0; J != Buf.numExternals(); ++J)
      Buf.writeExt(J, C, Ck.Snap.Exts[J][size_t(C)]);
  }
}

void Simulator::restorePins() {
  for (const auto &[M, Rec] : Members)
    if (Rec.Status == MemberStatus::Quarantined)
      pinMember(M);
}

MemberStatus Simulator::memberStatus(int64_t M) const {
  auto It = Members.find(M);
  return It == Members.end() ? MemberStatus::Ok : It->second.Status;
}

double Simulator::stateOf(int64_t Cell, int64_t Sv) const {
  if (Cell < 0 || Cell >= Opts.NumCells || Sv < 0 ||
      Sv >= int64_t(Buf.numSv()))
    return quietNaN();
  return Buf.readState(Cell, Sv);
}

double Simulator::externalOf(int64_t Cell, size_t ExtIdx) const {
  if (Cell < 0 || Cell >= Opts.NumCells || ExtIdx >= Buf.numExternals())
    return quietNaN();
  return Buf.readExt(ExtIdx, Cell);
}

double Simulator::vm(int64_t Cell) const {
  return tryVm(Cell).valueOr(quietNaN());
}

Expected<double> Simulator::tryVm(int64_t Cell) const {
  if (VmIdx < 0)
    return Status::error("model '" + Model.info().Name +
                         "' has no Vm external");
  if (Cell < 0 || Cell >= Opts.NumCells)
    return Status::error("cell index " + std::to_string(Cell) +
                         " out of range [0, " +
                         std::to_string(Opts.NumCells) + ")");
  return Buf.readExt(size_t(VmIdx), Cell);
}

void Simulator::pokeState(int64_t Cell, int64_t Sv, double Value) {
  if (Cell < 0 || Cell >= Opts.NumCells || Sv < 0 ||
      Sv >= int64_t(Buf.numSv()))
    return;
  Buf.writeState(Cell, Sv, Value);
}

void Simulator::pokeExternal(size_t ExtIdx, int64_t Cell, double Value) {
  if (Cell < 0 || Cell >= Opts.NumCells || ExtIdx >= Buf.numExternals())
    return;
  Buf.writeExt(ExtIdx, Cell, Value);
}

void Simulator::setFaultInjector(std::function<void(Simulator &)> F) {
  Injector = std::move(F);
}

Status Simulator::setParam(std::string_view Name, double Value) {
  int Idx = Model.info().paramIndex(Name);
  if (Idx < 0)
    return Status::error("unknown parameter '" + std::string(Name) +
                         "' for model '" + Model.info().Name + "'");
  if (!std::isfinite(Value))
    return Status::error("non-finite value for parameter '" +
                         std::string(Name) + "'");
  Params[size_t(Idx)] = Value;
  SimLuts = Model.buildLuts(Params.data());
  return Status::success();
}

double Simulator::param(std::string_view Name) const {
  return tryParam(Name).valueOr(quietNaN());
}

Expected<double> Simulator::tryParam(std::string_view Name) const {
  int Idx = Model.info().paramIndex(Name);
  if (Idx < 0)
    return Status::error("unknown parameter '" + std::string(Name) +
                         "' for model '" + Model.info().Name + "'");
  return Params[size_t(Idx)];
}

double Simulator::stateChecksum() const { return Buf.checksum(); }

//===----------------------------------------------------------------------===//
// Durable checkpoint / resume
//===----------------------------------------------------------------------===//

CheckpointData Simulator::captureCheckpoint() const {
  CheckpointData C;
  C.ModelName = Model.info().Name;
  C.SourceHash = Opts.Checkpoint.SourceHash;
  C.Config = Model.config();

  C.NumCells = Opts.NumCells;
  C.NumSv = Buf.numSv();
  C.NumExts = uint32_t(Buf.numExternals());
  C.Layout = uint8_t(Buf.layout());
  C.BlockW = Buf.blockWidth();

  C.StepCount = StepCount;
  C.T = T;
  C.Dt = Opts.Dt;

  // Pad lanes included: a restore is a straight memcpy and bit-exact.
  C.State.assign(Buf.state(), Buf.state() + Buf.stateSize());
  C.Exts.resize(Buf.numExternals());
  for (size_t J = 0; J != Buf.numExternals(); ++J)
    C.Exts[J].assign(Buf.ext(J), Buf.ext(J) + Opts.NumCells);

  C.Params = Params;
  C.Trace = Trace;
  C.Report = Report;
  // The steps of the run in flight are only folded into the report when
  // run() returns; a checkpoint captured mid-run counts them itself.
  C.Report.StepsTaken += StepCount - RunStartStep;

  C.CellsPerMember = CellsPer;
  C.SpecHash = SpecHash;
  C.Members = Members;
  annotateCheckpoint(C);
  return C;
}

Status Simulator::resumeFrom(const CheckpointData &C) {
  if (C.ModelName != Model.info().Name)
    return Status::error("cannot resume: checkpoint is of model '" +
                         C.ModelName + "', this simulator runs '" +
                         Model.info().Name + "'");
  if (C.SourceHash != 0 && Opts.Checkpoint.SourceHash != 0 &&
      C.SourceHash != Opts.Checkpoint.SourceHash)
    return Status::error(
        "cannot resume: model source changed since the checkpoint of '" +
        C.ModelName + "' was written (source hash mismatch)");
  if (!(C.Config == Model.config()))
    return Status::error(
        "cannot resume: checkpoint was captured under engine '" +
        engineConfigName(C.Config) + "', this simulator runs '" +
        engineConfigName(Model.config()) + "'");
  if (C.NumCells != Opts.NumCells || C.NumSv != Buf.numSv() ||
      C.NumExts != Buf.numExternals() ||
      C.Layout != uint8_t(Buf.layout()) || C.BlockW != Buf.blockWidth())
    return Status::error("cannot resume: population shape mismatch "
                         "(cells/state-variables/layout differ)");
  if (C.State.size() != Buf.stateSize() ||
      C.Params.size() != Params.size())
    return Status::error("cannot resume: array sizes do not match the "
                         "compiled model");
  if (Status S = validateResume(C); !S)
    return S;
  if (C.CellsPerMember != CellsPer || C.SpecHash != SpecHash) {
    auto Shape = [&](int64_t Per, uint64_t Hash) {
      return std::string(Hash ? "an ensemble of " : "not an ensemble (") +
             std::to_string(Opts.NumCells / Per) + " members x " +
             std::to_string(Per) + (Hash ? " cells" : " cells)");
    };
    if (C.CellsPerMember == CellsPer && (C.SpecHash == 0) == (SpecHash == 0))
      return Status::error("cannot resume: checkpoint was captured under a "
                           "different sweep (spec hash mismatch)");
    return Status::error("cannot resume: member shape mismatch (checkpoint "
                         "is " +
                         Shape(C.CellsPerMember, C.SpecHash) +
                         ", this run is " + Shape(CellsPer, SpecHash) + ")");
  }

  std::memcpy(Buf.state(), C.State.data(),
              C.State.size() * sizeof(double));
  for (size_t J = 0; J != Buf.numExternals(); ++J)
    std::memcpy(Buf.ext(J), C.Exts[J].data(),
                size_t(Opts.NumCells) * sizeof(double));

  Params = C.Params;
  SimLuts = Model.buildLuts(Params.data());
  T = C.T;
  StepCount = C.StepCount;
  RunStartStep = StepCount;
  Trace = C.Trace;
  Report = C.Report;

  Members = C.Members;

  // The in-memory guard-rail checkpoint does not survive the process; it
  // is retaken from the restored population, which holds the pinned
  // values of quarantined members.
  takeCheckpoint();
  Resumed = true;
  Interrupted = false;
  return Status::success();
}
