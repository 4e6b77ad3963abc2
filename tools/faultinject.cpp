//===- faultinject.cpp - Fault-injection harness for the guard rails ------===//
//
// Deliberately breaks running simulations — NaNs injected into state,
// +Inf into Vm, corrupted LUT rows, pathological dt and parameters — and
// verifies that every rung of the Simulator's recovery ladder fires for
// plain, sweep and tissue members and leaves the population healthy
// (docs/ROBUSTNESS.md). Exits nonzero when any scenario's recovery or
// RunReport accounting does not match the injections, so it doubles as
// an acceptance check:
//
//   faultinject            run every scenario
//   faultinject nan-state  run one scenario
//   faultinject --list     list scenarios
//
//===----------------------------------------------------------------------===//

#include "compiler/CompileCache.h"
#include "compiler/CompilerDriver.h"
#include "compiler/Serialize.h"
#include "daemon/JobQueue.h"
#include "support/Telemetry.h"
#include "daemon/Journal.h"
#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Checkpoint.h"
#include "sim/Ensemble.h"
#include "sim/Simulator.h"
#include "sim/TissueSimulator.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <unistd.h>

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::sim;

namespace {

double quietNaN() { return std::numeric_limits<double>::quiet_NaN(); }

std::optional<CompiledModel> compileSuiteModel(const char *Name,
                                               EngineConfig Cfg) {
  const models::ModelEntry *M = models::findModel(Name);
  if (!M) {
    std::fprintf(stderr, "error: suite model '%s' not found\n", Name);
    return std::nullopt;
  }
  // Through the driver: repeated scenarios on the same (model, config)
  // hit the in-process compile cache instead of re-running codegen.
  compiler::DriverOptions Opts;
  Opts.Config = std::move(Cfg);
  compiler::CompilerDriver Driver(std::move(Opts));
  compiler::CompileResult R = Driver.compileEntry(*M);
  if (!R) {
    std::fprintf(stderr, "error: compilation failed: %s\n",
                 R.Err.message().c_str());
    return std::nullopt;
  }
  return std::move(R.Model);
}

/// The common protocol: a paced population small enough that every
/// scenario runs in well under a second, stepped long enough to cross
/// many scan windows.
SimOptions guardedOpts(int64_t Cells = 32, int64_t Steps = 200) {
  SimOptions Opts;
  Opts.NumCells = Cells;
  Opts.NumSteps = Steps;
  Opts.StimPeriod = 20.0;
  Opts.Guard.Enabled = true;
  return Opts;
}

bool check(bool Cond, const char *What) {
  if (!Cond)
    std::printf("  FAIL: %s\n", What);
  return Cond;
}

bool populationFinite(const Simulator &S) {
  for (int64_t C = 0; C != S.options().NumCells; ++C)
    if (!std::isfinite(S.vm(C)))
      return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Scenarios
//===----------------------------------------------------------------------===//

/// A single NaN written into one cell's state: rollback plus dt-halving
/// re-integration must heal it with no cell degraded or frozen.
bool scenarioNanState() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  Simulator S(*M, guardedOpts());
  bool Fired = false;
  S.setFaultInjector([&](Simulator &Sim) {
    if (!Fired && Sim.stepsDone() == 40) {
      Fired = true;
      Sim.pokeState(/*Cell=*/3, /*Sv=*/0, quietNaN());
    }
  });
  S.run();
  const RunReport &R = S.report();
  std::printf("%s", R.str().c_str());
  bool Ok = check(Fired, "injector fired");
  Ok &= check(S.scanIsHealthy(), "population healthy after recovery");
  Ok &= check(R.FaultEvents == 1, "exactly one fault event");
  Ok &= check(R.FaultyCells == 1, "exactly one faulty cell observed");
  Ok &= check(R.Retries >= 1 && R.Substeps > 0, "healed by sub-stepping");
  Ok &= check(R.CellsDegraded == 0 && R.CellsFrozen == 0,
              "no degradation needed");
  Ok &= check(S.memberStatus(3) == MemberStatus::Recovered,
              "victim recovered, back on the full-speed path");
  return Ok;
}

/// A single +Inf written into Vm: same transient class as nan-state.
bool scenarioInfVm() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  int VmIdx = M->info().externalIndex("Vm");
  if (!check(VmIdx >= 0, "model has a Vm external"))
    return false;
  Simulator S(*M, guardedOpts());
  bool Fired = false;
  S.setFaultInjector([&](Simulator &Sim) {
    if (!Fired && Sim.stepsDone() == 17) {
      Fired = true;
      Sim.pokeExternal(size_t(VmIdx), /*Cell=*/7,
                       std::numeric_limits<double>::infinity());
    }
  });
  S.run();
  const RunReport &R = S.report();
  std::printf("%s", R.str().c_str());
  bool Ok = check(Fired, "injector fired");
  Ok &= check(S.scanIsHealthy(), "population healthy after recovery");
  Ok &= check(R.FaultEvents == 1 && R.FaultyCells == 1,
              "report matches the single injection");
  Ok &= check(R.CellsFrozen == 0, "no cell frozen");
  return Ok;
}

/// A NaN re-injected into the same cell after every step: no amount of
/// re-integration heals it, so the ladder must end with that one-cell
/// member quarantined while every other cell keeps evolving normally.
bool scenarioPersistent() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  const int64_t Victim = 5;
  Simulator S(*M, guardedOpts());
  S.setFaultInjector([&](Simulator &Sim) {
    Sim.pokeState(Victim, /*Sv=*/1, quietNaN());
  });
  S.run();

  // Reference: the same guarded protocol with no injection.
  Simulator Clean(*M, guardedOpts());
  Clean.run();

  const RunReport &R = S.report();
  std::printf("%s", R.str().c_str());
  bool Ok = check(S.scanIsHealthy(), "population healthy after recovery");
  Ok &= check(S.memberStatus(Victim) == MemberStatus::Quarantined,
              "victim quarantined");
  Ok &= check(R.CellsFrozen == 1, "exactly one cell frozen");
  bool NeighborsExact = true;
  for (int64_t C = 0; C != S.options().NumCells; ++C)
    if (C != Victim)
      NeighborsExact &= S.vm(C) == Clean.vm(C);
  Ok &= check(NeighborsExact,
              "neighbors bit-identical to an undisturbed guarded run");
  return Ok;
}

/// Every row of every LUT poisoned with NaN: re-integration would read
/// the same poisoned rows, so the ladder must skip straight to the
/// scalar-exact (no-LUT) fallback for the whole population.
bool scenarioLutCorrupt() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  SimOptions Opts = guardedOpts(/*Cells=*/16, /*Steps=*/64);
  Simulator S(*M, Opts);
  runtime::LutTableSet &Luts = S.mutableLuts();
  if (!check(!Luts.empty(), "model has LUT tables to corrupt"))
    return false;
  for (runtime::LutTable &T : Luts.Tables)
    for (int Row = 0; Row != T.rows(); ++Row)
      for (int Col = 0; Col != T.cols(); ++Col)
        T.at(Row, Col) = quietNaN();
  S.run();
  const RunReport &R = S.report();
  std::printf("%s", R.str().c_str());
  bool Ok = check(S.scanIsHealthy(), "population healthy after recovery");
  Ok &= check(R.CellsDegraded == Opts.NumCells,
              "whole population degraded to the scalar-exact path");
  Ok &= check(R.Retries == 0,
              "dt ladder skipped for an unhealable table fault");
  Ok &= check(R.CellsFrozen == 0, "no cell frozen");
  Ok &= check(populationFinite(S), "population still evolving");
  return Ok;
}

/// dt two orders of magnitude past the stability limit: the integration
/// blows up every window; the guard must keep the run finite (sub-steps
/// where they help, frozen cells where they don't) instead of letting
/// the population diverge.
bool scenarioExtremeDt() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::baseline());
  if (!M)
    return false;
  SimOptions Opts = guardedOpts(/*Cells=*/8, /*Steps=*/64);
  Opts.Dt = 1.0; // HH forward-Euler is stable around 0.01-0.02 ms
  Simulator S(*M, Opts);
  S.run();
  const RunReport &R = S.report();
  std::printf("%s", R.str().c_str());
  bool Ok = check(S.scanIsHealthy(), "population healthy after recovery");
  Ok &= check(R.FaultEvents > 0, "instability detected");
  Ok &= check(R.Retries > 0, "dt ladder attempted");
  Ok &= check(populationFinite(S), "population finite at the end");
  Ok &= check(S.stepsDone() == Opts.NumSteps, "run completed");
  return Ok;
}

/// A pathological parameter (1e8x sodium conductance): the model is
/// genuinely broken, so cells end up frozen — but the run completes and
/// says so, instead of asserting or emitting NaNs.
bool scenarioExtremeParam() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  SimOptions Opts = guardedOpts(/*Cells=*/8, /*Steps=*/64);
  Simulator S(*M, Opts);
  Status St = S.setParam("gNa", 1.2e10);
  if (!check(St.isOk(), "setParam accepted a finite (if absurd) value"))
    return false;
  S.run();
  const RunReport &R = S.report();
  std::printf("%s", R.str().c_str());
  bool Ok = check(S.scanIsHealthy(), "population healthy after recovery");
  Ok &= check(R.FaultEvents > 0, "blow-up detected");
  Ok &= check(populationFinite(S), "population finite at the end");
  Ok &= check(S.stepsDone() == Opts.NumSteps, "run completed");
  return Ok;
}

/// A persistent NaN under a sharded (multi-threaded) stepping loop:
/// recovery rollback/fallback/quarantine operates on StateBuffer checkpoints
/// shared across shards, and the result must be bit-identical to the
/// same injection handled single-threaded — threading must change
/// nothing about where the ladder lands.
bool scenarioSharded() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  const int64_t Victim = 11;
  struct Outcome {
    std::vector<double> Vm;
    RunReport Report;
    bool Healthy = false;
    bool VictimFrozen = false;
    unsigned Shards = 0;
  };
  auto RunWith = [&](unsigned Threads) {
    SimOptions Opts = guardedOpts(/*Cells=*/64, /*Steps=*/200);
    Opts.NumThreads = Threads;
    Simulator S(*M, Opts);
    S.setFaultInjector([&](Simulator &Sim) {
      Sim.pokeState(Victim, /*Sv=*/1, quietNaN());
    });
    S.run();
    Outcome Out;
    for (int64_t C = 0; C != Opts.NumCells; ++C)
      Out.Vm.push_back(S.vm(C));
    Out.Report = S.report();
    Out.Healthy = S.scanIsHealthy();
    Out.VictimFrozen = S.memberStatus(Victim) == MemberStatus::Quarantined;
    Out.Shards = S.scheduler().numShards();
    return Out;
  };
  Outcome Serial = RunWith(1);
  Outcome Sharded2 = RunWith(2);
  Outcome Sharded4 = RunWith(4);
  std::printf("%s", Sharded4.Report.str().c_str());
  bool Ok = check(Sharded4.Shards == 4, "4 shards in play");
  Ok &= check(Sharded4.Healthy, "population healthy after recovery");
  Ok &= check(Sharded4.VictimFrozen, "victim frozen under threading");
  Ok &= check(Sharded4.Report.CellsFrozen == 1, "exactly one cell frozen");
  Ok &= check(Sharded2.Vm == Serial.Vm,
              "2-shard run bit-identical to single-threaded");
  Ok &= check(Sharded4.Vm == Serial.Vm,
              "4-shard run bit-identical to single-threaded");
  return Ok;
}

/// One pathological parameter point inside a batched sweep: the
/// recovery ladder must quarantine exactly that member while every
/// healthy member's trajectory stays bit-identical to a sweep in which
/// the poison member ran a sane point — partial results, never a lost
/// sweep (docs/ENSEMBLE.md).
bool scenarioEnsembleQuarantine() {
  const models::ModelEntry *ME = models::findModel("HodgkinHuxley");
  if (!check(ME != nullptr, "suite model present"))
    return false;
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(ME->Name, ME->Source, Diags);
  if (!check(bool(Info), "frontend accepts the suite model"))
    return false;

  auto BuildAndRun = [&](const char *Sweep, std::optional<EnsembleRunner> &S,
                         std::optional<EnsembleModel> &EM) {
    Expected<EnsembleSpec> Spec =
        EnsembleSpec::fromSweep(Sweep, /*CellsPerMember=*/2);
    if (!check(bool(Spec), "sweep grammar parses"))
      return false;
    Expected<EnsembleModel> Built = buildEnsembleModel(
        *Info, std::move(*Spec), EngineConfig::limpetMLIR(4));
    if (!check(bool(Built), "ensemble model builds"))
      return false;
    EM.emplace(std::move(*Built));
    // NumCells is dictated by the spec; the Cells argument is ignored.
    S.emplace(*EM, guardedOpts(/*Cells=*/0, /*Steps=*/200));
    S->run();
    return true;
  };

  std::optional<EnsembleModel> EM, CleanEM;
  std::optional<EnsembleRunner> S, Clean;
  if (!BuildAndRun("gNa=120,1e9,90,110", S, EM))
    return false;
  std::printf("%s", S->report().str().c_str());
  bool Ok = check(S->stepsDone() == 200, "sweep completed");
  Ok &= check(S->scanIsHealthy(),
              "population healthy (quarantined slice excluded)");
  Ok &= check(S->numMembers() == 4, "four members packed");
  Ok &= check(S->membersQuarantined() == 1 && S->membersOk() == 3,
              "exactly the poison member quarantined");
  Ok &= check(S->memberStatus(1) == MemberStatus::Quarantined,
              "member 1 (gNa=1e9) is the quarantined one");
  std::vector<MemberReport> Reps = S->memberReports();
  Ok &= check(Reps.size() == 4 &&
                  Reps[1].Reason != QuarantineReason::None &&
                  Reps[1].QuarantineStep >= 0,
              "quarantine report carries a reason and a pinned step");

  // Member isolation: the same population with the poison point replaced
  // by a sane one. Members 0, 2, 3 never faulted in either run, so their
  // slices must be bit-identical — every rung put the members outside it
  // back as they were before it.
  if (!BuildAndRun("gNa=120,100,90,110", Clean, CleanEM))
    return false;
  Ok &= check(Clean->membersQuarantined() == 0, "control sweep all-healthy");
  for (int64_t M : {int64_t(0), int64_t(2), int64_t(3)})
    Ok &= check(S->memberChecksum(M) == Clean->memberChecksum(M),
                "healthy member bit-identical to the control sweep");
  return Ok;
}

//===----------------------------------------------------------------------===//
// Crash-recovery scenarios (durable checkpoint/resume, docs/ROBUSTNESS.md)
//===----------------------------------------------------------------------===//

/// A unique, empty scratch directory for one crash scenario.
std::string freshDir(const char *Tag) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     ("limpet-crash-" + std::string(Tag) + "-" +
                      std::to_string(::getpid())))
                        .string();
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

bool finalStatesIdentical(Simulator &A, Simulator &B) {
  return serializeCheckpoint(A.captureCheckpoint()) ==
         serializeCheckpoint(B.captureCheckpoint());
}

/// Deterministic kill-at-step under the guard rails: a shutdown request
/// lands mid-run, the simulator stops at the next window boundary with a
/// final checkpoint, and a fresh process (simulator) resuming from it
/// finishes bit-identically to a run that was never interrupted.
bool scenarioCkptResume() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  std::string Dir = freshDir("resume");
  SimOptions Opts = guardedOpts(/*Cells=*/32, /*Steps=*/200);
  Opts.Checkpoint.Dir = Dir;
  Opts.Checkpoint.EveryN = 24;
  clearShutdownRequest();
  Simulator S(*M, Opts);
  S.setFaultInjector([](Simulator &Sim) {
    if (Sim.stepsDone() == 100)
      requestShutdown();
  });
  S.run();
  clearShutdownRequest();
  bool Ok = check(S.interrupted(), "run stopped on the shutdown request");
  Ok &= check(S.stepsDone() < 200, "run stopped early");

  CheckpointStore Store(Dir);
  std::string Path;
  Expected<CheckpointData> C = Store.loadNewestValid(&Path);
  if (!check(bool(C), "final checkpoint loads"))
    return false;
  Ok &= check(C->StepCount == S.stepsDone(),
              "final checkpoint is at the interruption step");

  Simulator Resumed(*M, guardedOpts(/*Cells=*/32, /*Steps=*/200));
  if (!check(Resumed.resumeFrom(*C).isOk(), "resume accepted"))
    return false;
  Resumed.run();
  Simulator Ref(*M, guardedOpts(/*Cells=*/32, /*Steps=*/200));
  Ref.run();
  Ok &= check(Resumed.stepsDone() == 200, "resumed run reached the target");
  Ok &= check(finalStatesIdentical(Resumed, Ref),
              "resumed final state bit-identical to uninterrupted");
  std::filesystem::remove_all(Dir);
  return Ok;
}

/// The newest checkpoint truncated mid-file (a crash on a filesystem
/// without atomic rename): resume must fall back to the next newest and
/// still finish bit-identically.
bool scenarioCkptTruncate() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  std::string Dir = freshDir("truncate");
  SimOptions Opts = guardedOpts(/*Cells=*/16, /*Steps=*/100);
  Opts.Guard.Enabled = false; // unguarded: cadence lands exactly on EveryN
  Opts.Checkpoint.Dir = Dir;
  Opts.Checkpoint.EveryN = 24;
  Simulator S(*M, Opts);
  S.run();
  CheckpointStore Store(Dir);
  std::vector<std::string> Files = Store.list();
  if (!check(Files.size() == 3, "retention kept 3 rotated checkpoints"))
    return false;
  {
    std::string Bytes;
    (void)compiler::readFileBytes(Files.back(), Bytes);
    std::ofstream(Files.back(), std::ios::binary | std::ios::trunc)
        .write(Bytes.data(), std::streamsize(Bytes.size() / 3));
  }
  int Skipped = 0;
  std::string Path;
  Expected<CheckpointData> C = Store.loadNewestValid(&Path, &Skipped);
  if (!check(bool(C), "fallback checkpoint loads"))
    return false;
  bool Ok = check(Skipped == 1, "exactly the truncated file was skipped");
  Ok &= check(C->StepCount == 72, "fell back to the previous checkpoint");

  SimOptions Plain = guardedOpts(/*Cells=*/16, /*Steps=*/100);
  Plain.Guard.Enabled = false;
  Simulator Resumed(*M, Plain);
  if (!check(Resumed.resumeFrom(*C).isOk(), "resume accepted"))
    return false;
  Resumed.run();
  Simulator Ref(*M, Plain);
  Ref.run();
  Ok &= check(finalStatesIdentical(Resumed, Ref),
              "resumed final state bit-identical to uninterrupted");
  std::filesystem::remove_all(Dir);
  return Ok;
}

/// Checksum corruption in the newest two checkpoints: both must be
/// detected (never misparsed) and resume lands on the oldest valid one.
bool scenarioCkptCorrupt() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  std::string Dir = freshDir("corrupt");
  SimOptions Opts = guardedOpts(/*Cells=*/16, /*Steps=*/100);
  Opts.Guard.Enabled = false;
  Opts.Checkpoint.Dir = Dir;
  Opts.Checkpoint.EveryN = 24;
  Simulator S(*M, Opts);
  S.run();
  CheckpointStore Store(Dir);
  std::vector<std::string> Files = Store.list();
  if (!check(Files.size() == 3, "retention kept 3 rotated checkpoints"))
    return false;
  for (size_t I = 1; I != 3; ++I) {
    // Flip one payload byte: the FNV-1a checksum must catch it.
    std::string Bytes;
    (void)compiler::readFileBytes(Files[I], Bytes);
    Bytes[Bytes.size() / 2] = char(Bytes[Bytes.size() / 2] ^ 0xff);
    std::ofstream(Files[I], std::ios::binary | std::ios::trunc)
        .write(Bytes.data(), std::streamsize(Bytes.size()));
  }
  int Skipped = 0;
  Expected<CheckpointData> C = Store.loadNewestValid(nullptr, &Skipped);
  if (!check(bool(C), "oldest valid checkpoint loads"))
    return false;
  bool Ok = check(Skipped == 2, "both corrupted files were skipped");
  Ok &= check(C->StepCount == 48, "fell back to the oldest checkpoint");

  SimOptions Plain = guardedOpts(/*Cells=*/16, /*Steps=*/100);
  Plain.Guard.Enabled = false;
  Simulator Resumed(*M, Plain);
  if (!check(Resumed.resumeFrom(*C).isOk(), "resume accepted"))
    return false;
  Resumed.run();
  Simulator Ref(*M, Plain);
  Ref.run();
  Ok &= check(finalStatesIdentical(Resumed, Ref),
              "resumed final state bit-identical to uninterrupted");
  std::filesystem::remove_all(Dir);
  return Ok;
}

/// Stale-model protection: a checkpoint stamped with one source hash must
/// be refused by a driver whose model hashes differently, by a simulator
/// under a different engine configuration, and by a different model — all
/// as recoverable errors that leave the resuming simulator untouched.
bool scenarioCkptStale() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  SimOptions Opts = guardedOpts(/*Cells=*/8, /*Steps=*/40);
  Opts.Checkpoint.SourceHash = 0xAAAA;
  Simulator S(*M, Opts);
  S.run();
  CheckpointData C = S.captureCheckpoint();

  SimOptions OtherHash = guardedOpts(/*Cells=*/8, /*Steps=*/40);
  OtherHash.Checkpoint.SourceHash = 0xBBBB;
  Simulator Stale(*M, OtherHash);
  double ChecksumBefore = Stale.stateChecksum();
  Status St = Stale.resumeFrom(C);
  bool Ok = check(!St.isOk(), "source-hash mismatch refused");
  Ok &= check(St.message().find("source") != std::string::npos,
              "error names the source mismatch");
  Ok &= check(Stale.stateChecksum() == ChecksumBefore,
              "refused resume left the simulator untouched");

  auto MBase = compileSuiteModel("HodgkinHuxley", EngineConfig::baseline());
  if (!MBase)
    return false;
  Simulator WrongCfg(*MBase, guardedOpts(/*Cells=*/8, /*Steps=*/40));
  Ok &= check(!WrongCfg.resumeFrom(C).isOk(),
              "engine-configuration mismatch refused");

  auto MOther = compileSuiteModel("BeelerReuter", EngineConfig::limpetMLIR(4));
  if (!MOther)
    return false;
  Simulator WrongModel(*MOther, guardedOpts(/*Cells=*/8, /*Steps=*/40));
  Ok &= check(!WrongModel.resumeFrom(C).isOk(), "model mismatch refused");

  Simulator SameHash(*M, Opts);
  Ok &= check(SameHash.resumeFrom(C).isOk(), "matching checkpoint accepted");
  return Ok;
}

/// The disk filling up under the periodic checkpoint writes (the
/// write-enospc fail point runs the production writeFileAtomic error
/// path): durability degrades — the failure is counted, the partial temp
/// file is removed — but the simulation itself keeps stepping, the next
/// write retries at the next boundary, and the newest surviving
/// checkpoint still resumes bit-identically. A persistently full disk
/// (every write failing) still never touches the physiology.
bool scenarioCkptEnospc() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  std::string Dir = freshDir("ckpt-enospc");
  SimOptions Opts = guardedOpts(/*Cells=*/16, /*Steps=*/200);
  Opts.Guard.Enabled = false; // unguarded: cadence lands exactly on EveryN
  Opts.Checkpoint.Dir = Dir;
  Opts.Checkpoint.EveryN = 24;

  // Probe 1 is the store's writability probe, probe 2 the step-24 write;
  // arming the 3rd fails exactly the step-48 checkpoint.
  uint64_t ErrsBefore =
      telemetry::Registry::instance().value("sim.checkpoint.errors");
  support::armFailPoint("write-enospc", /*Nth=*/3);
  Simulator S(*M, Opts);
  S.run();
  uint64_t Fires = support::failPointFireCount();
  support::disarmFailPoints();

  bool Ok = check(S.stepsDone() == 200, "run completed despite the full disk");
  Ok &= check(!S.interrupted(), "a failed checkpoint never stops the run");
  Ok &= check(populationFinite(S), "population untouched");
  Ok &= check(Fires == 1, "the injection ran the production write path");
  if (telemetry::kEnabled)
    Ok &= check(telemetry::Registry::instance().value(
                    "sim.checkpoint.errors") == ErrsBefore + 1,
                "the failed write was counted");
  bool TmpLeft = false;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    TmpLeft |= E.path().filename().string().find(".tmp") != std::string::npos;
  Ok &= check(!TmpLeft, "no partial temp file left behind");

  // The failed write does not advance the durable cursor, so the step-49
  // boundary retries immediately; the rotation then walks 73..193.
  CheckpointStore Store(Dir);
  Expected<CheckpointData> C = Store.loadNewestValid();
  if (!check(bool(C), "later checkpoint writes recovered"))
    return false;
  Ok &= check(C->StepCount == 193,
              "cursor retried at the first boundary after the failure");
  SimOptions Plain = guardedOpts(/*Cells=*/16, /*Steps=*/200);
  Plain.Guard.Enabled = false;
  Simulator Resumed(*M, Plain);
  if (!check(Resumed.resumeFrom(*C).isOk(), "resume accepted"))
    return false;
  Resumed.run();
  Simulator Ref(*M, Plain);
  Ref.run();
  Ok &= check(finalStatesIdentical(Resumed, Ref),
              "resumed final state bit-identical to uninterrupted");

  // A disk that never frees up: every write fails (the directory probe
  // included), nothing durable lands — and the run still completes with
  // every failure counted.
  std::string Dir2 = freshDir("ckpt-enospc-persist");
  SimOptions Opts2 = guardedOpts(/*Cells=*/8, /*Steps=*/100);
  Opts2.Guard.Enabled = false;
  Opts2.Checkpoint.Dir = Dir2;
  Opts2.Checkpoint.EveryN = 24;
  ErrsBefore = telemetry::Registry::instance().value("sim.checkpoint.errors");
  support::armFailPoint("write-enospc", /*Nth=*/1, /*Persistent=*/true);
  Simulator S2(*M, Opts2);
  S2.run();
  Fires = support::failPointFireCount();
  support::disarmFailPoints();
  Ok &= check(S2.stepsDone() == 100 && !S2.interrupted(),
              "persistently full disk never stops the run");
  Ok &= check(Fires >= 2, "every write attempt went through the fail point");
  if (telemetry::kEnabled)
    Ok &= check(telemetry::Registry::instance().value(
                    "sim.checkpoint.errors") == ErrsBefore + Fires,
                "every failed write was counted");
  Ok &= check(CheckpointStore(Dir2).list().empty(),
              "nothing durable landed on the full disk");

  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(Dir2);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Tissue scenarios (reaction-diffusion driver, docs/TISSUE.md)
//===----------------------------------------------------------------------===//

/// A small guarded tissue protocol; dt is CFL-safe for the default
/// sigma/dx (limit dx^2/(2*sigma*dims) = 0.3125 ms in 1D).
TissueOptions tissueOpts(int64_t NX, int64_t NY, int64_t Steps) {
  TissueOptions T;
  T.Grid = {NX, NY, 0.025};
  T.Sigma = 0.001;
  T.Sim = guardedOpts(NX * NY, Steps);
  T.Sim.Dt = 0.005;
  return T;
}

/// A NaN poked into Vm mid-tissue-run: the very next diffusion half-step
/// smears it across the stencil neighborhood, so the guard sees a
/// multi-cell fault — and rollback + dt-halving (which re-runs the full
/// operator-split pipeline, diffusion included) must still heal the
/// sheet with nothing frozen or degraded.
bool scenarioTissueNanStencil() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  int VmIdx = M->info().externalIndex("Vm");
  if (!check(VmIdx >= 0, "model has a Vm external"))
    return false;
  TissueSimulator S(*M, tissueOpts(/*NX=*/64, /*NY=*/1, /*Steps=*/200));
  if (!check(S.preflight().isOk(), "preflight passes"))
    return false;
  bool Fired = false;
  S.setFaultInjector([&](Simulator &Sim) {
    if (!Fired && Sim.stepsDone() == 40) {
      Fired = true;
      Sim.pokeExternal(size_t(VmIdx), /*Cell=*/20, quietNaN());
    }
  });
  S.run();
  const RunReport &R = S.report();
  std::printf("%s", R.str().c_str());
  bool Ok = check(Fired, "injector fired");
  Ok &= check(S.scanIsHealthy(), "tissue healthy after recovery");
  Ok &= check(R.FaultEvents >= 1, "fault detected");
  Ok &= check(R.FaultyCells >= 1,
              "stencil-smeared fault observed in the scan");
  Ok &= check(R.CellsFrozen == 0 && R.CellsDegraded == 0,
              "one-shot NaN healed without freezing or degrading");
  Ok &= check(S.stepsDone() == 200, "run completed");
  Ok &= check(populationFinite(S), "sheet finite at the end");
  return Ok;
}

/// A NaN re-injected into one node after every step from step 41 on:
/// diffusion couples every node, so the sheet is one member. It walks
/// dt-retry and scalar-exact as a whole, and since every re-run is
/// poisoned again it ends quarantined as a whole, pinned at the last
/// healthy checkpoint, instead of clamping one node inside a live field.
/// The run completes healthy and its report says what was sacrificed; the
/// trace of the poisoned node holds the pinned value, not the NaN.
bool scenarioTissuePersistent() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  int VmIdx = M->info().externalIndex("Vm");
  if (!check(VmIdx >= 0, "model has a Vm external"))
    return false;
  TissueOptions TO = tissueOpts(/*NX=*/32, /*NY=*/2, /*Steps=*/120);
  TO.Sim.RecordTrace = true;
  TO.Sim.TraceCell = 21;
  TissueSimulator S(*M, TO);
  if (!check(S.preflight().isOk(), "preflight passes"))
    return false;
  S.setFaultInjector([&](Simulator &Sim) {
    if (Sim.stepsDone() > 40)
      Sim.pokeExternal(size_t(VmIdx), /*Cell=*/21, quietNaN());
  });
  S.run();
  const RunReport &R = S.report();
  std::printf("%s", R.str().c_str());
  int64_t Nodes = TO.Grid.numNodes();
  bool Ok = check(S.stepsDone() == 120, "run completed");
  Ok &= check(S.scanIsHealthy(), "sheet healthy at the end");
  Ok &= check(populationFinite(S), "sheet finite at the end");
  const std::vector<double> &Tr = S.trace();
  Ok &= check(Tr.size() == 120 &&
                  std::all_of(Tr.begin(), Tr.end(),
                              [](double V) { return std::isfinite(V); }),
              "trace of the poisoned node finite");
  Ok &= check(S.numMembers() == 1 && S.cellsPerMember() == Nodes,
              "the sheet is one member");
  Ok &= check(R.FaultEvents == 1, "one fault event");
  Ok &= check(R.Retries == kMaxDtRetries, "every dt rung re-ran the sheet");
  Ok &= check(S.memberStatus(0) == MemberStatus::Quarantined &&
                  S.membersQuarantined() == 1,
              "the sheet is quarantined");
  CheckpointData C = S.captureCheckpoint();
  const MemberRecord &Rec = C.Members[0];
  Ok &= check(Rec.Reason == QuarantineReason::ScalarFault &&
                  Rec.DtRetries == kMaxDtRetries,
              "quarantined after dt-retry and scalar-exact");
  Ok &= check(Rec.QuarantineStep == 40, "pinned at the last healthy step");
  Ok &= check(R.CellsFrozen == Nodes && R.CellsDegraded == 0,
              "report counts every node frozen, none degraded");
  return Ok;
}

/// Shutdown mid-tissue-run: the final durable checkpoint carries the
/// tissue section (grid, sigma, method, stimulus), a matching tissue
/// simulator resumes bit-identically to an uninterrupted run, and every
/// mismatched resume target — wrong sigma, wrong grid, or a plain
/// (non-tissue) simulator — is refused recoverably.
bool scenarioTissueCkptResume() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  std::string Dir = freshDir("tissue-resume");
  TissueOptions TO = tissueOpts(/*NX=*/32, /*NY=*/4, /*Steps=*/200);
  TO.Sim.Checkpoint.Dir = Dir;
  TO.Sim.Checkpoint.EveryN = 24;
  clearShutdownRequest();
  TissueSimulator S(*M, TO);
  S.setFaultInjector([](Simulator &Sim) {
    if (Sim.stepsDone() == 100)
      requestShutdown();
  });
  S.run();
  clearShutdownRequest();
  bool Ok = check(S.interrupted(), "run stopped on the shutdown request");
  Ok &= check(S.stepsDone() < 200, "run stopped early");

  CheckpointStore Store(Dir);
  Expected<CheckpointData> C = Store.loadNewestValid();
  if (!check(bool(C), "final checkpoint loads"))
    return false;
  Ok &= check(C->TissueNX == 32 && C->TissueNY == 4,
              "checkpoint carries the tissue geometry");
  Ok &= check(C->TissueSigma == TO.Sigma, "checkpoint carries sigma");
  Ok &= check(!C->TissueStim.empty(), "checkpoint carries the protocol");

  TissueSimulator Resumed(*M, tissueOpts(32, 4, 200));
  if (!check(Resumed.resumeFrom(*C).isOk(), "matching resume accepted"))
    return false;
  Resumed.run();
  TissueSimulator Ref(*M, tissueOpts(32, 4, 200));
  Ref.run();
  Ok &= check(Resumed.stepsDone() == 200, "resumed run reached the target");
  Ok &= check(finalStatesIdentical(Resumed, Ref),
              "resumed final state bit-identical to uninterrupted");

  TissueOptions WrongSigma = tissueOpts(32, 4, 200);
  WrongSigma.Sigma = 0.002;
  TissueSimulator WS(*M, WrongSigma);
  Status St = WS.resumeFrom(*C);
  Ok &= check(!St.isOk(), "sigma mismatch refused");
  Ok &= check(St.message().find("diffusion") != std::string::npos,
              "error names the diffusion mismatch");

  TissueOptions WrongGrid = tissueOpts(/*NX=*/128, /*NY=*/1, 200);
  TissueSimulator WG(*M, WrongGrid);
  Ok &= check(!WG.resumeFrom(*C).isOk(), "geometry mismatch refused");

  SimOptions Plain = guardedOpts(/*Cells=*/128, /*Steps=*/200);
  Plain.Dt = 0.005;
  Simulator P(*M, Plain);
  St = P.resumeFrom(*C);
  Ok &= check(!St.isOk(), "plain simulator refuses a tissue checkpoint");
  Ok &= check(St.message().find("tissue") != std::string::npos,
              "error says the checkpoint is a tissue run");
  std::filesystem::remove_all(Dir);
  return Ok;
}

/// Cooperative cancel landing while the stage pipeline is hot: the run
/// stops at the next step boundary (never between the stages of one
/// Strang step), writes a resumable final checkpoint, and resuming
/// finishes bit-identically to a never-cancelled run.
bool scenarioTissueCancelMidStage() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  std::string Dir = freshDir("tissue-cancel");
  TissueOptions TO = tissueOpts(/*NX=*/64, /*NY=*/1, /*Steps=*/400);
  TO.Sim.NumThreads = 2; // stages sharded when the cancel lands
  TO.Sim.Checkpoint.Dir = Dir;
  CancelToken Token;
  TO.Sim.Cancel = &Token;
  TissueSimulator S(*M, TO);
  S.setFaultInjector([&](Simulator &Sim) {
    if (Sim.stepsDone() == 150)
      Token.cancel();
  });
  S.run();
  bool Ok = check(S.interrupted(), "run stopped on the cancel");
  Ok &= check(S.stopReason() == StopReason::Cancelled,
              "stop reason is cancelled");
  Ok &= check(S.stepsDone() >= 150 && S.stepsDone() < 400,
              "cancel honored at a step boundary mid-run");

  CheckpointStore Store(Dir);
  Expected<CheckpointData> C = Store.loadNewestValid();
  if (!check(bool(C), "final checkpoint written on cancel"))
    return false;
  Ok &= check(C->StepCount == S.stepsDone(),
              "checkpoint captures the cancelled step");
  Ok &= check(C->TissueNX == 64, "checkpoint carries the tissue section");

  TissueSimulator Resumed(*M, tissueOpts(64, 1, 400));
  if (!check(Resumed.resumeFrom(*C).isOk(), "resume accepted"))
    return false;
  Resumed.run();
  Ok &= check(!Resumed.interrupted(), "resumed run finishes");
  TissueSimulator Ref(*M, tissueOpts(64, 1, 400));
  Ref.run();
  Ok &= check(finalStatesIdentical(Resumed, Ref),
              "resumed final state bit-identical to uncancelled run");
  std::filesystem::remove_all(Dir);
  return Ok;
}

//===----------------------------------------------------------------------===//
// Width-autotuning scenarios (persisted tuning records, docs/COMPILER.md)
//===----------------------------------------------------------------------===//

/// Shared setup for the tuning scenarios: a scratch disk cache tier and a
/// tiny tuner protocol so a full tune finishes in milliseconds. Restores
/// the previous disk directory on destruction.
class TuneScratch {
public:
  explicit TuneScratch(const char *Tag)
      : Dir(freshDir(Tag)), PrevDir(compiler::CompileCache::global().diskDir()) {
    compiler::CompileCache::global().setDiskDir(Dir);
    unsetenv("LIMPET_TUNE_FORCE");
    setenv("LIMPET_TUNE_CELLS", "32", 1);
    setenv("LIMPET_TUNE_WINDOW_MS", "2", 1);
    setenv("LIMPET_TUNE_REPEATS", "1", 1);
  }
  ~TuneScratch() {
    compiler::CompileCache::global().setDiskDir(PrevDir);
    std::filesystem::remove_all(Dir);
  }

  std::string Dir;

private:
  std::string PrevDir;
};

compiler::AutoSelection selectHH(bool RunTuner) {
  const models::ModelEntry *M = models::findModel("HodgkinHuxley");
  return compiler::selectAutoConfig(M->Name, M->Source,
                                    EngineConfig::autoTuned(),
                                    EngineTier::VM, RunTuner);
}

uint64_t tuneCounter(const char *Path) {
  return telemetry::Registry::instance().value(Path);
}

/// A corrupted (bit-flipped, then truncated) tuning record: every read
/// falls back recoverably to the heuristic, the corruption is counted,
/// and a clean re-tune overwrites the bad record in place.
bool scenarioTuneCorrupt() {
  if (!models::findModel("HodgkinHuxley"))
    return false;
  TuneScratch Scratch("tune-corrupt");

  compiler::AutoSelection Tuned = selectHH(/*RunTuner=*/true);
  bool Ok = check(bool(Tuned), "tuning produced a selection");
  Ok &= check(Tuned.Source == compiler::TuneSource::Tuned,
              "cold selection came from the tuner");
  std::string Path = compiler::tuneRecordPath(Tuned.TuneKey);
  if (!check(std::filesystem::exists(Path), "tuning record persisted"))
    return false;

  compiler::AutoSelection Warm = selectHH(/*RunTuner=*/false);
  Ok &= check(Warm.Source == compiler::TuneSource::Record,
              "warm selection replays the record");
  Ok &= check(Warm.Point == Tuned.Point, "warm selection picks the winner");

  // Flip one payload byte: the trailing FNV-1a checksum must catch it.
  std::string Bytes;
  (void)compiler::readFileBytes(Path, Bytes);
  std::string Flipped = Bytes;
  Flipped[Flipped.size() / 2] = char(Flipped[Flipped.size() / 2] ^ 0xff);
  std::ofstream(Path, std::ios::binary | std::ios::trunc)
      .write(Flipped.data(), std::streamsize(Flipped.size()));
  uint64_t CorruptBefore = tuneCounter("tune.record.corrupt");
  compiler::AutoSelection Fallback = selectHH(/*RunTuner=*/false);
  Ok &= check(bool(Fallback), "corrupt record read is recoverable");
  Ok &= check(Fallback.Source == compiler::TuneSource::Heuristic,
              "corrupt record falls back to the heuristic");
  if (telemetry::kEnabled)
    Ok &= check(tuneCounter("tune.record.corrupt") == CorruptBefore + 1,
                "corruption was counted");

  // Truncation mid-file (a crash without atomic rename) behaves the same.
  std::ofstream(Path, std::ios::binary | std::ios::trunc)
      .write(Bytes.data(), std::streamsize(Bytes.size() / 3));
  compiler::AutoSelection Truncated = selectHH(/*RunTuner=*/false);
  Ok &= check(Truncated.Source == compiler::TuneSource::Heuristic,
              "truncated record falls back to the heuristic");

  // A clean re-tune overwrites the bad record and warm reads recover.
  compiler::AutoSelection Retuned = selectHH(/*RunTuner=*/true);
  Ok &= check(Retuned.Source == compiler::TuneSource::Tuned,
              "re-tune replaces the corrupt record");
  compiler::AutoSelection Healed = selectHH(/*RunTuner=*/false);
  Ok &= check(Healed.Source == compiler::TuneSource::Record,
              "record reads cleanly after the re-tune");
  Ok &= check(Healed.Point == Retuned.Point,
              "healed selection picks the re-tuned winner");
  return Ok;
}

/// A structurally valid record from the wrong machine class (mismatched
/// registry fingerprint) or the wrong key: stale by construction, counted,
/// ignored, and replaced by the next tune.
bool scenarioTuneStale() {
  if (!models::findModel("HodgkinHuxley"))
    return false;
  TuneScratch Scratch("tune-stale");

  compiler::AutoSelection Tuned = selectHH(/*RunTuner=*/true);
  if (!check(bool(Tuned) && Tuned.Source == compiler::TuneSource::Tuned,
             "cold tune succeeded"))
    return false;
  std::string Path = compiler::tuneRecordPath(Tuned.TuneKey);
  std::optional<compiler::TuningRecord> Rec =
      compiler::readTuningRecord(Tuned.TuneKey);
  if (!check(Rec.has_value(), "persisted record reads back"))
    return false;

  // Same key, different machine class: checksum-valid but stale.
  compiler::TuningRecord Foreign = *Rec;
  Foreign.RegistryFingerprint ^= 0x1;
  (void)compiler::writeTuningRecord(Foreign);
  uint64_t StaleBefore = tuneCounter("tune.record.stale");
  compiler::AutoSelection Fallback = selectHH(/*RunTuner=*/false);
  bool Ok = check(Fallback.Source == compiler::TuneSource::Heuristic,
                  "fingerprint mismatch falls back to the heuristic");
  if (telemetry::kEnabled)
    Ok &= check(tuneCounter("tune.record.stale") == StaleBefore + 1,
                "staleness was counted");

  // A record whose embedded key disagrees with its filename (e.g. a tuner
  // version bump re-keyed the store) is equally stale.
  compiler::TuningRecord WrongKey = *Rec;
  WrongKey.TuneKey ^= 0xff;
  std::string WrongBytes = WrongKey.serialize();
  std::ofstream(Path, std::ios::binary | std::ios::trunc)
      .write(WrongBytes.data(), std::streamsize(WrongBytes.size()));
  compiler::AutoSelection Fallback2 = selectHH(/*RunTuner=*/false);
  Ok &= check(Fallback2.Source == compiler::TuneSource::Heuristic,
              "key mismatch falls back to the heuristic");

  // Re-tuning on this machine replaces the stale record.
  compiler::AutoSelection Retuned = selectHH(/*RunTuner=*/true);
  Ok &= check(Retuned.Source == compiler::TuneSource::Tuned,
              "re-tune replaces the stale record");
  compiler::AutoSelection Healed = selectHH(/*RunTuner=*/false);
  Ok &= check(Healed.Source == compiler::TuneSource::Record,
              "record reads cleanly after the re-tune");
  return Ok;
}

/// No faults at all: the health scan at default cadence must cost less
/// than 5% of step time (min-of-3 to shed scheduler noise).
bool scenarioOverhead() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(8));
  if (!M)
    return false;
  auto TimeRun = [&](bool Guard) {
    SimOptions Opts = guardedOpts(/*Cells=*/512, /*Steps=*/2000);
    Opts.Guard.Enabled = Guard;
    Simulator S(*M, Opts);
    auto T0 = std::chrono::steady_clock::now();
    S.run();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         T0)
        .count();
  };
  // Guard-off and guard-on runs alternate, so a host-load swing lands on
  // both sides instead of reading as guard cost; each side keeps its best.
  double Off = 1e30, On = 1e30;
  for (int Rep = 0; Rep != 3; ++Rep) {
    Off = std::min(Off, TimeRun(false));
    On = std::min(On, TimeRun(true));
  }
  double Pct = 100.0 * (On - Off) / Off;
  // Best-of-3 timing is still jittery on loaded/shared machines, so the
  // acceptance threshold can be relaxed via the environment (CI runs the
  // scenario serially with LIMPET_OVERHEAD_PCT=15).
  double Limit = 5.0;
  if (const char *V = std::getenv("LIMPET_OVERHEAD_PCT"))
    if (double L = std::atof(V); L > 0)
      Limit = L;
  std::printf("  guard off: %.3f ms   guard on: %.3f ms   overhead: %+.2f%% "
              "(limit %.0f%%)\n",
              Off * 1e3, On * 1e3, Pct, Limit);
  return check(Pct < Limit, "guard overhead below limit");
}

//===----------------------------------------------------------------------===//
// Daemon scenarios (admission control, deadlines, journal durability —
// docs/DAEMON.md)
//===----------------------------------------------------------------------===//

/// A saturated JobQueue: equal-priority submits bounce with explicit
/// reasons (queue-full / tenant-cap), a strictly-higher-priority submit
/// sheds the lowest-priority (youngest among ties) queued job, and the
/// fair-share pop order honors per-tenant running caps.
bool scenarioDaemonQueueFull() {
  daemon::JobQueue::Limits Lim;
  Lim.MaxQueued = 3;
  Lim.PerTenantRunning = 1;
  Lim.PerTenantInFlight = 3;
  daemon::JobQueue Q(Lim);
  auto mk = [](uint64_t Id, const char *Tenant, int Priority) {
    auto J = std::make_shared<daemon::Job>();
    J->Spec.Id = Id;
    J->Spec.Tenant = Tenant;
    J->Spec.Priority = Priority;
    J->Spec.Model = "HodgkinHuxley";
    return J;
  };

  bool Ok = true;
  Ok &= check(Q.submit(mk(1, "alpha", 0)).Accepted, "job 1 admitted");
  Ok &= check(Q.submit(mk(2, "alpha", 0)).Accepted, "job 2 admitted");
  Ok &= check(Q.submit(mk(3, "alpha", 0)).Accepted, "job 3 admitted");

  // alpha is now at its in-flight cap — that rejection fires before the
  // queue-depth check so the reason names the tenant's own backlog.
  daemon::JobQueue::Admission A = Q.submit(mk(4, "alpha", 9));
  Ok &= check(!A.Accepted && A.Reason == "tenant-cap",
              "over-cap tenant rejected with 'tenant-cap'");

  // The queue is full; an equal-priority submit from another tenant must
  // wait its turn, not evict anyone.
  A = Q.submit(mk(5, "beta", 0));
  Ok &= check(!A.Accepted && A.Reason == "queue-full",
              "equal-priority submit rejected with 'queue-full'");
  Ok &= check(Q.shedCount() == 0, "no job shed by a rejected submit");

  // A strictly-higher-priority submit sheds the youngest of the
  // lowest-priority queued jobs: job 3.
  A = Q.submit(mk(6, "beta", 2));
  Ok &= check(A.Accepted, "higher-priority submit admitted into full queue");
  Ok &= check(A.Shed && A.Shed->Spec.Id == 3,
              "victim is the youngest lowest-priority queued job");
  Ok &= check(A.Shed && A.Shed->State.load() == daemon::JobState::Shed,
              "victim marked terminal (shed)");
  Ok &= check(Q.shedCount() == 1 && Q.queuedCount() == 3,
              "queue depth unchanged after the swap");

  // Fair-share dispatch: no tenant is running, so the highest-priority
  // queued job (6) goes first; then beta is at PerTenantRunning and
  // alpha's FIFO head (1) follows.
  daemon::JobPtr P = Q.pop();
  Ok &= check(P && P->Spec.Id == 6, "pop prefers the high-priority job");
  Ok &= check(P && P->State.load() == daemon::JobState::Running,
              "popped job marked running");
  P = Q.pop();
  Ok &= check(P && P->Spec.Id == 1,
              "second pop falls to the other tenant's FIFO head");

  // Both tenants at their running cap: queued job 2 (alpha) only becomes
  // runnable once alpha's slot frees.
  Q.finished(Q.find(1));
  P = Q.pop();
  Ok &= check(P && P->Spec.Id == 2, "freed tenant slot unblocks queued work");

  Q.shutdown();
  Ok &= check(Q.pop() == nullptr, "pop drains to nullptr after shutdown");
  return Ok;
}

/// A per-job wall-clock deadline expiring mid-run: the simulator stops
/// at a step boundary with StopReason::DeadlineExpired and a final
/// durable checkpoint, and resuming from it finishes bit-identically to
/// a run that never had a deadline.
bool scenarioDaemonDeadline() {
  auto M = compileSuiteModel("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  if (!M)
    return false;
  std::string Dir = freshDir("deadline");
  constexpr int64_t Steps = 500000;
  SimOptions Opts = guardedOpts(/*Cells=*/32, Steps);
  Opts.Checkpoint.Dir = Dir;
  Opts.Checkpoint.EveryN = 4096;

  CancelToken Token;
  Opts.Cancel = &Token;
  Simulator S(*M, Opts);
  // Far too tight for 500k steps on any machine; a slow box just stops
  // earlier. Armed after compilation so only run time is on the clock.
  Token.setDeadlineAfter(0.002);
  S.run();
  bool Ok = check(S.interrupted(), "run stopped on the deadline");
  Ok &= check(S.stopReason() == StopReason::DeadlineExpired,
              "stop reason is deadline-expired");
  Ok &= check(S.stepsDone() > 0 && S.stepsDone() < Steps,
              "deadline landed mid-run");

  CheckpointStore Store(Dir);
  std::string Path;
  Expected<CheckpointData> C = Store.loadNewestValid(&Path);
  if (!check(bool(C), "final checkpoint written at expiry"))
    return false;
  Ok &= check(C->StepCount == S.stepsDone(),
              "checkpoint captures the interrupted step");

  SimOptions Plain = guardedOpts(/*Cells=*/32, Steps);
  Simulator Resumed(*M, Plain);
  if (!check(Resumed.resumeFrom(*C).isOk(), "resume accepted"))
    return false;
  Resumed.run();
  Ok &= check(!Resumed.interrupted(), "resumed run finishes (no deadline)");
  Simulator Ref(*M, Plain);
  Ref.run();
  Ok &= check(finalStatesIdentical(Resumed, Ref),
              "resumed final state bit-identical to undeadlined run");

  // An already-expired deadline still stops cooperatively at the first
  // boundary — never a hang, never a skipped final checkpoint.
  std::string Dir2 = freshDir("deadline-zero");
  SimOptions Opts2 = guardedOpts(/*Cells=*/8, /*Steps=*/100);
  Opts2.Checkpoint.Dir = Dir2;
  CancelToken Token2;
  Token2.setDeadlineAfter(0.0);
  Opts2.Cancel = &Token2;
  Simulator S2(*M, Opts2);
  S2.run();
  Ok &= check(S2.interrupted() &&
                  S2.stopReason() == StopReason::DeadlineExpired,
              "pre-expired deadline stops at the first boundary");
  Ok &= check(bool(CheckpointStore(Dir2).loadNewestValid()),
              "immediate expiry still leaves a resumable checkpoint");

  std::filesystem::remove_all(Dir);
  std::filesystem::remove_all(Dir2);
  return Ok;
}

/// The job journal under a crash mid-append: a truncated tail loses at
/// most the record being written, a corrupt record ends the scan at the
/// last good prefix, and compaction rewrites exactly the live set.
bool scenarioDaemonJournalTruncate() {
  std::string Dir = freshDir("journal");
  std::string Path = Dir + "/journal.lj";

  {
    daemon::Journal J(Path);
    if (!check(J.open().isOk(), "journal opens"))
      return false;
    (void)J.append(daemon::Journal::Kind::Accepted, 1, "{\"id\":1}");
    (void)J.append(daemon::Journal::Kind::Started, 1);
    (void)J.append(daemon::Journal::Kind::Accepted, 2, "{\"id\":2}");
    (void)J.append(daemon::Journal::Kind::Finished, 1);
    (void)J.append(daemon::Journal::Kind::Accepted, 3, "{\"id\":3}");
  }

  bool Truncated = false;
  Expected<std::vector<daemon::Journal::Record>> Recs =
      daemon::Journal::readAll(Path, &Truncated);
  if (!check(bool(Recs), "intact journal reads"))
    return false;
  bool Ok = check(Recs->size() == 5 && !Truncated,
                  "all five records intact, no truncation");
  std::vector<daemon::Journal::Record> Live =
      daemon::Journal::unfinished(*Recs);
  Ok &= check(Live.size() == 2 && Live[0].JobId == 2 && Live[1].JobId == 3,
              "unfinished = accepted jobs with no terminal record");

  // SIGKILL mid-append: chop the tail mid-record. Only the record being
  // written is lost.
  std::string Bytes;
  (void)compiler::readFileBytes(Path, Bytes);
  std::ofstream(Path, std::ios::binary | std::ios::trunc)
      .write(Bytes.data(), std::streamsize(Bytes.size() - 7));
  Recs = daemon::Journal::readAll(Path, &Truncated);
  if (!check(bool(Recs), "truncated journal still reads"))
    return false;
  Ok &= check(Recs->size() == 4 && Truncated,
              "truncation drops exactly the torn tail record");
  Live = daemon::Journal::unfinished(*Recs);
  Ok &= check(Live.size() == 1 && Live[0].JobId == 2,
              "replay set shrinks with the lost admission");

  // Compaction rewrites just the live records, atomically.
  if (!check(daemon::Journal::compact(Path, Live).isOk(), "compaction runs"))
    return false;
  Recs = daemon::Journal::readAll(Path, &Truncated);
  if (!check(bool(Recs), "compacted journal reads"))
    return false;
  Ok &= check(Recs->size() == 1 && !Truncated &&
                  (*Recs)[0].K == daemon::Journal::Kind::Accepted &&
                  (*Recs)[0].JobId == 2 && (*Recs)[0].Payload == "{\"id\":2}",
              "compacted journal holds exactly the live record");

  // A flipped byte inside the first record's payload: the checksum
  // rejects it and the scan ends before it — never a misparsed record.
  (void)compiler::readFileBytes(Path, Bytes);
  Bytes[Bytes.size() - 3] ^= 0x40;
  std::ofstream(Path, std::ios::binary | std::ios::trunc)
      .write(Bytes.data(), std::streamsize(Bytes.size()));
  Recs = daemon::Journal::readAll(Path, &Truncated);
  if (!check(bool(Recs), "corrupt journal still reads as a prefix"))
    return false;
  Ok &= check(Recs->empty() && Truncated,
              "corrupt record excluded from the recovered prefix");

  // A missing journal is a cold start, not an error.
  Recs = daemon::Journal::readAll(Dir + "/absent.lj", &Truncated);
  Ok &= check(bool(Recs) && Recs->empty() && !Truncated,
              "missing journal reads as empty");

  std::filesystem::remove_all(Dir);
  return Ok;
}

/// The disk filling up under the job journal: an append fails
/// recoverably with no partial frame on disk (the durable prefix is
/// untouched and still replays), the same record lands on retry once
/// space frees, and a compaction hitting ENOSPC leaves the original
/// journal intact with no temp file behind.
bool scenarioJournalEnospc() {
  std::string Dir = freshDir("journal-enospc");
  std::string Path = Dir + "/journal.lj";
  daemon::Journal J(Path);
  if (!check(J.open().isOk(), "journal opens"))
    return false;
  bool Ok = check(
      J.append(daemon::Journal::Kind::Accepted, 1, "{\"id\":1}").isOk(),
      "first append lands");
  Ok &= check(J.append(daemon::Journal::Kind::Started, 1).isOk(),
              "second append lands");

  support::armFailPoint("write-enospc", /*Nth=*/1);
  Status St = J.append(daemon::Journal::Kind::Accepted, 2, "{\"id\":2}");
  uint64_t Fires = support::failPointFireCount();
  support::disarmFailPoints();
  Ok &= check(!St.isOk(), "full-disk append surfaces a recoverable error");
  Ok &= check(St.message().find("space") != std::string::npos,
              "error says the disk is full");
  Ok &= check(Fires == 1, "the injection ran the production append path");

  bool Truncated = false;
  Expected<std::vector<daemon::Journal::Record>> Recs =
      daemon::Journal::readAll(Path, &Truncated);
  if (!check(bool(Recs), "journal still reads"))
    return false;
  Ok &= check(Recs->size() == 2 && !Truncated,
              "failed append left the durable prefix untouched");

  // Space freed: the same record lands on retry, nothing lost between.
  Ok &= check(
      J.append(daemon::Journal::Kind::Accepted, 2, "{\"id\":2}").isOk(),
      "append succeeds once the disk frees up");
  Recs = daemon::Journal::readAll(Path, &Truncated);
  if (!check(bool(Recs) && Recs->size() == 3 && !Truncated,
             "retried record landed"))
    return false;

  // Compaction is a whole-file rewrite through writeFileAtomic: ENOSPC
  // there must never replace the journal with a partial rewrite.
  std::vector<daemon::Journal::Record> Live =
      daemon::Journal::unfinished(*Recs);
  Ok &= check(Live.size() == 2, "both admitted jobs are live");
  support::armFailPoint("write-enospc", /*Nth=*/1);
  Status CSt = daemon::Journal::compact(Path, Live);
  support::disarmFailPoints();
  Ok &= check(!CSt.isOk(), "full-disk compaction surfaces a recoverable error");
  Recs = daemon::Journal::readAll(Path, &Truncated);
  Ok &= check(bool(Recs) && Recs->size() == 3 && !Truncated,
              "failed compaction left the original journal intact");
  bool TmpLeft = false;
  for (const auto &E : std::filesystem::directory_iterator(Dir))
    TmpLeft |= E.path().filename().string().find(".tmp") != std::string::npos;
  Ok &= check(!TmpLeft, "no partial temp file left behind");

  // With space back, the same compaction lands.
  Ok &= check(daemon::Journal::compact(Path, Live).isOk(),
              "compaction succeeds once the disk frees up");
  Recs = daemon::Journal::readAll(Path, &Truncated);
  Ok &= check(bool(Recs) && Recs->size() == 2 && !Truncated,
              "compacted journal holds exactly the live set");

  std::filesystem::remove_all(Dir);
  return Ok;
}

struct Scenario {
  const char *Name;
  const char *What;
  bool (*Run)();
};

const Scenario Scenarios[] = {
    {"nan-state", "one-shot NaN in a state variable -> healed by sub-stepping",
     scenarioNanState},
    {"inf-vm", "one-shot +Inf in Vm -> healed by sub-stepping", scenarioInfVm},
    {"persistent", "NaN re-injected every step -> cell frozen, neighbors exact",
     scenarioPersistent},
    {"lut-corrupt", "NaN LUT rows -> population degrades to scalar-exact",
     scenarioLutCorrupt},
    {"extreme-dt", "dt 100x past stability -> run kept finite",
     scenarioExtremeDt},
    {"extreme-param", "pathological parameter -> run completes, cells flagged",
     scenarioExtremeParam},
    {"sharded", "persistent NaN under 2/4 shards -> recovery thread-invariant",
     scenarioSharded},
    {"ensemble-quarantine",
     "poison sweep member -> quarantined, healthy members bit-exact",
     scenarioEnsembleQuarantine},
    {"ckpt-resume", "kill-at-step -> resume bit-identical to uninterrupted",
     scenarioCkptResume},
    {"tissue-nan-in-stencil",
     "NaN smeared through the diffusion stencil -> tissue healed",
     scenarioTissueNanStencil},
    {"tissue-persistent",
     "NaN re-injected into one node -> the whole sheet quarantined",
     scenarioTissuePersistent},
    {"tissue-ckpt-resume",
     "shutdown mid-tissue-run -> tissue resume exact, mismatches refused",
     scenarioTissueCkptResume},
    {"tissue-cancel-mid-stage",
     "cancel under a hot stage pipeline -> boundary stop, resumable",
     scenarioTissueCancelMidStage},
    {"ckpt-truncate", "truncated newest checkpoint -> fallback still exact",
     scenarioCkptTruncate},
    {"ckpt-corrupt", "corrupted checkpoints skipped -> oldest valid resumes",
     scenarioCkptCorrupt},
    {"ckpt-stale", "stale model/config/hash -> resume refused, state untouched",
     scenarioCkptStale},
    {"ckpt-enospc", "disk full on checkpoint writes -> run unharmed, counted",
     scenarioCkptEnospc},
    {"journal-enospc",
     "disk full on journal append/compaction -> prefix intact, recoverable",
     scenarioJournalEnospc},
    {"tune-corrupt",
     "corrupt/truncated tuning record -> heuristic fallback, clean re-tune",
     scenarioTuneCorrupt},
    {"tune-stale",
     "tuning record from another machine class/key -> stale, ignored",
     scenarioTuneStale},
    {"daemon-queue-full",
     "saturated queue -> explicit rejects, priority shed, fair-share pops",
     scenarioDaemonQueueFull},
    {"daemon-deadline",
     "wall-clock deadline mid-run -> expired + resumable final checkpoint",
     scenarioDaemonDeadline},
    {"daemon-journal-truncate",
     "journal torn mid-append -> intact prefix recovered, compaction exact",
     scenarioDaemonJournalTruncate},
    {"overhead", "clean run -> health scan costs < 5%", scenarioOverhead},
};

} // namespace

int main(int argc, char **argv) {
  if (argc > 1 && (!std::strcmp(argv[1], "--list") ||
                   !std::strcmp(argv[1], "--help"))) {
    std::printf("usage: faultinject [scenario]\n\nscenarios:\n");
    for (const Scenario &S : Scenarios)
      std::printf("  %-14s %s\n", S.Name, S.What);
    return 0;
  }

  const char *Only = argc > 1 ? argv[1] : nullptr;
  int Failed = 0, Matched = 0;
  for (const Scenario &S : Scenarios) {
    if (Only && std::strcmp(S.Name, Only) != 0)
      continue;
    ++Matched;
    std::printf("== %s: %s\n", S.Name, S.What);
    bool Ok = S.Run();
    std::printf("   %s\n", Ok ? "PASS" : "FAIL");
    Failed += !Ok;
  }
  if (Only && !Matched) {
    std::fprintf(stderr, "error: unknown scenario '%s' (see --list)\n", Only);
    return 1;
  }
  std::printf("%d/%d scenarios passed\n", Matched - Failed, Matched);
  return Failed != 0;
}
