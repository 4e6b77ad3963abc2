//===- FaultToleranceTests.cpp - Guard-rail recovery path tests -----------===//
//
// Fault-injection unit tests for the Simulator's numerical guard rails
// (docs/ROBUSTNESS.md): health-scan detection, checkpoint + retry with
// adaptive sub-stepping, scalar-exact degradation, freeze-and-flag, and
// the RunReport accounting that ties them together.
//
//===----------------------------------------------------------------------===//

#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Simulator.h"

#include <cmath>
#include <gtest/gtest.h>
#include <limits>

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::sim;

namespace {

double quietNaN() { return std::numeric_limits<double>::quiet_NaN(); }

std::optional<CompiledModel> compileByName(const char *Name,
                                           EngineConfig Cfg) {
  const models::ModelEntry *M = models::findModel(Name);
  EXPECT_NE(M, nullptr);
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(M->Name, M->Source, Diags);
  EXPECT_TRUE(Info.has_value()) << Diags.str();
  return CompiledModel::compile(*Info, Cfg);
}

SimOptions guardedOpts(int64_t Cells = 16, int64_t Steps = 120) {
  SimOptions Opts;
  Opts.NumCells = Cells;
  Opts.NumSteps = Steps;
  Opts.StimPeriod = 20.0;
  Opts.Guard.Enabled = true;
  return Opts;
}

//===----------------------------------------------------------------------===//
// Health scan
//===----------------------------------------------------------------------===//

TEST(HealthScan, BulkChecksCatchNanInfAndRange) {
  double Good[] = {0.0, -3.5, 1e11};
  EXPECT_TRUE(allWithinMagnitude(Good, 3, 1e12));
  double Nan[] = {0.0, quietNaN(), 1.0};
  EXPECT_FALSE(allWithinMagnitude(Nan, 3, 1e12));
  double Inf[] = {std::numeric_limits<double>::infinity()};
  EXPECT_FALSE(allWithinMagnitude(Inf, 1, 1e12));
  double Big[] = {-2e12};
  EXPECT_FALSE(allWithinMagnitude(Big, 1, 1e12));
  EXPECT_TRUE(allWithinMagnitude(nullptr, 0, 1e12));

  double Vm[] = {-80.0, 40.0};
  EXPECT_TRUE(allWithinRange(Vm, 2, -250.0, 250.0));
  Vm[1] = 260.0;
  EXPECT_FALSE(allWithinRange(Vm, 2, -250.0, 250.0));
  Vm[1] = quietNaN();
  EXPECT_FALSE(allWithinRange(Vm, 2, -250.0, 250.0));
}

TEST(HealthScan, SimulatorScanFlagsInjectedFaults) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  Simulator S(*M, guardedOpts(/*Cells=*/8, /*Steps=*/0));
  EXPECT_TRUE(S.scanIsHealthy());
  EXPECT_TRUE(S.faultyCells().empty());
  S.pokeState(2, 0, quietNaN());
  S.pokeState(6, 1, quietNaN());
  EXPECT_FALSE(S.scanIsHealthy());
  EXPECT_EQ(S.faultyCells(), (std::vector<int64_t>{2, 6}));
}

TEST(RunReportStruct, MergeAndRender) {
  RunReport A, B;
  A.FaultEvents = 2;
  A.Retries = 3;
  B.FaultEvents = 1;
  B.CellsFrozen = 4;
  A.merge(B);
  EXPECT_EQ(A.FaultEvents, 3);
  EXPECT_EQ(A.Retries, 3);
  EXPECT_EQ(A.CellsFrozen, 4);
  EXPECT_FALSE(A.clean());
  EXPECT_NE(A.str().find("faults=3"), std::string::npos);
  EXPECT_TRUE(RunReport().clean());
}

//===----------------------------------------------------------------------===//
// Recovery ladder
//===----------------------------------------------------------------------===//

TEST(FaultTolerance, CleanGuardedRunMatchesUnguardedBitForBit) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  SimOptions Guarded = guardedOpts();
  SimOptions Plain = Guarded;
  Plain.Guard.Enabled = false;
  Simulator A(*M, Guarded), B(*M, Plain);
  A.run();
  B.run();
  EXPECT_TRUE(A.report().clean());
  EXPECT_GT(A.report().HealthScans, 0);
  EXPECT_DOUBLE_EQ(A.stateChecksum(), B.stateChecksum());
}

TEST(FaultTolerance, SingleInjectedNanHealedBySubstepping) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  Simulator S(*M, guardedOpts());
  bool Fired = false;
  S.setFaultInjector([&](Simulator &Sim) {
    if (!Fired && Sim.stepsDone() == 40) {
      Fired = true;
      Sim.pokeState(3, 0, quietNaN());
    }
  });
  S.run();
  const RunReport &R = S.report();
  EXPECT_TRUE(Fired);
  EXPECT_TRUE(S.scanIsHealthy());
  EXPECT_EQ(R.FaultEvents, 1);
  EXPECT_EQ(R.FaultyCells, 1);
  EXPECT_GE(R.Retries, 1);
  EXPECT_GT(R.Substeps, 0);
  EXPECT_EQ(R.CellsDegraded, 0);
  EXPECT_EQ(R.CellsFrozen, 0);
  EXPECT_EQ(S.memberStatus(3), MemberStatus::Recovered);
  EXPECT_EQ(S.stepsDone(), S.options().NumSteps);
}

TEST(FaultTolerance, HealedCellLeavesEveryOtherCellBitIdentical) {
  // A one-shot NaN healed at dt/2: the rung re-runs the whole population,
  // then puts every member outside it back, so the 15 other cells end
  // exactly where an undisturbed guarded run ends.
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  Simulator S(*M, guardedOpts());
  bool Fired = false;
  S.setFaultInjector([&](Simulator &Sim) {
    if (!Fired && Sim.stepsDone() == 40) {
      Fired = true;
      Sim.pokeState(3, 0, quietNaN());
    }
  });
  S.run();
  Simulator Clean(*M, guardedOpts());
  Clean.run();

  ASSERT_EQ(S.report().Retries, 1);
  EXPECT_EQ(S.memberStatus(3), MemberStatus::Recovered);
  for (int64_t C = 0; C != S.options().NumCells; ++C) {
    if (C == 3)
      continue;
    for (unsigned Sv = 0; Sv != M->program().NumSv; ++Sv)
      EXPECT_EQ(S.stateOf(C, Sv), Clean.stateOf(C, Sv)) << C << "/" << Sv;
    EXPECT_EQ(S.vm(C), Clean.vm(C)) << C;
  }
}

TEST(FaultTolerance, UnhealableCellFreezesWithoutCorruptingNeighbors) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  const int64_t Victim = 5;
  Simulator S(*M, guardedOpts());
  S.setFaultInjector(
      [&](Simulator &Sim) { Sim.pokeState(Victim, 1, quietNaN()); });
  S.run();

  Simulator Clean(*M, guardedOpts());
  Clean.run();

  EXPECT_TRUE(S.scanIsHealthy());
  EXPECT_EQ(S.memberStatus(Victim), MemberStatus::Quarantined);
  EXPECT_EQ(S.report().CellsFrozen, 1);
  // The final (successful) re-run of every recovered window happens at
  // nominal dt, so untouched cells must be bit-identical to an
  // undisturbed guarded run.
  for (int64_t C = 0; C != S.options().NumCells; ++C) {
    if (C == Victim)
      continue;
    EXPECT_DOUBLE_EQ(S.vm(C), Clean.vm(C)) << C;
    EXPECT_DOUBLE_EQ(S.stateOf(C, 0), Clean.stateOf(C, 0)) << C;
  }
}

TEST(FaultTolerance, QuarantinedTraceCellRecordsItsPinnedValue) {
  // The traced cell is the one no rung heals. From the last healthy
  // checkpoint (step 40) on, its trace holds the pinned value, the failed
  // window included, never the NaN the last rung left there.
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  const int64_t Victim = 5;
  SimOptions Opts = guardedOpts();
  Opts.RecordTrace = true;
  Opts.TraceCell = Victim;
  Simulator S(*M, Opts);
  S.setFaultInjector([&](Simulator &Sim) {
    if (Sim.stepsDone() > 40)
      Sim.pokeState(Victim, 1, quietNaN());
  });
  S.run();
  ASSERT_EQ(S.memberStatus(Victim), MemberStatus::Quarantined);
  const std::vector<double> &Tr = S.trace();
  ASSERT_EQ(Tr.size(), size_t(Opts.NumSteps));
  for (size_t I = 0; I != Tr.size(); ++I)
    EXPECT_TRUE(std::isfinite(Tr[I])) << "step " << I + 1;
  for (size_t I = 40; I != Tr.size(); ++I)
    EXPECT_EQ(Tr[I], S.vm(Victim)) << "step " << I + 1;
}

TEST(FaultTolerance, CorruptedLutDegradesPopulationToScalarExact) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  SimOptions Opts = guardedOpts(/*Cells=*/8, /*Steps=*/48);
  Simulator S(*M, Opts);
  runtime::LutTableSet &Luts = S.mutableLuts();
  ASSERT_FALSE(Luts.empty());
  for (runtime::LutTable &T : Luts.Tables)
    for (int Row = 0; Row != T.rows(); ++Row)
      for (int Col = 0; Col != T.cols(); ++Col)
        T.at(Row, Col) = quietNaN();
  S.run();
  const RunReport &R = S.report();
  EXPECT_TRUE(S.scanIsHealthy());
  // Re-integration reads the same poisoned rows, so the dt ladder must
  // be skipped and the whole population lands on the scalar-exact path.
  EXPECT_EQ(R.Retries, 0);
  EXPECT_EQ(R.CellsDegraded, Opts.NumCells);
  EXPECT_EQ(R.CellsFrozen, 0);
  for (int64_t C = 0; C != Opts.NumCells; ++C) {
    EXPECT_EQ(S.memberStatus(C), MemberStatus::ScalarExact) << C;
    EXPECT_TRUE(std::isfinite(S.vm(C))) << C;
  }
  // Degraded cells keep evolving: the exact kernel still produces the
  // resting-state dynamics.
  EXPECT_NEAR(S.vm(0), -65.0, 10.0);
}

TEST(FaultTolerance, ReportTotalsMatchMultipleInjections) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  // Three one-shot NaNs into distinct cells in distinct scan windows
  // (interval 8): each is one fault event, one faulty cell, healed by
  // one retry.
  const int64_t Steps[] = {13, 45, 90};
  const int64_t Cells[] = {1, 9, 14};
  Simulator S(*M, guardedOpts());
  bool Fired[3] = {false, false, false};
  S.setFaultInjector([&](Simulator &Sim) {
    for (int I = 0; I != 3; ++I)
      if (!Fired[I] && Sim.stepsDone() == Steps[I]) {
        Fired[I] = true;
        Sim.pokeState(Cells[I], 0, quietNaN());
      }
  });
  S.run();
  const RunReport &R = S.report();
  EXPECT_TRUE(Fired[0] && Fired[1] && Fired[2]);
  EXPECT_TRUE(S.scanIsHealthy());
  EXPECT_EQ(R.FaultEvents, 3);
  EXPECT_EQ(R.FaultyCells, 3);
  EXPECT_GE(R.Retries, 3);
  EXPECT_EQ(R.CellsDegraded, 0);
  EXPECT_EQ(R.CellsFrozen, 0);
}

TEST(FaultTolerance, ExtremeDtKeptFinite) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  SimOptions Opts = guardedOpts(/*Cells=*/4, /*Steps=*/32);
  Opts.Dt = 1.0; // ~100x past the forward-Euler stability limit
  Simulator S(*M, Opts);
  S.run();
  EXPECT_TRUE(S.scanIsHealthy());
  EXPECT_GT(S.report().FaultEvents, 0);
  EXPECT_EQ(S.stepsDone(), Opts.NumSteps);
  for (int64_t C = 0; C != Opts.NumCells; ++C)
    EXPECT_TRUE(std::isfinite(S.vm(C))) << C;
}

TEST(FaultTolerance, FreezeDisabledStillCleansPopulation) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  SimOptions Opts = guardedOpts(/*Cells=*/8, /*Steps=*/48);
  Simulator S(*M, Opts);
  S.setFaultInjector([&](Simulator &Sim) { Sim.pokeState(2, 0, quietNaN()); });
  S.run();
  // A fault no rung heals ends quarantined; the run must still complete
  // with a clean population.
  EXPECT_TRUE(S.scanIsHealthy());
  EXPECT_EQ(S.stepsDone(), Opts.NumSteps);
  EXPECT_GT(S.report().FaultEvents, 0);
}

TEST(FaultTolerance, ManualSteppingIsUnguarded) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  Simulator S(*M, guardedOpts(/*Cells=*/4, /*Steps=*/8));
  S.pokeState(1, 0, quietNaN());
  S.step(); // manual stepping never scans or rolls back
  EXPECT_FALSE(S.scanIsHealthy());
  EXPECT_EQ(S.report().HealthScans, 0);
}

} // namespace
