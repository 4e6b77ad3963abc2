//===- EnsembleTests.cpp - Batched parameter-sweep engine tests -----------===//
//
// The ensemble contract (docs/ENSEMBLE.md): a sweep spec parses and
// canonicalizes deterministically, swept parameters lower to trailing
// per-cell externals without disturbing the model's own external
// indices, a member's trajectory is bit-identical no matter how many
// other members share the packed population or how many threads step it,
// quarantine outcomes are reproducible, SIGKILL-shaped interruption plus
// resume lands bit-identically to an uninterrupted sweep for every
// layout x width, and checkpoints never cross the plain/ensemble wall.
//
//===----------------------------------------------------------------------===//

#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Checkpoint.h"
#include "sim/Ensemble.h"
#include "sim/Simulator.h"

#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>
#include <optional>
#include <unistd.h>

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::sim;

namespace {

std::optional<easyml::ModelInfo> suiteInfo(const char *Name) {
  const models::ModelEntry *M = models::findModel(Name);
  EXPECT_NE(M, nullptr);
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(M->Name, M->Source, Diags);
  EXPECT_TRUE(Info.has_value()) << Diags.str();
  return Info;
}

std::optional<EnsembleModel> buildHH(const char *Sweep, int64_t CellsPer,
                                     EngineConfig Cfg) {
  auto Info = suiteInfo("HodgkinHuxley");
  if (!Info)
    return std::nullopt;
  Expected<EnsembleSpec> Spec = EnsembleSpec::fromSweep(Sweep, CellsPer);
  EXPECT_TRUE(bool(Spec)) << Spec.status().message();
  if (!Spec)
    return std::nullopt;
  Expected<EnsembleModel> EM =
      buildEnsembleModel(*Info, std::move(*Spec), Cfg);
  EXPECT_TRUE(bool(EM)) << EM.status().message();
  if (!EM)
    return std::nullopt;
  return std::move(*EM);
}

SimOptions sweepOpts(int64_t Steps, unsigned Threads = 1) {
  SimOptions Opts;
  Opts.NumSteps = Steps;
  Opts.NumThreads = Threads;
  Opts.StimPeriod = 20.0;
  Opts.Guard.Enabled = true;
  return Opts;
}

std::string freshDir(const char *Tag) {
  std::string Dir = ::testing::TempDir() + "limpet-ens-" + Tag + "-" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// The layout x width matrix the determinism claims must hold over.
std::vector<EngineConfig> coverageConfigs() {
  return {EngineConfig::baseline(), EngineConfig::limpetMLIR(4),
          EngineConfig::limpetMLIR(8), EngineConfig::autoVecLike(4)};
}

std::vector<double> allMemberChecksums(const EnsembleRunner &S) {
  std::vector<double> Out;
  for (int64_t M = 0; M != S.numMembers(); ++M)
    Out.push_back(S.memberChecksum(M));
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Spec parsing and canonicalization
//===----------------------------------------------------------------------===//

TEST(EnsembleSpecParse, GridCrossProductFirstAxisSlowest) {
  Expected<EnsembleSpec> S =
      EnsembleSpec::fromSweep("gK=10:20:3;gNa=100,120", /*CellsPerMember=*/2);
  ASSERT_TRUE(bool(S)) << S.status().message();
  EXPECT_EQ(S->numMembers(), 6);
  EXPECT_EQ(S->CellsPerMember, 2);
  EXPECT_EQ(S->numCells(), 12);
  EXPECT_EQ(S->sweptParams(), (std::vector<std::string>{"gK", "gNa"}));
  // Row-major: gK (first clause) is the slow axis.
  const double GK[] = {10, 10, 15, 15, 20, 20};
  const double GNa[] = {100, 120, 100, 120, 100, 120};
  for (int M = 0; M != 6; ++M) {
    ASSERT_EQ(S->Members[M].Overrides.size(), 2u);
    EXPECT_EQ(S->Members[M].Overrides[0].Name, "gK");
    EXPECT_EQ(S->Members[M].Overrides[0].Value, GK[M]) << "member " << M;
    EXPECT_EQ(S->Members[M].Overrides[1].Value, GNa[M]) << "member " << M;
  }
}

TEST(EnsembleSpecParse, SingleCountPinsLoAndHashIsCanonical) {
  Expected<EnsembleSpec> S = EnsembleSpec::fromSweep("gK=5:9:1");
  ASSERT_TRUE(bool(S));
  ASSERT_EQ(S->numMembers(), 1);
  EXPECT_EQ(S->Members[0].Overrides[0].Value, 5.0);

  // Identical sweeps hash identically; any value change re-keys the hash
  // (what lets a checkpoint refuse a different sweep).
  Expected<EnsembleSpec> A = EnsembleSpec::fromSweep("gNa=100,120", 2);
  Expected<EnsembleSpec> B = EnsembleSpec::fromSweep("gNa=100,120", 2);
  Expected<EnsembleSpec> C = EnsembleSpec::fromSweep("gNa=100,121", 2);
  Expected<EnsembleSpec> D = EnsembleSpec::fromSweep("gNa=100,120", 3);
  ASSERT_TRUE(bool(A) && bool(B) && bool(C) && bool(D));
  EXPECT_EQ(A->hash(), B->hash());
  EXPECT_NE(A->hash(), C->hash());
  EXPECT_NE(A->hash(), D->hash());
}

TEST(EnsembleSpecParse, MalformedSweepsAreRecoverableErrors) {
  const char *Bad[] = {
      "",              // empty expression
      "gK",            // no '='
      "=1,2",          // empty name
      "gK=",           // no values
      "gK=1:2",        // grid missing n
      "gK=1:2:0",      // n < 1
      "gK=1:2:2.5",    // non-integer n
      "gK=1,oops",     // non-numeric value
      "gK=1e999",      // overflows to +inf
      "gK=1,2;gK=3",   // duplicate axis
  };
  for (const char *Sweep : Bad)
    EXPECT_FALSE(bool(EnsembleSpec::fromSweep(Sweep))) << "'" << Sweep << "'";
  EXPECT_FALSE(bool(EnsembleSpec::fromSweep("gK=1", /*CellsPerMember=*/0)));
}

TEST(EnsembleSpecParse, JsonArrayAndWrapperForms) {
  Expected<EnsembleSpec> A =
      EnsembleSpec::fromJson("[{\"gK\":1},{\"gK\":2,\"gNa\":90}]", 4);
  ASSERT_TRUE(bool(A)) << A.status().message();
  EXPECT_EQ(A->numMembers(), 2);
  EXPECT_EQ(A->CellsPerMember, 4);
  EXPECT_EQ(A->Members[1].Overrides.size(), 2u);

  // The wrapper's cells_per_member overrides the argument.
  Expected<EnsembleSpec> B = EnsembleSpec::fromJson(
      "{\"cells_per_member\":3,\"members\":[{\"gK\":1}]}", 1);
  ASSERT_TRUE(bool(B));
  EXPECT_EQ(B->CellsPerMember, 3);

  EXPECT_FALSE(bool(EnsembleSpec::fromJson("not json")));
  EXPECT_FALSE(bool(EnsembleSpec::fromJson("[]")));
  EXPECT_FALSE(bool(EnsembleSpec::fromJson("[42]")));
  EXPECT_FALSE(bool(EnsembleSpec::fromJson("[{\"gK\":\"high\"}]")));
  EXPECT_FALSE(bool(EnsembleSpec::fromJson("{\"members\":[{\"gK\":1}]}", 0)));
}

//===----------------------------------------------------------------------===//
// Parameter lowering
//===----------------------------------------------------------------------===//

TEST(EnsembleLowering, SweptParamBecomesTrailingExternal) {
  auto Info = suiteInfo("HodgkinHuxley");
  ASSERT_TRUE(Info.has_value());
  int VmBefore = Info->externalIndex("Vm");
  size_t ExtsBefore = Info->Externals.size();
  ASSERT_GE(Info->paramIndex("gNa"), 0);

  Expected<easyml::ModelInfo> L = lowerSweptParams(*Info, {"gNa"});
  ASSERT_TRUE(bool(L)) << L.status().message();
  // Moved out of the parameter list...
  EXPECT_LT(L->paramIndex("gNa"), 0);
  // ...appended at the END of the externals, so Vm/Iion stay put.
  ASSERT_EQ(L->Externals.size(), ExtsBefore + 1);
  EXPECT_EQ(L->Externals.back().Name, "gNa");
  EXPECT_FALSE(L->Externals.back().IsComputed);
  EXPECT_EQ(L->externalIndex("Vm"), VmBefore);
  // Seeded with the parameter's default, so members without an override
  // run the stock model.
  EXPECT_EQ(L->Externals.back().Init,
            Info->Params[size_t(Info->paramIndex("gNa"))].DefaultValue);

  EXPECT_FALSE(bool(lowerSweptParams(*Info, {"nosuch"})));
  EXPECT_FALSE(bool(lowerSweptParams(*Info, {"Vm"}))); // shadows an external
}

TEST(EnsembleLowering, BuildRejectsUnknownParamAndBadSpecs) {
  auto Info = suiteInfo("HodgkinHuxley");
  ASSERT_TRUE(Info.has_value());
  Expected<EnsembleSpec> Spec = EnsembleSpec::fromSweep("nosuch=1,2");
  ASSERT_TRUE(bool(Spec));
  Expected<EnsembleModel> EM =
      buildEnsembleModel(*Info, std::move(*Spec), EngineConfig::baseline());
  ASSERT_FALSE(bool(EM));
  EXPECT_NE(EM.status().message().find("nosuch"), std::string::npos);

  EnsembleSpec Empty;
  EXPECT_FALSE(bool(
      buildEnsembleModel(*Info, Empty, EngineConfig::baseline())));
}

//===----------------------------------------------------------------------===//
// Determinism: packing, threading, reproducibility
//===----------------------------------------------------------------------===//

TEST(EnsembleDeterminism, MemberTrajectoryInvariantToPopulationAndThreads) {
  for (const EngineConfig &Cfg : coverageConfigs()) {
    // gNa = 80 + 5*M: member 4 of the big sweep runs the same point as
    // the solo sweep.
    auto Solo = buildHH("gNa=100", /*CellsPer=*/2, Cfg);
    auto Big = buildHH("gNa=80:125:10", /*CellsPer=*/2, Cfg);
    ASSERT_TRUE(Solo && Big);
    EnsembleRunner SSolo(*Solo, sweepOpts(200));
    SSolo.run();
    EnsembleRunner SBig(*Big, sweepOpts(200));
    SBig.run();
    ASSERT_EQ(SBig.numMembers(), 10);
    EXPECT_EQ(SSolo.memberChecksum(0), SBig.memberChecksum(4))
        << engineConfigName(Cfg)
        << ": member trajectory depends on the rest of the population";

    // Thread count must change nothing.
    for (unsigned Threads : {2u, 8u}) {
      EnsembleRunner ST(*Big, sweepOpts(200, Threads));
      ST.run();
      EXPECT_EQ(allMemberChecksums(ST), allMemberChecksums(SBig))
          << engineConfigName(Cfg) << " with " << Threads << " threads";
    }
  }
}

TEST(EnsembleDeterminism, QuarantineReproducibleAcrossRunsAndThreads) {
  auto EM = buildHH("gNa=120,1e9,90,110", /*CellsPer=*/2,
                    EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(EM.has_value());
  auto RunOnce = [&](unsigned Threads) {
    EnsembleRunner S(*EM, sweepOpts(200, Threads));
    S.run();
    EXPECT_EQ(S.stepsDone(), 200);
    EXPECT_EQ(S.membersQuarantined(), 1);
    EXPECT_EQ(S.membersOk(), 3);
    EXPECT_EQ(S.memberStatus(1), MemberStatus::Quarantined);
    std::vector<MemberReport> R = S.memberReports();
    std::vector<double> Sums = allMemberChecksums(S);
    return std::make_pair(R, Sums);
  };
  auto [R1, Sum1] = RunOnce(1);
  auto [R2, Sum2] = RunOnce(1);
  auto [R4, Sum4] = RunOnce(4);
  EXPECT_EQ(Sum1, Sum2) << "same sweep, same process: not reproducible";
  EXPECT_EQ(Sum1, Sum4) << "quarantine outcome depends on thread count";
  for (size_t M = 0; M != R1.size(); ++M) {
    EXPECT_EQ(R1[M].Status, R4[M].Status) << "member " << M;
    EXPECT_EQ(R1[M].QuarantineStep, R4[M].QuarantineStep) << "member " << M;
  }
  // The quarantined member pinned early and says why.
  EXPECT_NE(R1[1].Reason, QuarantineReason::None);
  EXPECT_GE(R1[1].QuarantineStep, 0);
}

TEST(EnsembleDeterminism, OutOfBoundsSweptValueQuarantinesOnce) {
  // gNa = 2e12 is finite, so the sweep builds, but the swept external is
  // beyond the magnitude bound from step 0: the member's pin is never in
  // bounds. It is quarantined in the first window, and no later window
  // counts it as a fault again.
  auto EM = buildHH("gNa=120,2e12", /*CellsPer=*/1,
                    EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(EM.has_value());
  EnsembleRunner S(*EM, sweepOpts(200));
  S.run();
  EXPECT_EQ(S.stepsDone(), 200);
  EXPECT_EQ(S.membersQuarantined(), 1);
  EXPECT_EQ(S.memberStatus(1), MemberStatus::Quarantined);
  EXPECT_EQ(S.memberStatus(0), MemberStatus::Ok);
  EXPECT_EQ(S.report().FaultEvents, 1);
  EXPECT_TRUE(S.scanIsHealthy());
}

TEST(EnsembleDeterminism, NdjsonOneLinePerMember) {
  auto EM = buildHH("gNa=120,1e9,90", /*CellsPer=*/1,
                    EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(EM.has_value());
  EnsembleRunner S(*EM, sweepOpts(100));
  S.run();
  std::string Nd = S.memberStatsNdjson();
  size_t Lines = 0;
  for (char Ch : Nd)
    Lines += Ch == '\n';
  EXPECT_EQ(Lines, 3u);
  EXPECT_NE(Nd.find("\"member\":0"), std::string::npos);
  EXPECT_NE(Nd.find("\"status\":\"quarantined\""), std::string::npos);
  EXPECT_NE(Nd.find("\"checksum\":"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Interruption + resume (the SIGKILL -> --resume path, per layout x width)
//===----------------------------------------------------------------------===//

TEST(EnsembleResume, BitIdenticalAfterInterruptPerLayoutAndWidth) {
  for (const EngineConfig &Cfg : coverageConfigs()) {
    auto EM = buildHH("gNa=120,1e9,90,110", /*CellsPer=*/2, Cfg);
    ASSERT_TRUE(EM.has_value());
    std::string Dir = freshDir(engineConfigName(Cfg).c_str());

    // A shutdown request lands at step 100 — after the poison member has
    // already been quarantined inside the first scan window.
    clearShutdownRequest();
    SimOptions Opts = sweepOpts(200);
    Opts.Checkpoint.Dir = Dir;
    Opts.Checkpoint.EveryN = 24;
    EnsembleRunner S(*EM, Opts);
    S.setFaultInjector([](Simulator &Sim) {
      if (Sim.stepsDone() == 100)
        requestShutdown();
    });
    S.run();
    clearShutdownRequest();
    ASSERT_TRUE(S.interrupted()) << engineConfigName(Cfg);
    ASSERT_LT(S.stepsDone(), 200);
    ASSERT_EQ(S.membersQuarantined(), 1);

    CheckpointStore Store(Dir);
    Expected<CheckpointData> C = Store.loadNewestValid();
    ASSERT_TRUE(bool(C)) << C.status().message();
    EXPECT_EQ(C->NumCells / C->CellsPerMember, 4);
    EXPECT_EQ(C->Members.size(), 1u);
    EXPECT_EQ(C->Members.at(1).Status, MemberStatus::Quarantined);

    // A fresh runner (fresh process, morally) resumes and finishes.
    EnsembleRunner Resumed(*EM, sweepOpts(200));
    ASSERT_TRUE(Resumed.resumeFrom(*C).isOk()) << engineConfigName(Cfg);
    EXPECT_EQ(Resumed.membersQuarantined(), 1)
        << "resume dropped the quarantine";
    Resumed.run();
    EXPECT_EQ(Resumed.stepsDone(), 200);

    EnsembleRunner Ref(*EM, sweepOpts(200));
    Ref.run();
    EXPECT_EQ(serializeCheckpoint(Resumed.captureCheckpoint()),
              serializeCheckpoint(Ref.captureCheckpoint()))
        << engineConfigName(Cfg)
        << ": resumed sweep diverged from uninterrupted";
    EXPECT_EQ(allMemberChecksums(Resumed), allMemberChecksums(Ref));
    std::filesystem::remove_all(Dir);
  }
}

TEST(EnsembleResume, CheckpointsNeverCrossThePlainEnsembleWall) {
  auto EM = buildHH("gNa=120,90", /*CellsPer=*/2,
                    EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(EM.has_value());
  EnsembleRunner S(*EM, sweepOpts(64));
  S.run();
  CheckpointData EnsCkpt = S.captureCheckpoint();
  ASSERT_EQ(EnsCkpt.NumCells / EnsCkpt.CellsPerMember, 2);

  // A plain simulator on the very same lowered model (shape matches, so
  // only the member section can refuse) must not continue the sweep.
  SimOptions Plain;
  Plain.NumCells = 4;
  Plain.NumSteps = 64;
  Plain.StimPeriod = 20.0;
  Simulator P(EM->model(), Plain);
  Status St = P.resumeFrom(EnsCkpt);
  ASSERT_FALSE(St.isOk());
  EXPECT_NE(St.message().find("ensemble"), std::string::npos);

  // And the runner refuses a plain checkpoint of the same shape.
  P.run();
  CheckpointData PlainCkpt = P.captureCheckpoint();
  EnsembleRunner R2(*EM, sweepOpts(64));
  St = R2.resumeFrom(PlainCkpt);
  ASSERT_FALSE(St.isOk());
  EXPECT_NE(St.message().find("not an ensemble"), std::string::npos);

  // Same member shape, different parameter points: spec hash refuses.
  auto Other = buildHH("gNa=121,90", /*CellsPer=*/2,
                       EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(Other.has_value());
  EnsembleRunner R3(*Other, sweepOpts(64));
  St = R3.resumeFrom(EnsCkpt);
  ASSERT_FALSE(St.isOk());
  EXPECT_NE(St.message().find("spec hash"), std::string::npos);

  // Same total cells, different member split: the shape check names it.
  auto Split = buildHH("gNa=120,90,100,110", /*CellsPer=*/1,
                       EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(Split.has_value());
  EnsembleRunner R4(*Split, sweepOpts(64));
  St = R4.resumeFrom(EnsCkpt);
  ASSERT_FALSE(St.isOk());
  EXPECT_NE(St.message().find("shape"), std::string::npos);

  // The matching runner accepts.
  EnsembleRunner R5(*EM, sweepOpts(64));
  EXPECT_TRUE(R5.resumeFrom(EnsCkpt).isOk());
}
