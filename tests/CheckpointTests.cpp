//===- CheckpointTests.cpp - Durable checkpoint/resume tests --------------===//
//
// The durability contract (docs/ROBUSTNESS.md): checkpoints round-trip
// bit-exactly for every layout x width, every truncation or corruption of
// a checkpoint file parses to a recoverable error (never UB, never a
// misparse), the store rotates to its retained count and falls back to
// the newest file that still checksums, and a resumed run reaches a final
// state bit-identical to a run that was never interrupted.
//
//===----------------------------------------------------------------------===//

#include "compiler/Serialize.h"
#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Checkpoint.h"
#include "sim/Simulator.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>
#include <limits>
#include <unistd.h>

using namespace limpet;
using namespace limpet::exec;
using namespace limpet::sim;

namespace {

std::optional<CompiledModel> compileByName(const char *Name,
                                           EngineConfig Cfg) {
  const models::ModelEntry *M = models::findModel(Name);
  EXPECT_NE(M, nullptr);
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(M->Name, M->Source, Diags);
  EXPECT_TRUE(Info.has_value()) << Diags.str();
  return CompiledModel::compile(*Info, Cfg);
}

/// A unique, empty temp directory per test.
std::string freshDir(const char *Tag) {
  std::string Dir = ::testing::TempDir() + "limpet-ckpt-" + Tag + "-" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

SimOptions runOpts(int64_t Cells, int64_t Steps, bool Guard = false) {
  SimOptions Opts;
  Opts.NumCells = Cells;
  Opts.NumSteps = Steps;
  Opts.StimPeriod = 20.0;
  Opts.Guard.Enabled = Guard;
  return Opts;
}

/// The engine configurations the durability contract must hold for:
/// scalar AoS, vectorized AoSoA at width 4 and 8, and the
/// auto-vectorizer-like AoS gathers.
std::vector<EngineConfig> coverageConfigs() {
  return {EngineConfig::baseline(), EngineConfig::limpetMLIR(4),
          EngineConfig::limpetMLIR(8), EngineConfig::autoVecLike(4)};
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization round trip
//===----------------------------------------------------------------------===//

TEST(CheckpointRoundTrip, BitExactPerLayoutAndWidth) {
  for (const EngineConfig &Cfg : coverageConfigs()) {
    auto M = compileByName("HodgkinHuxley", Cfg);
    ASSERT_TRUE(M.has_value());
    SimOptions Opts = runOpts(/*Cells=*/10, /*Steps=*/40);
    Opts.RecordTrace = true;
    Simulator S(*M, Opts);
    S.run();

    CheckpointData C = S.captureCheckpoint();
    std::string Bytes = serializeCheckpoint(C);
    Expected<CheckpointData> D = deserializeCheckpoint(Bytes);
    ASSERT_TRUE(bool(D)) << engineConfigName(Cfg) << ": "
                         << D.status().message();
    // Re-serializing the parse must reproduce the identical bytes: that
    // covers every field, every double bit pattern, and AoSoA padding.
    EXPECT_EQ(serializeCheckpoint(*D), Bytes) << engineConfigName(Cfg);
    EXPECT_EQ(D->StepCount, 40);
    EXPECT_EQ(D->Trace.size(), 40u);
    EXPECT_EQ(D->NumCells, 10);
  }
}

TEST(CheckpointRoundTrip, GuardRailStateSurvives) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  SimOptions Opts = runOpts(/*Cells=*/8, /*Steps=*/64, /*Guard=*/true);
  Simulator S(*M, Opts);
  // A persistent fault in one cell walks it down the recovery ladder, so
  // the checkpoint has nontrivial member-record and Report content.
  S.setFaultInjector([](Simulator &Sim) {
    Sim.pokeState(3, 0, std::numeric_limits<double>::infinity());
  });
  S.run();
  ASSERT_GT(S.report().FaultEvents, 0);

  CheckpointData C = S.captureCheckpoint();
  ASSERT_EQ(C.Members.size(), 1u);
  EXPECT_EQ(C.Members.at(3).Status, MemberStatus::Quarantined);
  std::string Bytes = serializeCheckpoint(C);
  Expected<CheckpointData> D = deserializeCheckpoint(Bytes);
  ASSERT_TRUE(bool(D)) << D.status().message();
  EXPECT_EQ(serializeCheckpoint(*D), Bytes);
  EXPECT_EQ(D->Report.FaultEvents, S.report().FaultEvents);
  EXPECT_EQ(D->Members.size(), C.Members.size());
}

TEST(CheckpointRoundTrip, GuardedRunsWriteByteIdenticalCheckpoints) {
  // No wall-clock time rides in a checkpoint, so two runs of one guarded
  // spec — a persistent fault walking the ladder included — write the
  // same bytes.
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  std::string Bytes[2];
  for (std::string &Out : Bytes) {
    std::string Dir = freshDir("identical");
    SimOptions Opts = runOpts(/*Cells=*/8, /*Steps=*/64, /*Guard=*/true);
    Opts.Checkpoint.Dir = Dir;
    Opts.Checkpoint.EveryN = 64;
    Simulator S(*M, Opts);
    S.setFaultInjector([](Simulator &Sim) {
      Sim.pokeState(5, 1, std::numeric_limits<double>::quiet_NaN());
    });
    S.run();
    ASSERT_EQ(S.memberStatus(5), MemberStatus::Quarantined);
    std::vector<std::string> Files = CheckpointStore(Dir).list();
    ASSERT_EQ(Files.size(), 1u);
    ASSERT_TRUE(bool(compiler::readFileBytes(Files[0], Out)));
    std::filesystem::remove_all(Dir);
  }
  EXPECT_EQ(Bytes[0], Bytes[1]);
}

//===----------------------------------------------------------------------===//
// Corruption and truncation
//===----------------------------------------------------------------------===//

TEST(CheckpointCorruption, TruncationAtEveryPrefixIsRecoverable) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  Simulator S(*M, runOpts(/*Cells=*/3, /*Steps=*/5));
  S.run();
  std::string Bytes = serializeCheckpoint(S.captureCheckpoint());
  ASSERT_GT(Bytes.size(), 16u);
  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    Expected<CheckpointData> D =
        deserializeCheckpoint(std::string_view(Bytes).substr(0, Len));
    EXPECT_FALSE(bool(D)) << "prefix of " << Len << " bytes parsed";
  }
}

TEST(CheckpointCorruption, EveryFlippedByteIsRecoverable) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  Simulator S(*M, runOpts(/*Cells=*/2, /*Steps=*/3));
  S.run();
  std::string Bytes = serializeCheckpoint(S.captureCheckpoint());
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::string Bad = Bytes;
    Bad[I] = char(Bad[I] ^ 0x5a);
    Expected<CheckpointData> D = deserializeCheckpoint(Bad);
    EXPECT_FALSE(bool(D)) << "corrupt byte " << I << " parsed";
  }
}

TEST(CheckpointCorruption, VersionMismatchIsRefusedNotMisparsed) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  Simulator S(*M, runOpts(/*Cells=*/2, /*Steps=*/1));
  S.run();
  // A newer format and the previous one (v3, with per-cell modes and an
  // ensemble section) are both refused.
  for (int Delta : {1, -1}) {
    std::string Bytes = serializeCheckpoint(S.captureCheckpoint());
    Bytes[4] = char(Bytes[4] + Delta); // version u32 follows the magic
    Expected<CheckpointData> D = deserializeCheckpoint(Bytes);
    ASSERT_FALSE(bool(D)) << Delta;
    EXPECT_NE(D.status().message().find("version"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Store: rotation, retention, newest-valid fallback
//===----------------------------------------------------------------------===//

TEST(CheckpointStore, RotationKeepsNewestRetainFiles) {
  std::string Dir = freshDir("rotate");
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  Simulator S(*M, runOpts(/*Cells=*/4, /*Steps=*/10));
  CheckpointStore Store(Dir, /*Retain=*/2);
  ASSERT_TRUE(bool(Store.prepare()));
  for (int I = 0; I != 5; ++I) {
    S.run(); // +10 steps each time
    ASSERT_TRUE(bool(Store.write(S.captureCheckpoint())));
  }
  std::vector<std::string> Files = Store.list();
  ASSERT_EQ(Files.size(), 2u);
  EXPECT_NE(Files[0].find("ckpt-000000000040.lmpc"), std::string::npos);
  EXPECT_NE(Files[1].find("ckpt-000000000050.lmpc"), std::string::npos);
  std::filesystem::remove_all(Dir);
}

TEST(CheckpointStore, FallsBackToNewestValidCheckpoint) {
  std::string Dir = freshDir("fallback");
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  Simulator S(*M, runOpts(/*Cells=*/4, /*Steps=*/10));
  CheckpointStore Store(Dir, /*Retain=*/3);
  for (int I = 0; I != 3; ++I) {
    S.run();
    ASSERT_TRUE(bool(Store.write(S.captureCheckpoint())));
  }
  std::vector<std::string> Files = Store.list();
  ASSERT_EQ(Files.size(), 3u);

  // Truncate the newest (a crash mid-write on a filesystem without atomic
  // rename) and corrupt the second newest.
  {
    std::string Bytes;
    ASSERT_TRUE(bool(compiler::readFileBytes(Files[2], Bytes)));
    std::ofstream(Files[2], std::ios::binary | std::ios::trunc)
        .write(Bytes.data(), std::streamsize(Bytes.size() / 2));
    std::ofstream(Files[1], std::ios::binary | std::ios::in)
        .write("garbage", 7);
  }

  std::string Path;
  int Skipped = 0;
  Expected<CheckpointData> C = Store.loadNewestValid(&Path, &Skipped);
  ASSERT_TRUE(bool(C)) << C.status().message();
  EXPECT_EQ(Skipped, 2);
  EXPECT_EQ(Path, Files[0]);
  EXPECT_EQ(C->StepCount, 10);
  std::filesystem::remove_all(Dir);
}

TEST(CheckpointStore, RemoveAfterDropsOnlyLaterSteps) {
  std::string Dir = freshDir("remove-after");
  CheckpointStore Store(Dir);
  ASSERT_TRUE(bool(Store.prepare()));
  for (int64_t Step : {10, 20, 30, 40})
    std::ofstream(Store.pathForStep(Step)) << "not a checkpoint";
  Store.removeAfter(20);
  std::vector<std::string> Files = Store.list();
  ASSERT_EQ(Files.size(), 2u);
  EXPECT_NE(Files[0].find("ckpt-000000000010.lmpc"), std::string::npos);
  EXPECT_NE(Files[1].find("ckpt-000000000020.lmpc"), std::string::npos);
  std::filesystem::remove_all(Dir);
}

TEST(CheckpointStore, EmptyDirectoryIsARecoverableError) {
  std::string Dir = freshDir("empty");
  CheckpointStore Store(Dir);
  Expected<CheckpointData> C = Store.loadNewestValid();
  ASSERT_FALSE(bool(C));
  EXPECT_NE(C.status().message().find("no valid checkpoint"),
            std::string::npos);
  std::filesystem::remove_all(Dir);
}

TEST(CheckpointStore, UnpreparableDirectoryIsARecoverableError) {
  // /dev/null is a file, so mkdir -p under it must fail cleanly.
  CheckpointStore Store("/dev/null/sub");
  Status S = Store.prepare();
  ASSERT_FALSE(bool(S));
  EXPECT_NE(S.message().find("checkpoint directory"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Resume
//===----------------------------------------------------------------------===//

TEST(CheckpointResume, ResumedRunIsBitIdenticalAcrossLayouts) {
  for (const EngineConfig &Cfg : coverageConfigs()) {
    auto M = compileByName("HodgkinHuxley", Cfg);
    ASSERT_TRUE(M.has_value());

    // Reference: one uninterrupted 128-step run.
    SimOptions Opts = runOpts(/*Cells=*/10, /*Steps=*/128);
    Opts.RecordTrace = true;
    Simulator Ref(*M, Opts);
    Ref.run();

    // Interrupted: 64 steps, checkpoint, a *fresh* simulator resumes and
    // chases the same 128-step total.
    SimOptions Half = Opts;
    Half.NumSteps = 64;
    Simulator First(*M, Half);
    First.run();
    CheckpointData C = First.captureCheckpoint();

    Simulator Second(*M, Opts);
    ASSERT_TRUE(bool(Second.resumeFrom(C))) << engineConfigName(Cfg);
    Second.run();

    EXPECT_EQ(Second.stepsDone(), 128) << engineConfigName(Cfg);
    EXPECT_EQ(serializeCheckpoint(Second.captureCheckpoint()),
              serializeCheckpoint(Ref.captureCheckpoint()))
        << engineConfigName(Cfg) << ": resumed state differs";
  }
}

TEST(CheckpointResume, GuardedResumeIsBitIdentical) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  // 64/128 are multiples of the scan interval (8), so the interrupted
  // run's windows line up with the uninterrupted run's.
  SimOptions Opts = runOpts(/*Cells=*/8, /*Steps=*/128, /*Guard=*/true);
  // With a persistent fault, cell 3's one-cell member is quarantined in
  // the first window and its record (and pinned values) cross the resume
  // through the serialized member section.
  for (bool Persistent : {false, true}) {
    SCOPED_TRACE(Persistent ? "persistent fault" : "clean");
    auto Inject = [&](Simulator &S) {
      if (Persistent)
        S.setFaultInjector([](Simulator &Sim) {
          Sim.pokeState(3, 0, std::numeric_limits<double>::quiet_NaN());
        });
    };
    Simulator Ref(*M, Opts);
    Inject(Ref);
    Ref.run();

    SimOptions Half = Opts;
    Half.NumSteps = 64;
    Simulator First(*M, Half);
    Inject(First);
    First.run();
    Expected<CheckpointData> C =
        deserializeCheckpoint(serializeCheckpoint(First.captureCheckpoint()));
    ASSERT_TRUE(bool(C)) << C.status().message();
    EXPECT_EQ(C->Members.size(), Persistent ? 1u : 0u);
    Simulator Second(*M, Opts);
    Inject(Second);
    ASSERT_TRUE(bool(Second.resumeFrom(*C)));
    Second.run();

    EXPECT_EQ(Second.memberStatus(3), Ref.memberStatus(3));
    EXPECT_EQ(Second.memberStatus(3), Persistent ? MemberStatus::Quarantined
                                                 : MemberStatus::Ok);
    EXPECT_EQ(serializeCheckpoint(Second.captureCheckpoint()),
              serializeCheckpoint(Ref.captureCheckpoint()));
    EXPECT_EQ(Second.report().HealthScans, Ref.report().HealthScans);
  }
}

TEST(CheckpointResume, RefusesMismatchedModelConfigShapeAndHash) {
  auto M4 = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  Simulator S(*M4, runOpts(/*Cells=*/8, /*Steps=*/8));
  S.run();
  CheckpointData C = S.captureCheckpoint();

  // Different model.
  auto Other = compileByName("BeelerReuter", EngineConfig::limpetMLIR(4));
  Simulator OtherSim(*Other, runOpts(8, 8));
  EXPECT_FALSE(bool(OtherSim.resumeFrom(C)));

  // Same model, different engine configuration.
  auto MBase = compileByName("HodgkinHuxley", EngineConfig::baseline());
  Simulator BaseSim(*MBase, runOpts(8, 8));
  EXPECT_FALSE(bool(BaseSim.resumeFrom(C)));

  // Same model and config, different population size.
  Simulator Bigger(*M4, runOpts(16, 8));
  EXPECT_FALSE(bool(Bigger.resumeFrom(C)));

  // Stale model: the source hash the checkpoint was stamped with does not
  // match the hash the resuming driver computed.
  SimOptions HashOpts = runOpts(8, 8);
  HashOpts.Checkpoint.SourceHash = 0x1111;
  Simulator Stamped(*M4, HashOpts);
  CheckpointData Stale = Stamped.captureCheckpoint();
  SimOptions OtherHash = runOpts(8, 8);
  OtherHash.Checkpoint.SourceHash = 0x2222;
  Simulator Resumer(*M4, OtherHash);
  Status St = Resumer.resumeFrom(Stale);
  ASSERT_FALSE(bool(St));
  EXPECT_NE(St.message().find("source"), std::string::npos);

  // And the matching hash is accepted.
  Simulator SameHash(*M4, HashOpts);
  EXPECT_TRUE(bool(SameHash.resumeFrom(Stale)));
}

//===----------------------------------------------------------------------===//
// Durable cadence and graceful shutdown inside run()
//===----------------------------------------------------------------------===//

TEST(DurableRun, CadenceWritesAndRotatesCheckpoints) {
  std::string Dir = freshDir("cadence");
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  SimOptions Opts = runOpts(/*Cells=*/4, /*Steps=*/35);
  Opts.Checkpoint.Dir = Dir;
  Opts.Checkpoint.EveryN = 10;
  Opts.Checkpoint.Retain = 2;
  Simulator S(*M, Opts);
  S.run();
  EXPECT_FALSE(S.interrupted());
  CheckpointStore Store(Dir, 2);
  std::vector<std::string> Files = Store.list();
  ASSERT_EQ(Files.size(), 2u); // steps 10, 20, 30 written; 2 retained
  EXPECT_NE(Files[0].find("ckpt-000000000020"), std::string::npos);
  EXPECT_NE(Files[1].find("ckpt-000000000030"), std::string::npos);
  std::filesystem::remove_all(Dir);
}

TEST(DurableRun, ShutdownRequestStopsWithFinalCheckpoint) {
  clearShutdownRequest();
  std::string Dir = freshDir("shutdown");
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  SimOptions Opts = runOpts(/*Cells=*/8, /*Steps=*/1000);
  Opts.Checkpoint.Dir = Dir;
  Opts.Checkpoint.EveryN = 400;
  Simulator S(*M, Opts);
  // Deterministic kill-at-step: the injector runs after each completed
  // step, exactly where a SIGTERM would be noticed at the next boundary.
  S.setFaultInjector([](Simulator &Sim) {
    if (Sim.stepsDone() == 123)
      requestShutdown();
  });
  S.run();
  clearShutdownRequest();

  EXPECT_TRUE(S.interrupted());
  EXPECT_EQ(S.stepsDone(), 123);
  CheckpointStore Store(Dir);
  std::string Path;
  Expected<CheckpointData> C = Store.loadNewestValid(&Path);
  ASSERT_TRUE(bool(C)) << C.status().message();
  EXPECT_EQ(C->StepCount, 123);

  // The interrupted run plus a resume must equal the uninterrupted run.
  Simulator Resumed(*M, runOpts(8, 1000));
  ASSERT_TRUE(bool(Resumed.resumeFrom(*C)));
  Resumed.run();
  Simulator Ref(*M, runOpts(8, 1000));
  Ref.run();
  EXPECT_EQ(serializeCheckpoint(Resumed.captureCheckpoint()),
            serializeCheckpoint(Ref.captureCheckpoint()));
  std::filesystem::remove_all(Dir);
}
