//===- SchedulerTests.cpp - sim/Scheduler unit tests ----------------------===//

#include "easyml/Sema.h"
#include "models/Registry.h"
#include "runtime/ThreadPool.h"
#include "sim/CancelToken.h"
#include "sim/Checkpoint.h"
#include "sim/Multimodel.h"
#include "sim/Scheduler.h"
#include "sim/Simulator.h"

#include <atomic>
#include <filesystem>
#include <gtest/gtest.h>
#include <mutex>
#include <thread>
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

TEST(ShardPlan, CoversRangeDisjointlyOnBlockBoundaries) {
  for (int64_t Cells : {1, 7, 64, 131, 4096}) {
    for (unsigned Threads : {1u, 2u, 3u, 8u}) {
      for (unsigned BW : {1u, 4u, 8u}) {
        ShardPlan P = ShardPlan::build(Cells, Threads, BW);
        ASSERT_FALSE(P.Shards.empty());
        int64_t Expect = 0;
        for (const ShardPlan::Shard &S : P.Shards) {
          EXPECT_EQ(S.Begin, Expect); // contiguous and disjoint
          EXPECT_LT(S.Begin, S.End);
          EXPECT_EQ(S.Begin % int64_t(BW), 0); // block-aligned starts
          Expect = S.End;
        }
        EXPECT_EQ(Expect, Cells);
        EXPECT_LE(P.Shards.size(), size_t(Threads));
      }
    }
  }
}

TEST(ShardPlan, MatchesThreadPoolStaticChunkOverBlocks) {
  // The plan must reproduce the pre-refactor driver chunking exactly:
  // staticChunk over whole blocks, clipped to NumCells.
  const int64_t Cells = 131;
  const unsigned Threads = 4, BW = 8;
  ShardPlan P = ShardPlan::build(Cells, Threads, BW);
  int64_t NumBlocks = (Cells + BW - 1) / BW;
  size_t Next = 0;
  for (unsigned I = 0; I != Threads; ++I) {
    int64_t B, E;
    runtime::ThreadPool::staticChunk(0, NumBlocks, I, Threads, B, E);
    if (B >= E)
      continue;
    ASSERT_LT(Next, P.Shards.size());
    EXPECT_EQ(P.Shards[Next].Begin, B * BW);
    EXPECT_EQ(P.Shards[Next].End, std::min(E * int64_t(BW), Cells));
    ++Next;
  }
  EXPECT_EQ(Next, P.Shards.size());
}

TEST(Scheduler, ShardToThreadAssignmentIsStableAcrossSteps) {
  Scheduler Sched(1024, 4, 1);
  ASSERT_EQ(Sched.numShards(), 4u);
  std::vector<std::thread::id> First(4), Second(4);
  Sched.forEachShard([&](unsigned S, int64_t, int64_t) {
    First[S] = std::this_thread::get_id();
  });
  Sched.forEachShard([&](unsigned S, int64_t, int64_t) {
    Second[S] = std::this_thread::get_id();
  });
  for (unsigned S = 0; S != 4; ++S)
    EXPECT_EQ(First[S], Second[S]) << "shard " << S << " migrated";
}

TEST(Scheduler, VoltageStepMatchesSerialLoop) {
  const int64_t Cells = 263;
  std::vector<double> Vm(Cells), Iion(Cells), Ref(Cells);
  for (int64_t C = 0; C != Cells; ++C) {
    Vm[C] = Ref[C] = -80.0 + double(C);
    Iion[C] = 0.125 * double(C);
  }
  Scheduler Sched(Cells, 8, 4);
  Sched.voltageStep(Vm.data(), Iion.data(), 30.0, 0.01);
  for (int64_t C = 0; C != Cells; ++C) {
    Ref[C] += 0.01 * (30.0 - Iion[C]);
    EXPECT_DOUBLE_EQ(Vm[C], Ref[C]) << C;
  }
}

/// Kernels are cell-local, so the same protocol must produce bit-identical
/// populations for any shard count — and for repeated runs.
TEST(Scheduler, SimulatorDeterministicAcrossShardCounts) {
  auto M = compileByName("Courtemanche", EngineConfig::limpetMLIR(4));
  auto RunWith = [&](unsigned Threads) {
    SimOptions Opts;
    Opts.NumCells = 131; // ragged: 131 % 4 != 0
    Opts.NumSteps = 50;
    Opts.NumThreads = Threads;
    Opts.StimStrength = 40.0;
    Simulator S(*M, Opts);
    S.run();
    return S.stateChecksum();
  };
  double Serial = RunWith(1);
  EXPECT_DOUBLE_EQ(RunWith(2), Serial);
  EXPECT_DOUBLE_EQ(RunWith(8), Serial);
  EXPECT_DOUBLE_EQ(RunWith(1), Serial); // repeatable, not just equal once
  EXPECT_DOUBLE_EQ(RunWith(8), Serial);
}

TEST(Scheduler, MultimodelDeterministicAcrossShardCounts) {
  // Threading must not perturb the gather/compute/scatter hook pipeline.
  constexpr const char ParentSrc[] = R"(
Vm; .external(); .nodal();
Iion; .external(); .nodal();
Vm_init = -80.0;
group{ g = 0.3; E = -80.0; }.param();
diff_w = 0.05*((Vm - E) - 4.0*w);
w_init = 0.0;
Iion = g*(Vm - E) + 0.1*w;
)";
  constexpr const char PluginSrc[] = R"(
Vm; .external(); .nodal();
Iion; .external(); .nodal();
w_parent; .external(); .nodal();
group{ k = 0.2; }.param();
diff_mirror = 10.0*(w_parent - mirror);
mirror_init = 0.0;
Iion = Iion + k*w_parent;
)";
  DiagnosticEngine Diags;
  auto ParentInfo = easyml::compileModelInfo("p", ParentSrc, Diags);
  auto PluginInfo = easyml::compileModelInfo("sac", PluginSrc, Diags);
  ASSERT_TRUE(ParentInfo && PluginInfo) << Diags.str();
  auto Parent = CompiledModel::compile(*ParentInfo, EngineConfig::baseline());
  auto Plugin = CompiledModel::compile(*PluginInfo, EngineConfig::baseline());
  ASSERT_TRUE(Parent && Plugin);

  auto RunWith = [&](unsigned Threads) {
    SimOptions Opts;
    Opts.NumCells = 97;
    Opts.NumSteps = 100;
    Opts.NumThreads = Threads;
    Opts.StimStrength = 20.0;
    MultimodelSimulator Multi(*Parent, Opts);
    Multi.addPlugin(*Plugin, {{"w_parent", "w", /*Writable=*/false}});
    Multi.run();
    std::vector<double> Out;
    for (int64_t C = 0; C != Opts.NumCells; ++C) {
      Out.push_back(Multi.vm(C));
      Out.push_back(Multi.parentState(C, 0));
      Out.push_back(Multi.pluginState(0, C, 0));
    }
    return Out;
  };
  std::vector<double> Serial = RunWith(1);
  std::vector<double> Threaded = RunWith(4);
  ASSERT_EQ(Serial.size(), Threaded.size());
  for (size_t I = 0; I != Serial.size(); ++I)
    EXPECT_DOUBLE_EQ(Serial[I], Threaded[I]) << I;
}

//===----------------------------------------------------------------------===//
// Mid-run cancellation (sim/CancelToken, polled at step boundaries)
//===----------------------------------------------------------------------===//

/// A unique, empty temp directory per cancellation case.
std::string cancelDir(const char *Tag) {
  std::string Dir = ::testing::TempDir() + "limpet-cancel-" + Tag + "-" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// Cancelling mid-run stops the simulator at the next step/window
/// boundary with StopReason::Cancelled and a final durable checkpoint,
/// and a fresh simulator resuming from that checkpoint finishes
/// bit-identically to a run that was never cancelled — across shard
/// counts and with the guard rails on or off.
TEST(Cancellation, StopsAtBoundaryAndCheckpointResumesBitIdentically) {
  auto Model = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(Model.has_value());
  constexpr int64_t Cells = 32, Steps = 200, CancelAt = 100;

  for (unsigned Threads : {1u, 2u, 8u}) {
    for (bool Guard : {false, true}) {
      SCOPED_TRACE("threads=" + std::to_string(Threads) +
                   " guard=" + std::to_string(Guard));
      std::string Dir =
          cancelDir((std::to_string(Threads) + (Guard ? "g" : "u")).c_str());

      SimOptions Opts;
      Opts.NumCells = Cells;
      Opts.NumSteps = Steps;
      Opts.NumThreads = Threads;
      Opts.StimPeriod = 20.0;
      Opts.Guard.Enabled = Guard;
      Opts.Checkpoint.Dir = Dir;
      Opts.Checkpoint.EveryN = 24;

      CancelToken Token;
      Opts.Cancel = &Token;
      Simulator S(*Model, Opts);
      S.setFaultInjector([&Token](Simulator &Sim) {
        if (Sim.stepsDone() == CancelAt)
          Token.cancel();
      });
      S.run();

      // Cooperative stop: at the very next boundary (the next step
      // unguarded, the enclosing scan window guarded), never later than
      // the run target.
      EXPECT_TRUE(S.interrupted());
      EXPECT_EQ(S.stopReason(), StopReason::Cancelled);
      EXPECT_GE(S.stepsDone(), CancelAt);
      EXPECT_LT(S.stepsDone(), Steps);
      if (!Guard)
        EXPECT_EQ(S.stepsDone(), CancelAt);

      // The final durable checkpoint captures the interrupted step...
      CheckpointStore Store(Dir);
      Expected<CheckpointData> C = Store.loadNewestValid();
      ASSERT_TRUE(bool(C)) << C.status().message();
      EXPECT_EQ(C->StepCount, S.stepsDone());
      EXPECT_EQ(serializeCheckpoint(*C),
                serializeCheckpoint(S.captureCheckpoint()));

      // ...and resuming from it finishes bit-identically to an
      // uninterrupted run of the same protocol.
      SimOptions Plain;
      Plain.NumCells = Cells;
      Plain.NumSteps = Steps;
      Plain.NumThreads = Threads;
      Plain.StimPeriod = 20.0;
      Plain.Guard.Enabled = Guard;
      Simulator Resumed(*Model, Plain);
      ASSERT_TRUE(Resumed.resumeFrom(*C).isOk());
      Resumed.run();
      EXPECT_FALSE(Resumed.interrupted());
      EXPECT_EQ(Resumed.stepsDone(), Steps);

      Simulator Ref(*Model, Plain);
      Ref.run();
      EXPECT_EQ(serializeCheckpoint(Resumed.captureCheckpoint()),
                serializeCheckpoint(Ref.captureCheckpoint()));

      std::filesystem::remove_all(Dir);
    }
  }
}

/// A cancel before the first step still stops at the first boundary and
/// leaves a resumable checkpoint — the "cancel raced the dispatch" shape
/// the daemon hits when a client cancels a job the instant it starts.
TEST(Cancellation, ImmediateCancelStopsAtFirstBoundary) {
  auto Model = compileByName("HodgkinHuxley", EngineConfig::baseline());
  ASSERT_TRUE(Model.has_value());
  std::string Dir = cancelDir("immediate");

  SimOptions Opts;
  Opts.NumCells = 8;
  Opts.NumSteps = 100;
  Opts.StimPeriod = 20.0;
  Opts.Checkpoint.Dir = Dir;

  CancelToken Token;
  Token.cancel();
  Opts.Cancel = &Token;
  Simulator S(*Model, Opts);
  S.run();
  EXPECT_TRUE(S.interrupted());
  EXPECT_EQ(S.stopReason(), StopReason::Cancelled);
  EXPECT_LE(S.stepsDone(), 1);
  Expected<CheckpointData> C = CheckpointStore(Dir).loadNewestValid();
  ASSERT_TRUE(bool(C)) << C.status().message();
  EXPECT_EQ(C->StepCount, S.stepsDone());
  std::filesystem::remove_all(Dir);
}

/// An unarmed token is free: a run with a token that never fires is
/// bit-identical to a run with no token at all.
TEST(Cancellation, UnarmedTokenDoesNotPerturbTheRun) {
  auto Model = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(Model.has_value());
  SimOptions Opts;
  Opts.NumCells = 16;
  Opts.NumSteps = 100;
  Opts.StimPeriod = 20.0;

  CancelToken Token;
  SimOptions WithToken = Opts;
  WithToken.Cancel = &Token;
  Simulator A(*Model, WithToken);
  A.run();
  Simulator B(*Model, Opts);
  B.run();
  EXPECT_FALSE(A.interrupted());
  EXPECT_EQ(A.stopReason(), StopReason::None);
  EXPECT_EQ(serializeCheckpoint(A.captureCheckpoint()),
            serializeCheckpoint(B.captureCheckpoint()));
}

//===----------------------------------------------------------------------===//
// Multi-stage StagePlan (Strang pipeline plumbing)
//===----------------------------------------------------------------------===//

/// The stage barrier: every shard of stage A completes before any shard
/// of stage B starts — B's hooks must observe A fully applied across the
/// whole range, not just their own shard.
TEST(StagePlan, BarrierOrdersStagesAcrossShards) {
  const int64_t Cells = 1000;
  Scheduler Sched(Cells, 8, 1);
  const unsigned Shards = Sched.numShards();
  ASSERT_GT(Shards, 1u);

  std::vector<double> Field(Cells, 0.0);
  std::atomic<unsigned> ADone{0};
  std::atomic<bool> BSawPartialA{false};

  PipelineStage A;
  A.Name = "publish";
  A.Run = [&](unsigned, int64_t Begin, int64_t End) {
    for (int64_t I = Begin; I != End; ++I)
      Field[size_t(I)] = 1.0;
    ADone.fetch_add(1, std::memory_order_acq_rel);
  };
  PipelineStage B;
  B.Name = "apply";
  B.Run = [&](unsigned, int64_t, int64_t) {
    // Any shard of B running before all of A finished is a barrier bug.
    if (ADone.load(std::memory_order_acquire) != Shards)
      BSawPartialA.store(true);
    for (double V : Field)
      if (V != 1.0)
        BSawPartialA.store(true);
  };
  StagePlan Plan;
  Plan.Stages.push_back(A);
  Plan.Stages.push_back(B);

  for (int Rep = 0; Rep != 50; ++Rep) {
    std::fill(Field.begin(), Field.end(), 0.0);
    ADone.store(0);
    Sched.runPlan(Plan, 0.01, 0.0);
    EXPECT_FALSE(BSawPartialA.load()) << "rep " << Rep;
  }
}

/// Stage hooks see exactly the persistent shard partition — the same
/// (Shard, Begin, End) triples the kernel path uses — and a plan's
/// stages run in declaration order.
TEST(StagePlan, HooksSeeShardRangesInStageOrder) {
  const int64_t Cells = 131;
  Scheduler Sched(Cells, 4, 1);
  struct Seen {
    std::string Stage;
    unsigned Shard;
    int64_t Begin, End;
  };
  std::mutex Mu;
  std::vector<Seen> Log;
  auto Hook = [&](const char *Name) {
    return [&, Name](unsigned Shard, int64_t Begin, int64_t End) {
      std::lock_guard<std::mutex> Lock(Mu);
      Log.push_back({Name, Shard, Begin, End});
    };
  };
  StagePlan Plan;
  PipelineStage S1, S2, S3;
  S1.Name = "one";
  S1.Run = Hook("one");
  S2.Name = "two";
  S2.Run = Hook("two");
  S3.Name = "three";
  S3.Run = Hook("three");
  Plan.Stages = {S1, S2, S3};
  Sched.runPlan(Plan, 0.01, 0.0);

  const ShardPlan &P = Sched.plan();
  ASSERT_EQ(Log.size(), 3 * P.Shards.size());
  const char *Order[] = {"one", "two", "three"};
  for (size_t Stage = 0; Stage != 3; ++Stage) {
    std::vector<bool> Covered(P.Shards.size(), false);
    for (size_t I = Stage * P.Shards.size();
         I != (Stage + 1) * P.Shards.size(); ++I) {
      EXPECT_EQ(Log[I].Stage, Order[Stage]);
      ASSERT_LT(Log[I].Shard, P.Shards.size());
      EXPECT_EQ(Log[I].Begin, P.Shards[Log[I].Shard].Begin);
      EXPECT_EQ(Log[I].End, P.Shards[Log[I].Shard].End);
      Covered[Log[I].Shard] = true;
    }
    for (bool C : Covered)
      EXPECT_TRUE(C);
  }
}

/// An empty plan and a stage with neither kernels nor a hook are both
/// harmless no-ops.
TEST(StagePlan, EmptyStagesAreNoOps) {
  Scheduler Sched(64, 2, 1);
  StagePlan Empty;
  Sched.runPlan(Empty, 0.01, 0.0);
  PipelineStage Hollow;
  Hollow.Name = "hollow";
  StagePlan P;
  P.Stages.push_back(Hollow);
  Sched.runPlan(P, 0.01, 0.0); // must not crash or deadlock
  SUCCEED();
}

TEST(Scheduler, RebuildRealignsToNewBlockWidth) {
  Scheduler Sched(100, 4, 1);
  EXPECT_EQ(Sched.plan().BlockWidth, 1u);
  Sched.rebuild(8);
  EXPECT_EQ(Sched.plan().BlockWidth, 8u);
  for (const ShardPlan::Shard &S : Sched.plan().Shards)
    EXPECT_EQ(S.Begin % 8, 0);
  EXPECT_EQ(Sched.plan().Shards.back().End, 100);
}

} // namespace
