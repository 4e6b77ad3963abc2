//===- CompilerDriverTests.cpp - staged driver + compile cache tests ------===//
//
// Covers the CompilerDriver tentpole: stage records and snapshots,
// recoverable errors at every stage (frontend garbage, bogus pass
// pipelines), content-addressed cache hits/misses and their invalidation
// rules (source, config, pipeline, format version), corrupt disk entries
// falling back to a clean recompile, and the acceptance property that an
// artifact round trip simulates bit-identically to a fresh compile across
// layouts and vector widths.
//
//===----------------------------------------------------------------------===//

#include "compiler/CompileCache.h"
#include "compiler/CompilerDriver.h"
#include "compiler/Serialize.h"
#include "models/Registry.h"
#include "sim/Simulator.h"
#include "support/Telemetry.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <unistd.h>

using namespace limpet;
using namespace limpet::compiler;
using namespace limpet::exec;

namespace {

const models::ModelEntry &entry(const char *Name) {
  const models::ModelEntry *E = models::findModel(Name);
  EXPECT_NE(E, nullptr) << Name;
  return *E;
}

/// Every cache-facing test starts from a clean process-wide cache with the
/// disk tier off, so LIMPET_CACHE_DIR in the environment cannot leak in.
void resetCache() {
  CompileCache::global().setDiskDir("");
  CompileCache::global().clearMemory();
}

CompilerDriver makeDriver(const EngineConfig &Cfg, bool UseCache = true) {
  DriverOptions Opts;
  Opts.Config = Cfg;
  Opts.UseCache = UseCache;
  return CompilerDriver(Opts);
}

/// Runs a short but nontrivial simulation and returns the full per-cell
/// state (plus Vm) for bitwise comparison.
std::vector<double> simulate(const CompiledModel &M) {
  sim::SimOptions Opts;
  Opts.NumCells = 19; // odd on purpose: exercises AoSoA tail padding
  Opts.NumSteps = 40;
  Opts.StimPeriod = 0.0;
  sim::Simulator S(M, Opts);
  S.run();
  std::vector<double> Out;
  for (int64_t C = 0; C != Opts.NumCells; ++C) {
    Out.push_back(S.vm(C));
    for (int64_t Sv = 0; Sv != int64_t(M.info().StateVars.size()); ++Sv)
      Out.push_back(S.stateOf(C, Sv));
  }
  Out.push_back(S.stateChecksum());
  return Out;
}

/// Bitwise equality (NaN-safe, unlike vector<double>::operator==).
bool bitIdentical(const std::vector<double> &A, const std::vector<double> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I) {
    uint64_t Ba, Bb;
    std::memcpy(&Ba, &A[I], 8);
    std::memcpy(&Bb, &B[I], 8);
    if (Ba != Bb)
      return false;
  }
  return true;
}

TEST(StageNames, RoundTripAndList) {
  for (unsigned I = 0; I != kNumStages; ++I) {
    Stage S = Stage(I);
    std::optional<Stage> Back = stageFromName(stageName(S));
    ASSERT_TRUE(Back.has_value()) << stageName(S);
    EXPECT_EQ(*Back, S);
  }
  EXPECT_FALSE(stageFromName("no-such-stage").has_value());
  EXPECT_NE(stageNameList().find("emit-bytecode"), std::string::npos);
  EXPECT_TRUE(isCodegenStage(Stage::EmitIR));
  EXPECT_TRUE(isCodegenStage(Stage::EmitBytecode));
  EXPECT_FALSE(isCodegenStage(Stage::LutAnalysis));
}

TEST(CompilerDriver, ColdCompileRecordsAllStages) {
  resetCache();
  CompilerDriver Driver = makeDriver(EngineConfig::limpetMLIR(4), false);
  CompileResult R = Driver.compileEntry(entry("HodgkinHuxley"));
  ASSERT_TRUE(bool(R)) << R.Err.message();
  EXPECT_FALSE(R.CacheHit);
  EXPECT_GT(R.TotalNs, 0u);
  // Every stage must appear, in pipeline order (Opt may repeat for the
  // vectorized clone).
  std::vector<Stage> Seen;
  for (const StageRecord &Rec : R.Stages)
    Seen.push_back(Rec.S);
  std::vector<Stage> Expect = {Stage::Frontend,  Stage::Preprocess,
                               Stage::Integrator, Stage::LutAnalysis,
                               Stage::EmitIR,     Stage::Opt,
                               Stage::Vectorize,  Stage::Opt,
                               Stage::EmitBytecode};
  EXPECT_EQ(Seen, Expect);
}

TEST(CompilerDriver, ScalarCompileSkipsVectorize) {
  resetCache();
  CompilerDriver Driver = makeDriver(EngineConfig::baseline(), false);
  CompileResult R = Driver.compileEntry(entry("HodgkinHuxley"));
  ASSERT_TRUE(bool(R)) << R.Err.message();
  for (const StageRecord &Rec : R.Stages)
    EXPECT_NE(Rec.S, Stage::Vectorize);
}

TEST(CompilerDriver, SnapshotsCaptureStageOutput) {
  resetCache();
  DriverOptions Opts;
  Opts.Config = EngineConfig::limpetMLIR(4);
  Opts.UseCache = false;
  Opts.SnapshotAll = true;
  CompilerDriver Driver(Opts);
  CompileResult R = Driver.compileEntry(entry("BeelerReuter"));
  ASSERT_TRUE(bool(R)) << R.Err.message();
  for (const StageRecord &Rec : R.Stages)
    EXPECT_FALSE(Rec.Snapshot.empty())
        << "missing snapshot after " << stageName(Rec.S);
  // The IR stages snapshot real IR; bytecode snapshots a disassembly.
  bool SawIR = false, SawBytecode = false;
  for (const StageRecord &Rec : R.Stages) {
    if (Rec.S == Stage::EmitIR)
      SawIR = Rec.Snapshot.find("func") != std::string::npos;
    if (Rec.S == Stage::EmitBytecode)
      SawBytecode = !Rec.Snapshot.empty();
  }
  EXPECT_TRUE(SawIR);
  EXPECT_TRUE(SawBytecode);
}

TEST(CompilerDriver, SelectiveSnapshot) {
  resetCache();
  DriverOptions Opts;
  Opts.Config = EngineConfig::baseline();
  Opts.UseCache = false;
  Opts.SnapshotStages = {Stage::Opt};
  CompilerDriver Driver(Opts);
  CompileResult R = Driver.compileEntry(entry("HodgkinHuxley"));
  ASSERT_TRUE(bool(R)) << R.Err.message();
  for (const StageRecord &Rec : R.Stages) {
    if (Rec.S == Stage::Opt)
      EXPECT_FALSE(Rec.Snapshot.empty());
    else
      EXPECT_TRUE(Rec.Snapshot.empty());
  }
}

TEST(CompilerDriver, FrontendErrorIsRecoverable) {
  resetCache();
  CompilerDriver Driver = makeDriver(EngineConfig::baseline(), false);
  CompileResult R = Driver.compileSource("Broken", "this is not easyml ((");
  EXPECT_FALSE(bool(R));
  EXPECT_NE(R.Err.message().find("frontend"), std::string::npos)
      << R.Err.message();
}

TEST(CompilerDriver, BogusPassPipelineIsRecoverable) {
  resetCache();
  EngineConfig Cfg = EngineConfig::limpetMLIR(4);
  Cfg.PassPipeline = "cse,definitely-not-a-pass,dce";
  CompilerDriver Driver = makeDriver(Cfg, false);
  CompileResult R = Driver.compileEntry(entry("HodgkinHuxley"));
  EXPECT_FALSE(bool(R));
  EXPECT_NE(R.Err.message().find("opt"), std::string::npos)
      << R.Err.message();
}

TEST(CompilerDriver, CustomPassPipelineCompilesAndRuns) {
  resetCache();
  EngineConfig Cfg = EngineConfig::limpetMLIR(4);
  Cfg.PassPipeline = "if-to-select,canonicalize,cse,licm,dce";
  CompilerDriver Driver = makeDriver(Cfg, false);
  CompileResult R = Driver.compileEntry(entry("HodgkinHuxley"));
  ASSERT_TRUE(bool(R)) << R.Err.message();
  // The custom pipeline is the default one spelled out, so the result
  // must simulate identically to the default-pipeline compile.
  CompilerDriver Default = makeDriver(EngineConfig::limpetMLIR(4), false);
  CompileResult D = Default.compileEntry(entry("HodgkinHuxley"));
  ASSERT_TRUE(bool(D)) << D.Err.message();
  EXPECT_TRUE(bitIdentical(simulate(*R.Model), simulate(*D.Model)));
}

TEST(CompileCacheKey, InvalidationRules) {
  EngineConfig Cfg = EngineConfig::limpetMLIR(8);
  const std::string Source = entry("HodgkinHuxley").Source;
  uint64_t Base = compileCacheKey(Source, Cfg);

  // Any source edit (even whitespace) changes the key.
  EXPECT_NE(compileCacheKey(Source + " ", Cfg), Base);

  // Any config field changes the key.
  EngineConfig C2 = Cfg;
  C2.Width = 4;
  EXPECT_NE(compileCacheKey(Source, C2), Base);
  C2 = Cfg;
  C2.EnableLuts = !C2.EnableLuts;
  EXPECT_NE(compileCacheKey(Source, C2), Base);
  C2 = Cfg;
  C2.Layout = codegen::StateLayout::AoS;
  EXPECT_NE(compileCacheKey(Source, C2), Base);

  // The pass pipeline string is part of the key.
  C2 = Cfg;
  C2.PassPipeline = "cse,dce";
  EXPECT_NE(compileCacheKey(Source, C2), Base);

  // Same inputs, same key (it is a pure content address).
  EXPECT_EQ(compileCacheKey(Source, Cfg), Base);
}

TEST(CompileCache, MemoryHitSkipsCodegenStages) {
  resetCache();
  CompilerDriver Driver = makeDriver(EngineConfig::limpetMLIR(8));
  CompileResult Cold = Driver.compileEntry(entry("HodgkinHuxley"));
  ASSERT_TRUE(bool(Cold)) << Cold.Err.message();
  EXPECT_FALSE(Cold.CacheHit);
  EXPECT_EQ(CompileCache::global().memorySize(), 1u);

  uint64_t EmitBefore =
      telemetry::Registry::instance().value("compile.stage.emit-ir.count");
  CompileResult Warm = Driver.compileEntry(entry("HodgkinHuxley"));
  ASSERT_TRUE(bool(Warm)) << Warm.Err.message();
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_FALSE(Warm.DiskHit);
  EXPECT_EQ(Warm.CacheKey, Cold.CacheKey);
  // Zero codegen work on the warm path: no emit-ir stage ran, and the
  // stage records stop after lut-analysis.
  EXPECT_EQ(telemetry::Registry::instance().value("compile.stage.emit-ir.count"),
            EmitBefore);
  for (const StageRecord &Rec : Warm.Stages)
    EXPECT_FALSE(isCodegenStage(Rec.S))
        << "warm compile ran codegen stage " << stageName(Rec.S);
  // And the warm model is bit-identical in simulation.
  EXPECT_TRUE(bitIdentical(simulate(*Cold.Model), simulate(*Warm.Model)));
}

TEST(CompileCache, DifferentConfigMisses) {
  resetCache();
  CompilerDriver D8 = makeDriver(EngineConfig::limpetMLIR(8));
  ASSERT_TRUE(bool(D8.compileEntry(entry("HodgkinHuxley"))));
  CompilerDriver D4 = makeDriver(EngineConfig::limpetMLIR(4));
  CompileResult R = D4.compileEntry(entry("HodgkinHuxley"));
  ASSERT_TRUE(bool(R)) << R.Err.message();
  EXPECT_FALSE(R.CacheHit) << "width change must be a cache miss";
  EXPECT_EQ(CompileCache::global().memorySize(), 2u);
}

TEST(CompileCache, DiskTierWarmStartAndCorruptFallback) {
  resetCache();
  std::string Dir = ::testing::TempDir() + "limpet-cache-" +
                    std::to_string(::getpid());
  std::filesystem::create_directories(Dir);
  CompileCache::global().setDiskDir(Dir);

  CompilerDriver Driver = makeDriver(EngineConfig::limpetMLIR(4));
  CompileResult Cold = Driver.compileEntry(entry("BeelerReuter"));
  ASSERT_TRUE(bool(Cold)) << Cold.Err.message();
  std::string Path = CompileCache::global().diskPath(Cold.CacheKey);
  ASSERT_FALSE(Path.empty());
  EXPECT_TRUE(std::filesystem::exists(Path)) << Path;

  // Simulate a fresh process: memory tier empty, disk tier warm.
  CompileCache::global().clearMemory();
  CompileResult Warm = Driver.compileEntry(entry("BeelerReuter"));
  ASSERT_TRUE(bool(Warm)) << Warm.Err.message();
  EXPECT_TRUE(Warm.CacheHit);
  EXPECT_TRUE(Warm.DiskHit);
  EXPECT_TRUE(bitIdentical(simulate(*Cold.Model), simulate(*Warm.Model)));

  // Corrupt the disk entry: the next cold start must fall back to a clean
  // recompile (a miss, not an error), then overwrite the bad entry.
  CompileCache::global().clearMemory();
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << "garbage";
  }
  CompileResult Recovered = Driver.compileEntry(entry("BeelerReuter"));
  ASSERT_TRUE(bool(Recovered)) << Recovered.Err.message();
  EXPECT_FALSE(Recovered.CacheHit);
  EXPECT_TRUE(bitIdentical(simulate(*Cold.Model), simulate(*Recovered.Model)));

  // Truncated (zero-byte) entry behaves the same.
  CompileCache::global().clearMemory();
  {
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
  }
  CompileResult Again = Driver.compileEntry(entry("BeelerReuter"));
  ASSERT_TRUE(bool(Again)) << Again.Err.message();
  EXPECT_FALSE(Again.CacheHit);

  resetCache();
  std::filesystem::remove_all(Dir);
}

TEST(CompileSuite, ParallelResultsArePositional) {
  resetCache();
  std::vector<const models::ModelEntry *> Entries = {
      &entry("HodgkinHuxley"), &entry("BeelerReuter"), &entry("Plonsey"),
      &entry("ISAC_Hu")};
  CompilerDriver Driver = makeDriver(EngineConfig::limpetMLIR(8));
  std::vector<CompileResult> Results = Driver.compileSuite(Entries);
  ASSERT_EQ(Results.size(), Entries.size());
  for (size_t I = 0; I != Results.size(); ++I) {
    ASSERT_TRUE(bool(Results[I]))
        << Entries[I]->Name << ": " << Results[I].Err.message();
    EXPECT_EQ(Results[I].ModelName, Entries[I]->Name);
  }
}

TEST(ArtifactLoad, BitIdenticalAcrossLayoutsAndWidths) {
  // The acceptance property: compile -> serialize -> deserialize -> load
  // simulates bit-identically to the fresh compile, for every layout x
  // width combination the engine supports.
  resetCache();
  const models::ModelEntry &E = entry("BeelerReuter");
  std::vector<EngineConfig> Configs = {
      EngineConfig::baseline(),    EngineConfig::limpetMLIR(2),
      EngineConfig::limpetMLIR(4), EngineConfig::limpetMLIR(8),
      EngineConfig::autoVecLike(4)};
  for (const EngineConfig &Cfg : Configs) {
    CompilerDriver Driver = makeDriver(Cfg, false);
    CompileResult Fresh = Driver.compileEntry(E);
    ASSERT_TRUE(bool(Fresh)) << engineConfigName(Cfg) << ": "
                             << Fresh.Err.message();
    Artifact A =
        CompilerDriver::makeArtifact(*Fresh.Model, E.Name, Fresh.SourceHash);
    Expected<Artifact> B = deserializeArtifact(serializeArtifact(A));
    ASSERT_TRUE(bool(B)) << B.status().message();
    CompileResult Loaded = Driver.loadArtifact(*B, E.Name, E.Source);
    ASSERT_TRUE(bool(Loaded)) << engineConfigName(Cfg) << ": "
                              << Loaded.Err.message();
    EXPECT_TRUE(Loaded.CacheHit);
    for (const StageRecord &Rec : Loaded.Stages)
      EXPECT_FALSE(isCodegenStage(Rec.S));
    EXPECT_TRUE(bitIdentical(simulate(*Fresh.Model), simulate(*Loaded.Model)))
        << "artifact simulation diverged under " << engineConfigName(Cfg);
  }
}

TEST(ArtifactLoad, RejectsWrongSourceOrName) {
  resetCache();
  const models::ModelEntry &E = entry("HodgkinHuxley");
  CompilerDriver Driver = makeDriver(EngineConfig::baseline(), false);
  CompileResult Fresh = Driver.compileEntry(E);
  ASSERT_TRUE(bool(Fresh)) << Fresh.Err.message();
  Artifact A =
      CompilerDriver::makeArtifact(*Fresh.Model, E.Name, Fresh.SourceHash);

  CompileResult WrongSource =
      Driver.loadArtifact(A, E.Name, entry("BeelerReuter").Source);
  EXPECT_FALSE(bool(WrongSource));
  EXPECT_NE(WrongSource.Err.message().find("hash"), std::string::npos)
      << WrongSource.Err.message();

  CompileResult WrongName = Driver.loadArtifact(A, "BeelerReuter", E.Source);
  EXPECT_FALSE(bool(WrongName));
  EXPECT_NE(WrongName.Err.message().find("model"), std::string::npos)
      << WrongName.Err.message();
}

TEST(ArtifactLoad, RejectsTamperedProgram) {
  resetCache();
  const models::ModelEntry &E = entry("HodgkinHuxley");
  CompilerDriver Driver = makeDriver(EngineConfig::baseline(), false);
  CompileResult Fresh = Driver.compileEntry(E);
  ASSERT_TRUE(bool(Fresh)) << Fresh.Err.message();
  Artifact A =
      CompilerDriver::makeArtifact(*Fresh.Model, E.Name, Fresh.SourceHash);
  // A structurally valid but inconsistent artifact (wrong state count for
  // this model) must be rejected by assembly validation.
  A.Program.NumSv += 1;
  CompileResult R = Driver.loadArtifact(A, E.Name, E.Source);
  EXPECT_FALSE(bool(R));
  EXPECT_NE(R.Err.message().find("artifact"), std::string::npos)
      << R.Err.message();
}

TEST(ArtifactLoad, RejectsOutOfRangeOpcodeAndOperands) {
  // An artifact that still checksums can carry any opcode byte or operand
  // index. Assembly checks each instruction against its op's shape, so a
  // bad one fails to load and the disk tier falls back to a clean
  // recompile instead of handing the VM a raw out-of-range index.
  resetCache();
  std::string Dir = ::testing::TempDir() + "limpet-validate-" +
                    std::to_string(::getpid());
  std::filesystem::create_directories(Dir);
  CompileCache::global().setDiskDir(Dir);
  const models::ModelEntry &E = entry("HodgkinHuxley");
  CompilerDriver Driver = makeDriver(EngineConfig::limpetMLIR(8));
  CompileResult Fresh = Driver.compileEntry(E);
  ASSERT_TRUE(bool(Fresh)) << Fresh.Err.message();
  const std::string Path = CompileCache::global().diskPath(Fresh.CacheKey);
  ASSERT_TRUE(std::filesystem::exists(Path)) << Path;
  const Artifact Good =
      CompilerDriver::makeArtifact(*Fresh.Model, E.Name, Fresh.SourceHash);

  auto FirstOf = [&](BcOp Op) {
    for (size_t I = 0; I != Good.Program.Body.size(); ++I)
      if (Good.Program.Body[I].Op == Op)
        return I;
    ADD_FAILURE() << bcOpName(Op) << " not in the program";
    return size_t(0);
  };
  const size_t Load = FirstOf(BcOp::LoadState);
  const size_t Interp = FirstOf(BcOp::LutInterp);
  struct Case {
    const char *Error;
    std::function<void(BcProgram &)> Break;
  } Cases[] = {
      {"unknown opcode",
       [&](BcProgram &P) { P.Body[Load].Op = BcOp(kNumBcOps); }},
      {"past the register file",
       [&](BcProgram &P) { P.Body[Load].Dst = uint16_t(P.NumRegs); }},
      {"past the columns",
       [&](BcProgram &P) {
         BcInstr &I = P.Body[Interp];
         I.Aux2 = Good.Luts.Tables[size_t(I.Aux)].cols();
       }},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Error);
    Artifact Bad = Good;
    C.Break(Bad.Program);
    std::string Bytes = serializeArtifact(Bad);
    Expected<Artifact> Read = deserializeArtifact(Bytes);
    ASSERT_TRUE(bool(Read)) << Read.status().message();

    CompileResult Loaded = Driver.loadArtifact(*Read, E.Name, E.Source);
    EXPECT_FALSE(bool(Loaded));
    EXPECT_NE(Loaded.Err.message().find(C.Error), std::string::npos)
        << Loaded.Err.message();

    // The same bytes in the disk tier: a miss and a clean recompile.
    ASSERT_TRUE(bool(writeFileAtomic(Bytes, Path)));
    CompileCache::global().clearMemory();
    CompileResult Recompiled = Driver.compileEntry(E);
    ASSERT_TRUE(bool(Recompiled)) << Recompiled.Err.message();
    EXPECT_FALSE(Recompiled.CacheHit);
    if (!Recompiled.CacheHit)
      EXPECT_TRUE(
          bitIdentical(simulate(*Fresh.Model), simulate(*Recompiled.Model)));
  }
  resetCache();
  std::filesystem::remove_all(Dir);
}

} // namespace
