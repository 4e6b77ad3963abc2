//===- AutotuneTests.cpp - compiler/Autotuner unit tests ------------------===//
//
// Covers the tuning-record wire format (round-trip, truncation at every
// prefix, bit flips, version skew), the key-invalidation rules, the
// backend registry probe for every named ISA, bit-identical exact-mode
// results across every selectable point, and deterministic selection
// under LIMPET_TUNE_FORCE.
//
//===----------------------------------------------------------------------===//

#include "compiler/Artifact.h"
#include "compiler/Autotuner.h"
#include "easyml/Sema.h"
#include "exec/Backend.h"
#include "exec/CompiledModel.h"
#include "sim/Simulator.h"
#include "support/CpuCaps.h"

#include <cstdlib>
#include <cstring>
#include <gtest/gtest.h>

using namespace limpet;
using namespace limpet::codegen;
using namespace limpet::compiler;

namespace {

// These tests reason about the in-process fallback chain, so pin the
// environment before anything memoizes it (the compile cache snapshots
// LIMPET_CACHE_DIR on first use, the registry LIMPET_CPU_CAPS).
const bool EnvCleared = [] {
  unsetenv("LIMPET_CACHE_DIR");
  unsetenv("LIMPET_TUNE_FORCE");
  unsetenv("LIMPET_CPU_CAPS");
  return true;
}();

constexpr const char TestModel[] = R"(
Vm; .external(); .nodal();
Iion; .external();
group{ g = 0.5; E = -80.0; }.param();
Vm_init = -80.0;
rate = exp(Vm/30.0)/(1.0+exp(Vm/15.0));
diff_w = rate*(1.0-w) - 0.3*w;
w_init = 0.25;
diff_c = 0.01*(1.0 - c) - 0.001*Vm;
c_init = 1.0;
Iion = g*(Vm - E)*w + c*0.1;
)";

easyml::ModelInfo testInfo() {
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo("test", TestModel, Diags);
  EXPECT_TRUE(Info.has_value()) << Diags.str();
  return *Info;
}

/// Restores (or unsets) an environment variable on scope exit.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    setenv(Name, Value, 1);
  }
  ~ScopedEnv() { unsetenv(Name); }

private:
  const char *Name;
};

TuningRecord sampleRecord() {
  TuningRecord R;
  R.TuneKey = 0x0123456789abcdefULL;
  R.RegistryFingerprint = 0xfedcba9876543210ULL;
  R.ModelName = "HodgkinHuxley";
  R.Best = TunePoint{StateLayout::AoSoA, 8, exec::EngineTier::VM};
  R.BestRate = 1.25e7;
  R.Measurements = {{"aos/w1/vm", 3.0e6},
                    {"aosoa/w8/vm", 1.25e7},
                    {"soa/w4/native", 9.5e6}};
  return R;
}

TEST(TunePoint, NameRoundTrip) {
  for (StateLayout L : {StateLayout::AoS, StateLayout::SoA,
                        StateLayout::AoSoA})
    for (unsigned W : {1u, 2u, 4u, 8u, 16u})
      for (exec::EngineTier T :
           {exec::EngineTier::VM, exec::EngineTier::Native}) {
        TunePoint P{L, W, T};
        std::optional<TunePoint> Back = TunePoint::fromName(P.name());
        ASSERT_TRUE(Back.has_value()) << P.name();
        EXPECT_EQ(*Back, P) << P.name();
      }
}

TEST(TunePoint, FromNameRejectsGarbage) {
  for (const char *Bad :
       {"", "aosoa", "aosoa/w8", "aosoa/8/vm", "aosoa/w/vm", "aosoa/w0/vm",
        "aosoa/w8/jit", "blocked/w8/vm", "aosoa/w8/vm/extra", "aosoa/wx/vm",
        "aosoa/w99999/vm"})
    EXPECT_FALSE(TunePoint::fromName(Bad).has_value()) << Bad;
  // "vm/extra" parses the tier as "vm/extra": reject. But trailing junk
  // inside the width digits must also reject.
  EXPECT_FALSE(TunePoint::fromName("aos/w4x/vm").has_value());
}

TEST(TuningRecord, SerializeRoundTrip) {
  TuningRecord R = sampleRecord();
  std::string Bytes = R.serialize();
  std::string Error;
  std::optional<TuningRecord> Back = TuningRecord::deserialize(Bytes, &Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->TuneKey, R.TuneKey);
  EXPECT_EQ(Back->RegistryFingerprint, R.RegistryFingerprint);
  EXPECT_EQ(Back->ModelName, R.ModelName);
  EXPECT_EQ(Back->Best, R.Best);
  EXPECT_EQ(Back->BestRate, R.BestRate);
  ASSERT_EQ(Back->Measurements.size(), R.Measurements.size());
  for (size_t I = 0; I != R.Measurements.size(); ++I) {
    EXPECT_EQ(Back->Measurements[I].Point, R.Measurements[I].Point);
    EXPECT_EQ(Back->Measurements[I].CellStepsPerSec,
              R.Measurements[I].CellStepsPerSec);
  }
}

TEST(TuningRecord, TruncationAtEveryPrefixIsRecoverable) {
  std::string Bytes = sampleRecord().serialize();
  for (size_t Len = 0; Len != Bytes.size(); ++Len)
    EXPECT_FALSE(
        TuningRecord::deserialize(std::string_view(Bytes).substr(0, Len))
            .has_value())
        << "prefix of " << Len << " bytes parsed";
}

TEST(TuningRecord, EveryByteFlipIsDetected) {
  std::string Bytes = sampleRecord().serialize();
  for (size_t I = 0; I != Bytes.size(); ++I) {
    std::string Bad = Bytes;
    Bad[I] = char(Bad[I] ^ 0x5a);
    EXPECT_FALSE(TuningRecord::deserialize(Bad).has_value())
        << "flip at byte " << I << " parsed";
  }
}

TEST(TuningRecord, VersionSkewIsStale) {
  std::string Bytes = sampleRecord().serialize();
  // Patch the version field (bytes 4..8) and re-seal the checksum so only
  // the version mismatch can reject it.
  uint32_t Bumped = kTunerVersion + 1;
  std::memcpy(Bytes.data() + 4, &Bumped, 4);
  std::string_view Body(Bytes.data(), Bytes.size() - 8);
  uint64_t Sum = fnv1a64(Body);
  std::memcpy(Bytes.data() + Bytes.size() - 8, &Sum, 8);
  std::string Error;
  EXPECT_FALSE(TuningRecord::deserialize(Bytes, &Error).has_value());
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(TuneKey, InvalidationRules) {
  exec::EngineConfig Base = exec::EngineConfig::autoTuned();
  uint64_t Fp = 0x1111222233334444ULL;
  uint64_t K = tuneKey(TestModel, Base, false, Fp);

  // Stable: same inputs, same key.
  EXPECT_EQ(tuneKey(TestModel, Base, false, Fp), K);

  // The tuned axes are the record's output, never its key.
  exec::EngineConfig C = Base;
  C.Width = 8;
  C.Layout = StateLayout::SoA;
  EXPECT_EQ(tuneKey(TestModel, C, false, Fp), K);

  // Every non-tuned axis invalidates.
  C = Base;
  C.FastMath = !C.FastMath;
  EXPECT_NE(tuneKey(TestModel, C, false, Fp), K);
  C = Base;
  C.EnableLuts = !C.EnableLuts;
  EXPECT_NE(tuneKey(TestModel, C, false, Fp), K);
  C = Base;
  C.CubicLut = !C.CubicLut;
  EXPECT_NE(tuneKey(TestModel, C, false, Fp), K);
  C = Base;
  C.RunPasses = !C.RunPasses;
  EXPECT_NE(tuneKey(TestModel, C, false, Fp), K);
  C = Base;
  C.PassPipeline = "cse,dce";
  EXPECT_NE(tuneKey(TestModel, C, false, Fp), K);

  // So do the source, the native allowance and the registry fingerprint.
  EXPECT_NE(tuneKey("other source", Base, false, Fp), K);
  EXPECT_NE(tuneKey(TestModel, Base, true, Fp), K);
  EXPECT_NE(tuneKey(TestModel, Base, false, Fp + 1), K);
}

TEST(BackendRegistry, ProbesEveryNamedIsa) {
  for (const char *Isa :
       {"scalar", "sse2", "neon", "avx2", "avx512", "generic"}) {
    std::optional<support::CpuCaps> CapsOpt = support::cpuCapsFromName(Isa);
    ASSERT_TRUE(CapsOpt.has_value()) << Isa;
    const support::CpuCaps &Caps = *CapsOpt;
    exec::BackendRegistry Reg = exec::BackendRegistry::forCaps(Caps);
    // Widths 1-8 are the portable floor on every host.
    for (unsigned W : {1u, 2u, 4u, 8u})
      EXPECT_TRUE(Reg.supportsWidth(W)) << Isa << " w" << W;
    EXPECT_FALSE(Reg.supportsWidth(3)) << Isa;
    // The probe only widens the menu: width 16 appears exactly where two
    // full native vectors exceed width 8, as the template instantiation.
    EXPECT_EQ(Reg.supportsWidth(16), Caps.MaxLanesF64 * 2 > 8) << Isa;
    if (const exec::Backend *W16 = Reg.find(16, true)) {
      EXPECT_EQ(W16->name(), "vec16/vecmath") << Isa;
    }
    const exec::Backend *Scalar = Reg.find(1, false);
    ASSERT_NE(Scalar, nullptr) << Isa;
    EXPECT_FALSE(Scalar->vectorized()) << Isa;
  }
  // Machine classes with different menus must fingerprint differently.
  uint64_t FpScalar =
      exec::BackendRegistry::forCaps(*support::cpuCapsFromName("scalar"))
          .fingerprint();
  uint64_t FpAvx2 =
      exec::BackendRegistry::forCaps(*support::cpuCapsFromName("avx2"))
          .fingerprint();
  uint64_t FpAvx512 =
      exec::BackendRegistry::forCaps(*support::cpuCapsFromName("avx512"))
          .fingerprint();
  EXPECT_NE(FpScalar, FpAvx2);
  EXPECT_NE(FpAvx2, FpAvx512);
  EXPECT_NE(FpScalar, FpAvx512);
}

double checksumAt(const easyml::ModelInfo &Info, StateLayout L, unsigned W) {
  exec::EngineConfig Cfg = exec::EngineConfig::baseline();
  Cfg.Width = W;
  Cfg.Layout = L;
  Cfg.FastMath = false; // exact mode: libm on every point
  Cfg.EnableLuts = true;
  std::string Error;
  auto M = exec::CompiledModel::compile(Info, Cfg, &Error);
  EXPECT_TRUE(M.has_value()) << Error;
  if (!M)
    return 0;
  sim::SimOptions Opts;
  Opts.NumCells = 37; // 37 % W != 0 for every width: tails matter
  Opts.NumSteps = 50;
  Opts.StimPeriod = 100.0;
  sim::Simulator S(*M, Opts);
  S.run();
  return S.stateChecksum();
}

TEST(Autotune, ExactModeChecksumsIdenticalAcrossSelectablePoints) {
  easyml::ModelInfo Info = testInfo();
  const exec::BackendRegistry &Reg = exec::BackendRegistry::global();
  double Ref = checksumAt(Info, StateLayout::AoS, 1);
  for (unsigned W : Reg.widths())
    for (StateLayout L :
         {StateLayout::AoS, StateLayout::SoA, StateLayout::AoSoA}) {
      if (L == StateLayout::AoSoA && W == 1)
        continue;
      double Sum = checksumAt(Info, L, W);
      // Bit-identical, not approximately equal: the tuner may pick any of
      // these points and must never change results in exact mode.
      EXPECT_EQ(Sum, Ref) << "point " << stateLayoutName(L) << "/w" << W;
    }
}

TEST(Autotune, ForcedSelectionIsDeterministic) {
  ScopedEnv Force("LIMPET_TUNE_FORCE", "soa/w4/vm");
  exec::EngineConfig Base = exec::EngineConfig::autoTuned();
  for (int I = 0; I != 3; ++I) {
    AutoSelection Sel = selectAutoConfig("test", TestModel, Base,
                                         exec::EngineTier::VM, false);
    ASSERT_TRUE(bool(Sel)) << Sel.Err.message();
    EXPECT_EQ(Sel.Source, TuneSource::Forced);
    EXPECT_EQ(Sel.Point.name(), "soa/w4/vm");
    EXPECT_EQ(Sel.Config.Width, 4u);
    EXPECT_EQ(Sel.Config.Layout, StateLayout::SoA);
    EXPECT_EQ(Sel.Tier, exec::EngineTier::VM);
    EXPECT_FALSE(Sel.Config.isAutoWidth());
    EXPECT_TRUE(Sel.Config.validate());
  }
}

TEST(Autotune, ForcedSelectionRejectsBadPoints) {
  exec::EngineConfig Base = exec::EngineConfig::autoTuned();
  {
    ScopedEnv Force("LIMPET_TUNE_FORCE", "not-a-point");
    AutoSelection Sel = selectAutoConfig("test", TestModel, Base,
                                         exec::EngineTier::VM, false);
    EXPECT_FALSE(bool(Sel));
  }
  {
    ScopedEnv Force("LIMPET_TUNE_FORCE", "aosoa/w3/vm");
    AutoSelection Sel = selectAutoConfig("test", TestModel, Base,
                                         exec::EngineTier::VM, false);
    EXPECT_FALSE(bool(Sel));
    EXPECT_NE(Sel.Err.message().find("width"), std::string::npos);
  }
  {
    // A native point under a VM driver would silently change the engine
    // contract: hard error, not a fallback.
    ScopedEnv Force("LIMPET_TUNE_FORCE", "aosoa/w4/native");
    AutoSelection Sel = selectAutoConfig("test", TestModel, Base,
                                         exec::EngineTier::VM, false);
    EXPECT_FALSE(bool(Sel));
  }
}

TEST(Autotune, HeuristicFallbackIsConcreteAndValid) {
  // No force, no record (the disk tier is off in this process), no tuner:
  // the capability heuristic must produce a compilable configuration.
  exec::EngineConfig Base = exec::EngineConfig::autoTuned();
  AutoSelection Sel = selectAutoConfig("test", TestModel, Base,
                                       exec::EngineTier::VM, false);
  ASSERT_TRUE(bool(Sel)) << Sel.Err.message();
  EXPECT_EQ(Sel.Source, TuneSource::Heuristic);
  EXPECT_FALSE(Sel.Config.isAutoWidth());
  EXPECT_TRUE(Sel.Config.validate());
  EXPECT_EQ(Sel.Tier, exec::EngineTier::VM);
  EXPECT_EQ(Sel.Rate, 0.0);
}

TEST(Autotune, HeuristicPointInvariants) {
  const exec::BackendRegistry &Reg = exec::BackendRegistry::global();
  TunePoint P = heuristicPoint(exec::EngineTier::VM);
  EXPECT_TRUE(Reg.supportsWidth(P.Width));
  EXPECT_LE(P.Width, 8u); // wider points must be measured, never guessed
  EXPECT_EQ(P.Layout == StateLayout::AoSoA, P.Width > 1);
  EXPECT_EQ(P.Tier, exec::EngineTier::VM);
  TunePoint N = heuristicPoint(exec::EngineTier::Auto);
  EXPECT_EQ(N.Tier, exec::EngineTier::Native);
  EXPECT_EQ(N.Width, P.Width);
}

} // namespace
