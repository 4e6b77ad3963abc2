//===- NativeKernelTests.cpp - specialized/JIT kernel tier -----------------===//
//
// The native tier's contract (docs/COMPILER.md): for any (layout, width)
// point the emitted machine-code kernel is BIT-identical to the bytecode
// VM — not within tolerance, identical — the cache key separates emitter
// versions and toolchains, a corrupt cached .so heals by re-emission, and
// every failure mode degrades to the VM with a recoverable Status.
//
// Tests that need a real toolchain GTEST_SKIP when nativeToolchain()
// fails, so the suite stays green on compiler-less boxes (the tier itself
// is designed to degrade there too).
//
//===----------------------------------------------------------------------===//

#include "compiler/Artifact.h"
#include "compiler/CompileCache.h"
#include "compiler/CompilerDriver.h"
#include "compiler/KernelEmitter.h"
#include "daemon/Protocol.h"
#include "easyml/Sema.h"
#include "exec/NativeKernel.h"
#include "models/Registry.h"
#include "sim/Simulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <gtest/gtest.h>
#include <set>

using namespace limpet;
using namespace limpet::exec;

namespace {

/// RAII scratch disk-cache dir: points the process-global cache at a
/// fresh directory and restores the override afterwards.
class ScratchCacheDir {
public:
  ScratchCacheDir() {
    char Tmpl[] = "/tmp/limpet-native-test.XXXXXX";
    Dir = mkdtemp(Tmpl);
    compiler::CompileCache::global().setDiskDir(Dir);
  }
  ~ScratchCacheDir() {
    compiler::CompileCache::global().setDiskDir("");
    std::string Cmd = "rm -rf " + Dir;
    (void)std::system(Cmd.c_str());
  }
  const std::string &path() const { return Dir; }

private:
  std::string Dir;
};

bool toolchainAvailable() {
  return bool(compiler::nativeToolchain());
}

compiler::CompileResult compileWithTier(const std::string &ModelName,
                                        const EngineConfig &Cfg,
                                        EngineTier Tier) {
  const models::ModelEntry *M = models::findModel(ModelName);
  EXPECT_NE(M, nullptr) << ModelName;
  compiler::DriverOptions Opts;
  Opts.Config = Cfg;
  Opts.Tier = Tier;
  Opts.UseCache = false; // bytecode cache off; native cache still keyed
  compiler::CompilerDriver Driver(Opts);
  return Driver.compileEntry(*M);
}

/// Steps both models over identical state/external/param buffers and
/// requires byte-identical state arrays afterwards. With \p ExtInit,
/// external \p E of cell \p C starts at ExtInit(E, C) instead of the
/// model's uniform init.
void expectBitIdentical(
    const CompiledModel &VM, const CompiledModel &Native, int64_t NumCells,
    int64_t Steps,
    const std::function<double(size_t, int64_t)> &ExtInit = nullptr) {
  ASSERT_FALSE(VM.usingNativeTier());
  ASSERT_TRUE(Native.usingNativeTier());
  size_t N = VM.stateArraySize(NumCells);
  ASSERT_EQ(N, Native.stateArraySize(NumCells));
  std::vector<double> SA(N), SB(N);
  VM.initializeState(SA.data(), NumCells);
  Native.initializeState(SB.data(), NumCells);
  // Each external is a per-cell array: Exts[i] is indexed by cell.
  std::vector<double> Inits = VM.externalInits();
  std::vector<std::vector<double>> ExtA, ExtB;
  for (size_t E = 0; E != Inits.size(); ++E) {
    ExtA.emplace_back(size_t(NumCells), Inits[E]);
    if (ExtInit)
      for (int64_t C = 0; C != NumCells; ++C)
        ExtA.back()[size_t(C)] = ExtInit(E, C);
    ExtB.push_back(ExtA.back());
  }
  std::vector<double> Params = VM.defaultParams();

  for (int64_t Step = 0; Step != Steps; ++Step) {
    KernelArgs A;
    A.State = SA.data();
    for (std::vector<double> &E : ExtA)
      A.Exts.push_back(E.data());
    A.Params = Params.data();
    A.Start = 0;
    A.End = NumCells;
    A.NumCells = NumCells;
    A.Dt = 0.01;
    A.T = double(Step) * 0.01;
    KernelArgs B = A;
    B.State = SB.data();
    B.Exts.clear();
    for (std::vector<double> &E : ExtB)
      B.Exts.push_back(E.data());
    VM.computeStep(A);
    Native.computeStep(B);
  }
  ASSERT_EQ(std::memcmp(SA.data(), SB.data(), N * sizeof(double)), 0)
      << "native state diverged from the VM";
  for (size_t E = 0; E != ExtA.size(); ++E)
    ASSERT_EQ(std::memcmp(ExtA[E].data(), ExtB[E].data(),
                          ExtA[E].size() * sizeof(double)),
              0)
        << "native external " << E << " diverged from the VM";
}

struct LayoutPoint {
  const char *Name;
  unsigned Width;
  codegen::StateLayout Layout;
  bool FastMath;
};

// gtest prints a parameter into the name ctest registers; print the name,
// not the struct's bytes (a pointer and padding differ per build).
void PrintTo(const LayoutPoint &P, std::ostream *OS) { *OS << P.Name; }

class NativeKernelEquivalence
    : public ::testing::TestWithParam<LayoutPoint> {};

TEST_P(NativeKernelEquivalence, BitIdenticalToVM) {
  if (!toolchainAvailable())
    GTEST_SKIP() << "no native toolchain on this box";
  ScratchCacheDir Scratch;
  compiler::clearNativeKernelRegistry();

  const LayoutPoint &P = GetParam();
  if (!BackendRegistry::global().supportsWidth(P.Width))
    GTEST_SKIP() << "width " << P.Width << " is not in this host's registry";
  EngineConfig Cfg;
  Cfg.Width = P.Width;
  Cfg.Layout = P.Layout;
  Cfg.FastMath = P.FastMath;
  Cfg.EnableLuts = true;

  compiler::CompileResult VM =
      compileWithTier("Courtemanche", Cfg, EngineTier::VM);
  ASSERT_TRUE(VM) << VM.Err.message();
  compiler::CompileResult Native =
      compileWithTier("Courtemanche", Cfg, EngineTier::Native);
  ASSERT_TRUE(Native) << Native.Err.message();
  ASSERT_TRUE(Native.NativeAttached) << Native.NativeErr.message();

  // 37 cells: not a multiple of 2/4/8/16, so vector mains + scalar tails
  // both run and must agree with the VM's identical split.
  expectBitIdentical(*VM.Model, *Native.Model, 37, 25);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsAndWidths, NativeKernelEquivalence,
    ::testing::Values(
        LayoutPoint{"scalar_aos_libm", 1, codegen::StateLayout::AoS, false},
        LayoutPoint{"vec2_aosoa_fast", 2, codegen::StateLayout::AoSoA, true},
        LayoutPoint{"vec4_aosoa_fast", 4, codegen::StateLayout::AoSoA, true},
        LayoutPoint{"vec8_aosoa_fast", 8, codegen::StateLayout::AoSoA, true},
        LayoutPoint{"vec4_soa_fast", 4, codegen::StateLayout::SoA, true},
        LayoutPoint{"vec4_aos_libm", 4, codegen::StateLayout::AoS, false},
        // Wider than any host register: the value barrier's memory form.
        LayoutPoint{"vec16_aosoa_fast", 16, codegen::StateLayout::AoSoA,
                    true}),
    [](const ::testing::TestParamInfo<LayoutPoint> &I) {
      return I.param.Name;
    });

//===----------------------------------------------------------------------===//
// Lane-mix differential: a different value in every lane
//===----------------------------------------------------------------------===//

/// Emits every bytecode op an EasyML model can reach, on per-lane state:
/// with LUTs on the gates of Vm become table lookups and the math calls
/// on the states stay in the body; with LUTs off the gates' exp/tanh/pow
/// come back. Rem, Min and Max have no EasyML producer, so
/// spliceRemMinMax adds them to the compiled program.
constexpr const char kOpMixSrc[] = R"EML(
Vm; .external(); .nodal(); .lookup(-100, 100, 0.05);
Iion; .external(); .nodal();
Vm_init = -80.0;

group{ gA = 0.5; gB = 0.02; EA = 20.0; }.param();

a_inf = 1.0/(1.0+exp(-(Vm+40.0)/8.0));
tau_a = 2.0 + 3.0*exp(-square((Vm+50.0)/20.0));
b_inf = 0.5*(1.0 + tanh((Vm+20.0)/15.0));
tau_b = 5.0 + pow(cosh((Vm+30.0)/40.0), -2.0);
diff_a = (a_inf - a)/tau_a;
diff_b = (b_inf - b)/tau_b;
a_init = 0.2; b_init = 0.7;

u = 0.5*a + 0.25;
g_trig = sin(u) + cos(b) + tan(0.5*u) + sinh(b) + cosh(a);
g_inv = atan(a - b) + asin(0.8*u) + acos(0.8*b);
g_log = log(1.0 + a) + log10(1.5 + b) + sqrt(a + b) + expm1(-a);
g_round = floor(4.0*a) + ceil(4.0*b) + fabs(a - b);
sel1 = (a <= b && b >= 0.1) ? 1.0 : 0.5;
sel2 = (a == b || a != 0.3) ? 2.0 : 3.0;
sel3 = !(a > b || b < 0.05) ? 0.25 : 0.75;
Iion = gA*a*(Vm - EA)
       + gB*(g_trig + g_inv + g_log + g_round + sel1 + sel2 + sel3);
)EML";

/// Appends `Iion += max(min(fmod(Vm, 7.5), s0), -s0)` to \p P's body, on
/// fresh registers, so the three ops run on per-lane values and land in
/// a compared output.
void spliceRemMinMax(BcProgram &P, int32_t VmExt, int32_t IionExt) {
  auto Reg = [&P] { return uint16_t(P.NumRegs++); };
  auto Emit = [&P](BcOp Op, uint16_t Dst, uint16_t A = 0, uint16_t B = 0,
                   int32_t Aux = 0, double Imm = 0) {
    BcInstr I{Op};
    I.Dst = Dst;
    I.A = A;
    I.B = B;
    I.Aux = Aux;
    I.Imm = Imm;
    P.Body.push_back(I);
  };
  uint16_t Vm = Reg(), S0 = Reg(), K = Reg(), NegS0 = Reg(), Rem = Reg(),
           Min = Reg(), Max = Reg(), Iion = Reg(), Sum = Reg();
  Emit(BcOp::LoadExt, Vm, 0, 0, VmExt);
  Emit(BcOp::LoadState, S0, 0, 0, 0);
  Emit(BcOp::ConstF, K, 0, 0, 0, 7.5);
  Emit(BcOp::Neg, NegS0, S0);
  Emit(BcOp::Rem, Rem, Vm, K);
  Emit(BcOp::Min, Min, Rem, S0);
  Emit(BcOp::Max, Max, Min, NegS0);
  Emit(BcOp::LoadExt, Iion, 0, 0, IionExt);
  Emit(BcOp::Add, Sum, Iion, Max);
  BcInstr Store{BcOp::StoreExt};
  Store.A = Sum;
  Store.Aux = IionExt;
  P.Body.push_back(Store);
}

/// LUTs on, off, and on with cubic interpolation.
constexpr struct {
  bool Luts, Cubic;
} kLaneMixConfigs[] = {{true, false}, {false, false}, {true, true}};

/// 61 cells: one ragged tail at every width, and room to sweep Vm.
constexpr int64_t kLaneMixCells = 61;

/// Vm of cell \p C: a permutation of 61 points from 10% of the span below
/// the Vm tables' range to 10% above it, so neighbouring lanes read
/// far-apart rows and every table's clamps are hit. The inputs keep every
/// result finite (NaN payload signs are outside the VM's contract).
double laneMixVm(const easyml::ModelInfo &Info, int64_t C) {
  double Lo = HUGE_VAL, Hi = -HUGE_VAL;
  for (const easyml::LutSpec &T : Info.Luts)
    if (T.VarName == "Vm") {
      Lo = std::min(Lo, T.Lo);
      Hi = std::max(Hi, T.Hi);
    }
  if (Lo > Hi) { // no Vm table (LUT-less source): a physiological range
    Lo = -100;
    Hi = 100;
  }
  double Span = Hi - Lo;
  int64_t K = C * 37 % kLaneMixCells;
  return Lo - 0.1 * Span + 1.2 * Span * double(K) / double(kLaneMixCells - 1);
}

/// Compiles \p Source for the VM under \p Cfg, optionally splices in
/// Rem/Min/Max, attaches a native kernel emitted from that exact program
/// to a second copy, and steps both with a per-cell Vm sweep. Adds the
/// program's opcodes to \p Ops.
void expectLaneMixBitIdentical(const std::string &Name,
                               const std::string &Source,
                               const EngineConfig &Cfg, bool Splice,
                               std::set<BcOp> &Ops) {
  SCOPED_TRACE(Name + " " + engineConfigName(Cfg));
  compiler::DriverOptions Opts;
  Opts.Config = Cfg;
  Opts.UseCache = false;
  compiler::CompileResult R =
      compiler::CompilerDriver(Opts).compileSource(Name, Source);
  ASSERT_TRUE(R) << R.Err.message();
  const easyml::ModelInfo &Info = R.Model->info();
  int VmExt = Info.externalIndex("Vm"), IionExt = Info.externalIndex("Iion");
  ASSERT_GE(VmExt, 0);

  BcProgram P = R.Model->program();
  if (Splice) {
    ASSERT_GE(IionExt, 0);
    spliceRemMinMax(P, VmExt, IionExt);
  }
  for (const std::vector<BcInstr> *Part : {&P.Prologue, &P.Body})
    for (const BcInstr &I : *Part)
      Ops.insert(I.Op);

  auto Assemble = [&] {
    // The artifact-load shape: the kernel's program and options, no IR.
    codegen::GeneratedKernel K;
    K.Program = R.Model->kernel().Program;
    K.Options = R.Model->kernel().Options;
    std::string Err;
    std::optional<CompiledModel> M = CompiledModel::fromParts(
        std::move(K), P, R.Model->luts(), Cfg, &Err);
    EXPECT_TRUE(M) << Err;
    return M;
  };
  std::optional<CompiledModel> VM = Assemble(), Native = Assemble();
  ASSERT_TRUE(VM && Native);
  compiler::NativeAttachResult K = compiler::getOrEmitNativeKernel(
      *Native, compiler::fnv1a64(P.str(), R.CacheKey), Name);
  ASSERT_TRUE(K) << K.Err.message();
  Native->attachNative(K.Kernel);

  expectBitIdentical(*VM, *Native, kLaneMixCells, 20,
                     [&](size_t E, int64_t C) {
                       return int(E) == VmExt ? laneMixVm(Info, C)
                                              : VM->externalInits()[E];
                     });
}

/// Runs the lane-mix differential for the op-mix model and \p Models
/// under every kLaneMixConfigs entry at the benchmark's vec8/AoSoA/
/// fast-math point; returns the union of the opcodes the programs contain.
std::set<BcOp> runLaneMix(const std::vector<std::string> &Models) {
  std::set<BcOp> Ops;
  for (const auto &LC : kLaneMixConfigs) {
    EngineConfig Cfg = EngineConfig::limpetMLIR(8);
    Cfg.EnableLuts = LC.Luts;
    Cfg.CubicLut = LC.Cubic;
    expectLaneMixBitIdentical("OpMix", kOpMixSrc, Cfg, /*Splice=*/true, Ops);
    // The lane loops' libm flavour and AoS gathers, on the same model.
    EngineConfig Libm = Cfg;
    Libm.Width = 4;
    Libm.Layout = codegen::StateLayout::AoS;
    Libm.FastMath = false;
    expectLaneMixBitIdentical("OpMix", kOpMixSrc, Libm, /*Splice=*/true,
                              Ops);
    for (const std::string &M : Models) {
      const models::ModelEntry *E = models::findModel(M);
      EXPECT_NE(E, nullptr) << M;
      if (E)
        expectLaneMixBitIdentical(M, E->Source, Cfg,
                                  /*Splice=*/false, Ops);
    }
  }
  return Ops;
}

TEST(NativeKernelLaneMix, BitIdenticalToVMOnEveryOp) {
  if (!toolchainAvailable())
    GTEST_SKIP() << "no native toolchain on this box";
  ScratchCacheDir Scratch;
  compiler::clearNativeKernelRegistry();

  std::set<BcOp> Ops = runLaneMix({"HodgkinHuxley", "Courtemanche"});
  // Every opcode must have run with distinct lanes somewhere above.
  for (unsigned Op = 0; Op <= unsigned(BcOp::LutInterpCubic); ++Op)
    EXPECT_TRUE(Ops.count(BcOp(Op))) << bcOpName(BcOp(Op)) << " not covered";
}

/// The table shapes the vector flavour's LUT batches must get right
/// (KernelEmitter.cpp header, point 3), each table with its own coord:
///  - 9 columns on Vm: not a multiple of any width, and at W = 2, 4 and 8
///    column 8 is the only used column of the last chunk, which starts at
///    Cols - W;
///  - 3 columns on the state y: narrower than W = 4, 8 and 16, which keep
///    the lane loop.
/// Every y column depends on y alone: LUT analysis would also tabulate an
/// expression of y and a Vm column into the y table, whose build cannot
/// evaluate the Vm column.
constexpr const char kLutShapesSrc[] = R"EML(
Vm; .external(); .nodal(); .lookup(-100, 100, 0.05);
Iion; .external(); .nodal();
Vm_init = -80.0;
y; .lookup(0, 1, 0.005);
y_init = 0.3;
z_init = 0.6;

a_inf = 1.0/(1.0 + exp(-(Vm + 40.0)/8.0));
k_a = 1.0/(2.0 + 3.0*exp(-square((Vm + 50.0)/20.0)));
b_inf = 0.5*(1.0 + tanh((Vm + 20.0)/15.0));
k_b = 1.0/(5.0 + pow(cosh((Vm + 30.0)/40.0), -2.0));
diff_y = (a_inf - y)*k_a;
diff_z = (b_inf - z)*k_b + 0.1*y/(1.0 + y) - 0.05*z*exp(-y);

Iion = y*exp(Vm/50.0) + z*sin(Vm/30.0) + y*z*cos(Vm/45.0)
       + z/(1.0 + exp((Vm + 10.0)/12.0)) + y*atan(Vm/25.0) + sqrt(y)*z;
)EML";

/// Linear interpolations the vector flavour of \p Src reads from a LUT
/// batch's column array (`rN = lcolM[c][j];`) instead of a lane loop.
unsigned batchedInterps(const std::string &Src) {
  const size_t End = Src.find("static void limpet_run_tail");
  unsigned N = 0;
  for (size_t At = Src.find(" = lcol"); At < End;
       At = Src.find(" = lcol", At + 1))
    ++N;
  return N;
}

TEST(NativeKernelLaneMix, LutBatchEdgeShapes) {
  if (!toolchainAvailable())
    GTEST_SKIP() << "no native toolchain on this box";
  ScratchCacheDir Scratch;
  compiler::clearNativeKernelRegistry();

  std::set<BcOp> Ops;
  for (unsigned W : {2u, 4u, 8u, 16u}) {
    if (!BackendRegistry::global().supportsWidth(W))
      continue;
    for (const auto &LC : kLaneMixConfigs) {
      EngineConfig Cfg = EngineConfig::limpetMLIR(W);
      Cfg.EnableLuts = LC.Luts;
      Cfg.CubicLut = LC.Cubic;
      expectLaneMixBitIdentical("LutShapes", kLutShapesSrc, Cfg,
                                /*Splice=*/false, Ops);
    }
    // The shapes above take the batch exactly where they fit: both tables
    // at W = 2, the Vm table at 4 and 8, neither at 16.
    compiler::DriverOptions Opts;
    Opts.Config = EngineConfig::limpetMLIR(W);
    Opts.UseCache = false;
    compiler::CompileResult R =
        compiler::CompilerDriver(Opts).compileSource("LutShapes",
                                                     kLutShapesSrc);
    ASSERT_TRUE(R) << R.Err.message();
    EXPECT_EQ(batchedInterps(
                  compiler::emitKernelSource(*R.Model, "LutShapes", 0)),
              W == 2 ? 12u : W == 16 ? 0u : 9u)
        << "W=" << W;
  }
  EXPECT_TRUE(Ops.count(BcOp::LutInterp) && Ops.count(BcOp::LutInterpCubic));
}

TEST(NativeKernelLutBatch, LuoRudy94BatchesEveryInterpolation) {
  // A silent fallback to lane loops would pass every differential test.
  compiler::CompileResult R = compileWithTier(
      "LuoRudy94", EngineConfig::limpetMLIR(8), EngineTier::VM);
  ASSERT_TRUE(R) << R.Err.message();
  ASSERT_EQ(R.Model->program().LutOpsPerCell, 32u);
  EXPECT_EQ(
      batchedInterps(compiler::emitKernelSource(*R.Model, "LuoRudy94", 0)),
      32u);
}

// The same differential over the whole registry; too slow for tier-1 (43
// models x 3 configs of cc), so CI runs it explicitly with
// --gtest_also_run_disabled_tests.
TEST(NativeKernelLaneMix, DISABLED_All43Models) {
  if (!toolchainAvailable())
    GTEST_SKIP() << "no native toolchain on this box";
  ScratchCacheDir Scratch;
  compiler::clearNativeKernelRegistry();

  std::vector<std::string> Names;
  for (const models::ModelEntry &E : models::modelRegistry())
    Names.push_back(E.Name);
  ASSERT_EQ(Names.size(), 43u);
  runLaneMix(Names);
}

TEST(NativeKernelKey, SeparatesEmitterVersionAndToolchain) {
  compiler::NativeToolchain TC;
  TC.Compiler = "/usr/bin/c++";
  TC.Identity = "g++ (Distro) 12.0.0";
  TC.Flags = "-O3 -march=native";
  uint64_t Base = compiler::nativeKernelKey(0x1234, 1, TC);

  // Same inputs -> same key (the warm path depends on this).
  EXPECT_EQ(Base, compiler::nativeKernelKey(0x1234, 1, TC));
  // A new emitter version must invalidate every cached kernel.
  EXPECT_NE(Base, compiler::nativeKernelKey(0x1234, 2, TC));
  // A different compile (model/config/pipeline) keys separately.
  EXPECT_NE(Base, compiler::nativeKernelKey(0x1235, 1, TC));
  // A compiler upgrade (identity string) or flag change re-keys: kernels
  // follow the exact toolchain that built the host process.
  compiler::NativeToolchain TC2 = TC;
  TC2.Identity = "g++ (Distro) 13.0.0";
  EXPECT_NE(Base, compiler::nativeKernelKey(0x1234, 1, TC2));
  compiler::NativeToolchain TC3 = TC;
  TC3.Flags = "-O2";
  EXPECT_NE(Base, compiler::nativeKernelKey(0x1234, 1, TC3));
  compiler::NativeToolchain TC4 = TC;
  TC4.Compiler = "/usr/local/bin/c++";
  EXPECT_NE(Base, compiler::nativeKernelKey(0x1234, 1, TC4));
}

TEST(NativeKernelCache, MemoryAndDiskTiers) {
  if (!toolchainAvailable())
    GTEST_SKIP() << "no native toolchain on this box";
  ScratchCacheDir Scratch;
  compiler::clearNativeKernelRegistry();

  EngineConfig Cfg = EngineConfig::limpetMLIR(4);
  compiler::CompileResult Cold =
      compileWithTier("HodgkinHuxley", Cfg, EngineTier::Native);
  ASSERT_TRUE(Cold.NativeAttached) << Cold.NativeErr.message();
  EXPECT_FALSE(Cold.NativeCacheHit);
  EXPECT_NE(Cold.NativeKey, 0u);

  // Same process: served from the in-memory registry, no cc, same key.
  compiler::CompileResult Mem =
      compileWithTier("HodgkinHuxley", Cfg, EngineTier::Native);
  ASSERT_TRUE(Mem.NativeAttached);
  EXPECT_TRUE(Mem.NativeCacheHit);
  EXPECT_FALSE(Mem.NativeDiskHit);
  EXPECT_EQ(Mem.NativeKey, Cold.NativeKey);
  // Both results share one loaded kernel object.
  EXPECT_EQ(Cold.Model->nativeKernel(), Mem.Model->nativeKernel());

  // Registry cleared ("fresh process"): served from the on-disk .so.
  compiler::clearNativeKernelRegistry();
  compiler::CompileResult Disk =
      compileWithTier("HodgkinHuxley", Cfg, EngineTier::Native);
  ASSERT_TRUE(Disk.NativeAttached) << Disk.NativeErr.message();
  EXPECT_TRUE(Disk.NativeCacheHit);
  EXPECT_TRUE(Disk.NativeDiskHit);
  EXPECT_EQ(Disk.NativeKey, Cold.NativeKey);
}

TEST(NativeKernelCache, CorruptSoHealsByReemission) {
  if (!toolchainAvailable())
    GTEST_SKIP() << "no native toolchain on this box";
  ScratchCacheDir Scratch;
  compiler::clearNativeKernelRegistry();

  EngineConfig Cfg = EngineConfig::limpetMLIR(4);
  uint64_t Key = 0;
  {
    compiler::CompileResult Cold =
        compileWithTier("HodgkinHuxley", Cfg, EngineTier::Native);
    ASSERT_TRUE(Cold.NativeAttached) << Cold.NativeErr.message();
    Key = Cold.NativeKey;
  }
  // Drop every reference (result + registry) so the library is unmapped
  // before we corrupt its file: dlopen dedups by inode, and a truncated
  // still-mapped object would SIGBUS instead of failing cleanly. A real
  // corrupt cache is always read by a fresh process, which this models.
  compiler::clearNativeKernelRegistry();

  // Replace the cached object with garbage (fresh inode, like a torn
  // write from another process would leave behind).
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%016llx", (unsigned long long)Key);
  std::string SoPath = Scratch.path() + "/" + Buf + ".native.so";
  std::string TmpPath = SoPath + ".tmp";
  {
    std::ofstream Out(TmpPath, std::ios::trunc);
    ASSERT_TRUE(Out.good()) << TmpPath;
    Out << "this is not an ELF object";
  }
  ASSERT_EQ(std::rename(TmpPath.c_str(), SoPath.c_str()), 0);

  // A "fresh process" must not crash on the corrupt file: it deletes it,
  // re-emits, and still attaches a working kernel. In sanitized builds
  // dlclose is skipped, so dlopen of the same path returns the original
  // (still valid) mapping and the corrupt file reads as a disk hit; the
  // attached kernel is correct either way, which is what matters.
  compiler::CompileResult Healed =
      compileWithTier("HodgkinHuxley", Cfg, EngineTier::Native);
  ASSERT_TRUE(Healed.NativeAttached) << Healed.NativeErr.message();
  if (NativeKernel::unloadsOnRelease())
    EXPECT_FALSE(Healed.NativeCacheHit); // the corrupt .so was not "a hit"
  expectBitIdentical(*compileWithTier("HodgkinHuxley", Cfg,
                                      EngineTier::VM)
                          .Model,
                     *Healed.Model, 13, 10);
}

TEST(NativeKernelFallback, MissingCompilerIsRecoverable) {
  ScratchCacheDir Scratch;
  compiler::clearNativeKernelRegistry();
  setenv("LIMPET_NATIVE_CC", "/nonexistent/limpet-cxx", 1);

  // Native tier: the failure is reported in NativeErr but the compile
  // SUCCEEDS and the model runs on the VM.
  EngineConfig Cfg = EngineConfig::baseline();
  compiler::CompileResult R =
      compileWithTier("HodgkinHuxley", Cfg, EngineTier::Native);
  unsetenv("LIMPET_NATIVE_CC");
  ASSERT_TRUE(R) << R.Err.message();
  EXPECT_FALSE(R.NativeAttached);
  EXPECT_FALSE(R.NativeErr.isOk());
  EXPECT_FALSE(R.Model->usingNativeTier());

  sim::SimOptions Opts;
  Opts.NumCells = 8;
  Opts.NumSteps = 20;
  sim::Simulator S(*R.Model, Opts);
  S.run();
  EXPECT_TRUE(std::isfinite(S.stateChecksum()));
}

TEST(NativeKernelFallback, AutoTierIsSilentlyVM) {
  ScratchCacheDir Scratch;
  compiler::clearNativeKernelRegistry();
  setenv("LIMPET_NATIVE_CC", "/nonexistent/limpet-cxx", 1);
  compiler::CompileResult R = compileWithTier(
      "HodgkinHuxley", EngineConfig::baseline(), EngineTier::Auto);
  unsetenv("LIMPET_NATIVE_CC");
  ASSERT_TRUE(R) << R.Err.message();
  EXPECT_FALSE(R.NativeAttached);
  EXPECT_FALSE(R.Model->usingNativeTier()); // runs, on the VM
}

TEST(NativeKernelLoad, GarbageSoIsARecoverableError) {
  char Tmpl[] = "/tmp/limpet-native-garbage.XXXXXX";
  std::string Dir = mkdtemp(Tmpl);
  std::string Path = Dir + "/garbage.so";
  {
    std::ofstream Out(Path);
    Out << "\x7f" << "not-really-elf";
  }
  Expected<std::shared_ptr<NativeKernel>> K =
      NativeKernel::load(Path, 1, false, "garbage");
  EXPECT_FALSE(K);
  EXPECT_FALSE(K.status().message().empty());
  std::string Cmd = "rm -rf " + Dir;
  (void)std::system(Cmd.c_str());
}

TEST(EngineTierNames, RoundTrip) {
  for (EngineTier T :
       {EngineTier::VM, EngineTier::Native, EngineTier::Auto}) {
    auto Back = engineTierFromName(engineTierName(T));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, T);
  }
  EXPECT_FALSE(engineTierFromName("turbo").has_value());
}

TEST(JobSpecEngine, ParsesAndRoundTrips) {
  // The daemon's wire field: "engine":"auto" survives a spec round trip,
  // and an unknown tier is a recoverable admission error.
  auto Parsed = daemon::parseJobSpec(
      *daemon::JsonValue::parse("{\"model\":\"HodgkinHuxley\","
                                "\"engine\":\"auto\"}"));
  ASSERT_TRUE(Parsed) << Parsed.status().message();
  EXPECT_EQ(Parsed->Tier, EngineTier::Auto);

  daemon::JsonValue J = daemon::jobSpecToJson(*Parsed);
  auto Again = daemon::parseJobSpec(J);
  ASSERT_TRUE(Again) << Again.status().message();
  EXPECT_EQ(Again->Tier, EngineTier::Auto);

  auto Bad = daemon::parseJobSpec(
      *daemon::JsonValue::parse("{\"model\":\"HodgkinHuxley\","
                                "\"engine\":\"warp\"}"));
  EXPECT_FALSE(Bad);

  // Default (field omitted) is the VM tier.
  auto Default = daemon::parseJobSpec(
      *daemon::JsonValue::parse("{\"model\":\"HodgkinHuxley\"}"));
  ASSERT_TRUE(Default);
  EXPECT_EQ(Default->Tier, EngineTier::VM);
}

} // namespace
