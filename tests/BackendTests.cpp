//===- BackendTests.cpp - exec/Backend unit tests -------------------------===//

#include "easyml/Sema.h"
#include "exec/Backend.h"
#include "exec/CompiledModel.h"
#include "exec/Engine.h"

#include <gtest/gtest.h>

using namespace limpet;
using namespace limpet::codegen;
using namespace limpet::exec;

namespace {

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

TEST(Backend, RegistryCoversEverySupportedWidth) {
  for (unsigned W : SupportedWidths) {
    for (bool Fast : {false, true}) {
      const Backend *B = tryResolveBackend(W, Fast);
      ASSERT_NE(B, nullptr) << "width " << W;
      EXPECT_EQ(B->width(), W);
      EXPECT_EQ(B->fastMath(), Fast);
      EXPECT_EQ(B->vectorized(), W > 1);
      EXPECT_FALSE(std::string(B->name()).empty());
      EXPECT_EQ(B, tryResolveBackend(W, Fast)); // stable singletons
    }
  }
  EXPECT_EQ(tryResolveBackend(3, false), nullptr);
  EXPECT_EQ(tryResolveBackend(0, false), nullptr);
  // Width 16 is host-dependent: it resolves exactly when the probed host
  // registered it.
  EXPECT_EQ(tryResolveBackend(16, true) != nullptr,
            BackendRegistry::global().supportsWidth(16));
}

TEST(Backend, LayoutCapabilities) {
  // AoSoA interleaves lanes at the block width, which only a vector
  // engine can step.
  const Backend *Scalar = tryResolveBackend(1, false);
  const Backend *Vec = tryResolveBackend(4, true);
  ASSERT_NE(Scalar, nullptr);
  ASSERT_NE(Vec, nullptr);
  EXPECT_TRUE(Scalar->supportsLayout(StateLayout::AoS));
  EXPECT_TRUE(Scalar->supportsLayout(StateLayout::SoA));
  EXPECT_FALSE(Scalar->supportsLayout(StateLayout::AoSoA));
  EXPECT_TRUE(Vec->supportsLayout(StateLayout::AoSoA));
}

TEST(EngineConfigValidate, AcceptsFactoryConfigs) {
  EXPECT_TRUE(EngineConfig::baseline().validate());
  EXPECT_TRUE(EngineConfig::recovery().validate());
  for (unsigned W : {2u, 4u, 8u}) {
    EXPECT_TRUE(EngineConfig::limpetMLIR(W).validate());
    EXPECT_TRUE(EngineConfig::autoVecLike(W).validate());
  }
}

TEST(EngineConfigValidate, RejectsBadConfigsRecoverably) {
  EngineConfig Cfg = EngineConfig::baseline();
  Cfg.Width = 3;
  Status S = Cfg.validate();
  EXPECT_FALSE(S);
  EXPECT_NE(S.message().find("width"), std::string::npos);

  Cfg = EngineConfig::baseline();
  Cfg.Layout = StateLayout::AoSoA; // Width stays 1
  S = Cfg.validate();
  EXPECT_FALSE(S);
  EXPECT_NE(S.message().find("AoSoA"), std::string::npos);

  Cfg = EngineConfig::baseline();
  Cfg.CubicLut = true;
  Cfg.EnableLuts = false;
  EXPECT_FALSE(Cfg.validate());
}

TEST(EngineConfigValidate, CompileRejectsWhatValidateRejects) {
  easyml::ModelInfo Info = testInfo();
  EngineConfig Cfg = EngineConfig::baseline();
  Cfg.Layout = StateLayout::AoSoA;
  std::string Error;
  EXPECT_FALSE(CompiledModel::compile(Info, Cfg, &Error).has_value());
  EXPECT_EQ(Error, Cfg.validate().message());
}

TEST(Backend, CompiledModelResolvesItsBackendAtCompileTime) {
  easyml::ModelInfo Info = testInfo();
  auto M = CompiledModel::compile(Info, EngineConfig::limpetMLIR(4));
  ASSERT_TRUE(M.has_value());
  ASSERT_NE(M->backend(), nullptr);
  EXPECT_EQ(M->backend(), tryResolveBackend(4, true));
}

/// One kernel invocation over [Start, End) against a fresh population.
std::vector<double> stepOnce(const CompiledModel &M, int64_t Cells,
                             std::vector<std::pair<int64_t, int64_t>> Chunks,
                             bool ViaShim) {
  std::vector<double> State(M.stateArraySize(Cells));
  M.initializeState(State.data(), Cells);
  std::vector<double> Vm(Cells), Iion(Cells, 0.0);
  for (int64_t C = 0; C != Cells; ++C)
    Vm[C] = -90.0 + double(C % 37) * 4.0;
  std::vector<double> Params = M.defaultParams();
  runtime::LutTableSet Luts = M.buildLuts(Params.data());

  for (auto [Start, End] : Chunks) {
    KernelArgs Args;
    Args.State = State.data();
    Args.Exts = {Vm.data(), Iion.data()};
    Args.Params = Params.data();
    Args.Start = Start;
    Args.End = End;
    Args.NumCells = Cells;
    Args.Dt = 0.02;
    Args.T = 0.0;
    Args.Luts = &Luts;
    if (ViaShim)
      EXPECT_TRUE(runKernel(M.program(), Args, M.config().Width,
                            M.config().FastMath));
    else
      M.computeStep(Args);
  }

  std::vector<double> Out;
  for (int64_t C = 0; C != Cells; ++C) {
    Out.push_back(M.readState(State.data(), C, 0, Cells));
    Out.push_back(M.readState(State.data(), C, 1, Cells));
    Out.push_back(Iion[C]);
  }
  return Out;
}

// Pad is zeroed in place of padding: the ctest name is gtest's byte print
// of the parameter (see WidthLayoutCase in EngineTests.cpp).
struct DispatchCase {
  unsigned Width;
  StateLayout Layout;
  uint8_t Pad[3] = {};
};

class BackendDispatch : public ::testing::TestWithParam<DispatchCase> {};

/// The unified dispatch (whole range, vector main + scalar tail) must be
/// bit-identical to stepping the aligned main and the ragged tail as
/// separate chunks — i.e. the epilogue split changes nothing.
TEST_P(BackendDispatch, RaggedRangeEqualsSplitChunks) {
  const unsigned Width = GetParam().Width;
  const StateLayout Layout = GetParam().Layout;
  easyml::ModelInfo Info = testInfo();
  EngineConfig Cfg = EngineConfig::limpetMLIR(Width);
  Cfg.Layout = Layout;
  auto M = CompiledModel::compile(Info, Cfg);
  ASSERT_TRUE(M.has_value());

  const int64_t Cells = 37; // 37 % W != 0 for every vector width
  int64_t Main = Cells / Width * Width;
  std::vector<double> Whole = stepOnce(*M, Cells, {{0, Cells}}, false);
  std::vector<double> Split =
      stepOnce(*M, Cells, {{0, Main}, {Main, Cells}}, false);
  ASSERT_EQ(Whole.size(), Split.size());
  for (size_t I = 0; I != Whole.size(); ++I)
    EXPECT_EQ(Whole[I], Split[I]) << "element " << I;
}

/// runKernel is a thin shim over the same backend the model resolved at
/// compile time; both entry points must agree bit-for-bit.
TEST_P(BackendDispatch, RunKernelShimMatchesCompiledModelStep) {
  const unsigned Width = GetParam().Width;
  const StateLayout Layout = GetParam().Layout;
  easyml::ModelInfo Info = testInfo();
  EngineConfig Cfg = EngineConfig::limpetMLIR(Width);
  Cfg.Layout = Layout;
  auto M = CompiledModel::compile(Info, Cfg);
  ASSERT_TRUE(M.has_value());

  std::vector<double> Direct = stepOnce(*M, 37, {{0, 37}}, false);
  std::vector<double> Shim = stepOnce(*M, 37, {{0, 37}}, true);
  ASSERT_EQ(Direct.size(), Shim.size());
  for (size_t I = 0; I != Direct.size(); ++I)
    EXPECT_EQ(Direct[I], Shim[I]) << "element " << I;
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndLayouts, BackendDispatch,
    ::testing::Values(DispatchCase{2, StateLayout::AoS},
                      DispatchCase{2, StateLayout::SoA},
                      DispatchCase{2, StateLayout::AoSoA},
                      DispatchCase{4, StateLayout::AoS},
                      DispatchCase{4, StateLayout::SoA},
                      DispatchCase{4, StateLayout::AoSoA},
                      DispatchCase{8, StateLayout::AoS},
                      DispatchCase{8, StateLayout::SoA},
                      DispatchCase{8, StateLayout::AoSoA}));

} // namespace
