//===- EngineTests.cpp - exec/Engine unit tests --------------------------------===//

#include "easyml/Sema.h"
#include "exec/Backend.h"
#include "exec/CompiledModel.h"

#include <cmath>
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

/// Runs \p Steps compute steps over \p Cells cells with varying Vm per
/// cell; returns the final state+ext digest.
std::vector<double> runModel(const CompiledModel &M, int64_t Cells,
                             int Steps) {
  std::vector<double> State(M.stateArraySize(Cells));
  M.initializeState(State.data(), Cells);
  std::vector<double> Vm(Cells), Iion(Cells, 0.0);
  for (int64_t C = 0; C != Cells; ++C)
    Vm[C] = -90.0 + double(C % 37) * 4.0;
  std::vector<double> Params = M.defaultParams();

  KernelArgs Args;
  Args.State = State.data();
  Args.Exts = {Vm.data(), Iion.data()};
  Args.Params = Params.data();
  Args.Start = 0;
  Args.End = Cells;
  Args.NumCells = Cells;
  Args.Dt = 0.02;
  for (int I = 0; I != Steps; ++I) {
    Args.T = I * 0.02;
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

void expectClose(const std::vector<double> &A, const std::vector<double> &B,
                 double Tol, const std::string &What) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_NEAR(A[I], B[I], Tol * std::max(1.0, std::fabs(A[I])))
        << What << " element " << I;
}

// gtest prints a parameter without operator<< as its raw bytes, and
// gtest_discover_tests puts that print in the ctest name. Pad fills what
// would be padding, so no indeterminate byte reaches the name.
struct WidthLayoutCase {
  unsigned Width;
  StateLayout Layout;
  uint8_t Pad[3] = {};
};

class EngineEquivalence
    : public ::testing::TestWithParam<WidthLayoutCase> {};

TEST_P(EngineEquivalence, MatchesScalarBaseline) {
  const unsigned Width = GetParam().Width;
  const StateLayout Layout = GetParam().Layout;
  easyml::ModelInfo Info = testInfo();

  auto Base = CompiledModel::compile(Info, EngineConfig::baseline());
  ASSERT_TRUE(Base.has_value());

  EngineConfig Cfg;
  Cfg.Width = Width;
  Cfg.Layout = Layout;
  Cfg.FastMath = true;
  auto Vec = CompiledModel::compile(Info, Cfg);
  ASSERT_TRUE(Vec.has_value());

  // 101 cells: not divisible by any width, exercising the epilogue.
  auto A = runModel(*Base, 101, 50);
  auto B = runModel(*Vec, 101, 50);
  // FastMath differs from libm by ~1e-15 relative per call.
  expectClose(A, B, 1e-11, engineConfigName(Cfg));
}

INSTANTIATE_TEST_SUITE_P(
    AllWidthLayoutCombinations, EngineEquivalence,
    ::testing::Values(WidthLayoutCase{2, StateLayout::AoS},
                      WidthLayoutCase{4, StateLayout::AoS},
                      WidthLayoutCase{8, StateLayout::AoS},
                      WidthLayoutCase{2, StateLayout::SoA},
                      WidthLayoutCase{4, StateLayout::SoA},
                      WidthLayoutCase{8, StateLayout::SoA},
                      WidthLayoutCase{2, StateLayout::AoSoA},
                      WidthLayoutCase{4, StateLayout::AoSoA},
                      WidthLayoutCase{8, StateLayout::AoSoA}));

TEST(Engine, LibmVectorEngineBitMatchesScalar) {
  // With FastMath off both engines call libm: results must be identical.
  easyml::ModelInfo Info = testInfo();
  auto Base = CompiledModel::compile(Info, EngineConfig::baseline());
  EngineConfig Cfg;
  Cfg.Width = 8;
  Cfg.Layout = StateLayout::SoA;
  Cfg.FastMath = false;
  auto Vec = CompiledModel::compile(Info, Cfg);
  auto A = runModel(*Base, 64, 25);
  auto B = runModel(*Vec, 64, 25);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I)
    EXPECT_EQ(A[I], B[I]) << I;
}

TEST(Engine, ChunkedExecutionMatchesWholeRange) {
  // Running the kernel over split [start, end) chunks must equal a single
  // full-range invocation (the threading contract).
  easyml::ModelInfo Info = testInfo();
  auto M = CompiledModel::compile(Info, EngineConfig::limpetMLIR(8));
  ASSERT_TRUE(M.has_value());

  const int64_t Cells = 96;
  auto RunChunked = [&](std::vector<int64_t> Splits) {
    std::vector<double> State(M->stateArraySize(Cells));
    M->initializeState(State.data(), Cells);
    std::vector<double> Vm(Cells, -40.0), Iion(Cells, 0.0);
    std::vector<double> Params = M->defaultParams();
    KernelArgs Args;
    Args.State = State.data();
    Args.Exts = {Vm.data(), Iion.data()};
    Args.Params = Params.data();
    Args.NumCells = Cells;
    Args.Dt = 0.02;
    Args.T = 0;
    Splits.insert(Splits.begin(), 0);
    Splits.push_back(Cells);
    for (size_t I = 0; I + 1 < Splits.size(); ++I) {
      Args.Start = Splits[I];
      Args.End = Splits[I + 1];
      M->computeStep(Args);
    }
    double Sum = 0;
    for (int64_t C = 0; C != Cells; ++C)
      Sum += M->readState(State.data(), C, 0, Cells) + Iion[C];
    return Sum;
  };

  double Whole = RunChunked({});
  double Halves = RunChunked({48});
  double Thirds = RunChunked({32, 64});
  EXPECT_DOUBLE_EQ(Whole, Halves);
  EXPECT_DOUBLE_EQ(Whole, Thirds);
}

TEST(Engine, SupportedWidths) {
  // Widths 1-8 are always registered, on every host.
  EXPECT_TRUE(isSupportedWidth(1));
  EXPECT_TRUE(isSupportedWidth(2));
  EXPECT_TRUE(isSupportedWidth(4));
  EXPECT_TRUE(isSupportedWidth(8));
  EXPECT_FALSE(isSupportedWidth(3));
  // Width 16 is host-dependent (registered when the probed ISA has
  // vectors wide enough to make it plausible); the answer must agree with
  // the registry either way.
  EXPECT_EQ(isSupportedWidth(16),
            BackendRegistry::global().supportsWidth(16));
}

TEST(Engine, RejectsAoSoAWithScalarEngine) {
  easyml::ModelInfo Info = testInfo();
  EngineConfig Cfg;
  Cfg.Width = 1;
  Cfg.Layout = StateLayout::AoSoA;
  std::string Error;
  auto M = CompiledModel::compile(Info, Cfg, &Error);
  EXPECT_FALSE(M.has_value());
  EXPECT_NE(Error.find("AoSoA"), std::string::npos);
}

TEST(Engine, RejectsUnsupportedWidth) {
  easyml::ModelInfo Info = testInfo();
  EngineConfig Cfg;
  Cfg.Width = 3;
  std::string Error;
  auto M = CompiledModel::compile(Info, Cfg, &Error);
  EXPECT_FALSE(M.has_value());
  EXPECT_NE(Error.find("width"), std::string::npos);
}

TEST(Engine, SingleCellPopulationWorksOnAllWidths) {
  // End < W exercises the pure-epilogue path.
  easyml::ModelInfo Info = testInfo();
  auto Base = CompiledModel::compile(Info, EngineConfig::baseline());
  auto A = runModel(*Base, 1, 20);
  for (unsigned W : {2u, 4u, 8u}) {
    auto Vec = CompiledModel::compile(Info, EngineConfig::limpetMLIR(W));
    auto B = runModel(*Vec, 1, 20);
    expectClose(A, B, 1e-11, "W=" + std::to_string(W));
  }
}

} // namespace
