//===- LutTests.cpp - LUT analysis + runtime table tests -----------------------===//

#include "codegen/MLIRCodeGen.h"
#include "easyml/Sema.h"
#include "exec/CompiledModel.h"
#include "runtime/Lut.h"
#include "sim/Simulator.h"

#include <cmath>
#include <gtest/gtest.h>
#include <limits>

using namespace limpet;
using namespace limpet::codegen;
using namespace limpet::exec;
using namespace limpet::runtime;

namespace {

easyml::ModelInfo infoOf(const std::string &Src) {
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo("lut", Src, Diags);
  EXPECT_TRUE(Info.has_value()) << Diags.str();
  return *Info;
}

//===----------------------------------------------------------------------===//
// Runtime table
//===----------------------------------------------------------------------===//

TEST(LutTable, DimensionsAndRowPositions) {
  LutTable T(-100, 100, 0.05, 3);
  EXPECT_EQ(T.rows(), 4001);
  EXPECT_EQ(T.cols(), 3);
  EXPECT_DOUBLE_EQ(T.rowX(0), -100);
  EXPECT_DOUBLE_EQ(T.rowX(4000), 100);
}

TEST(LutTable, InterpolatesLinearFunctionExactly) {
  LutTable T(0, 10, 0.5, 1);
  for (int R = 0; R != T.rows(); ++R)
    T.at(R, 0) = 3.0 * T.rowX(R) + 1.0;
  for (double X : {0.0, 0.25, 3.3, 9.99, 10.0})
    EXPECT_NEAR(T.lookup(X, 0), 3.0 * X + 1.0, 1e-12) << X;
}

TEST(LutTable, QuadraticInterpolationErrorBound) {
  // |f - interp| <= h^2/8 * max|f''| for linear interpolation.
  double H = 0.05;
  LutTable T(-5, 5, H, 1);
  for (int R = 0; R != T.rows(); ++R)
    T.at(R, 0) = std::exp(T.rowX(R));
  double Bound = H * H / 8.0 * std::exp(5.0) * 1.001;
  for (double X = -5; X <= 5; X += 0.013)
    EXPECT_LE(std::fabs(T.lookup(X, 0) - std::exp(X)), Bound) << X;
}

TEST(LutTable, ClampsOutOfRange) {
  LutTable T(0, 1, 0.1, 1);
  for (int R = 0; R != T.rows(); ++R)
    T.at(R, 0) = T.rowX(R);
  EXPECT_NEAR(T.lookup(-50.0, 0), 0.0, 1e-12);
  EXPECT_NEAR(T.lookup(50.0, 0), 1.0, 1e-12);
}

TEST(LutTable, CoordIsBranchFreeConsistent) {
  LutTable T(-1, 1, 0.25, 1);
  int64_t Idx;
  double Frac;
  T.coord(-1.0, Idx, Frac);
  EXPECT_EQ(Idx, 0);
  EXPECT_DOUBLE_EQ(Frac, 0.0);
  T.coord(1.0, Idx, Frac);
  EXPECT_EQ(Idx, T.rows() - 2);
  EXPECT_DOUBLE_EQ(Frac, 1.0);
  T.coord(0.3, Idx, Frac);
  EXPECT_GE(Frac, 0.0);
  EXPECT_LT(Frac, 1.0);
  EXPECT_NEAR(T.rowX(int(Idx)) + Frac * T.step(), 0.3, 1e-12);
}

TEST(LutTable, NanInputClampsToRowZero) {
  // Regression: the original clamp chain (Pos < 0 ? 0 : (Pos > Max ? Max
  // : Pos)) let a NaN survive to the int64_t cast — undefined behavior.
  // The reordered chain must deterministically land NaN on row 0/frac 0.
  LutTable T(-1, 1, 0.25, 1);
  for (int R = 0; R != T.rows(); ++R)
    T.at(R, 0) = T.rowX(R);
  double NaN = std::numeric_limits<double>::quiet_NaN();
  int64_t Idx = -1;
  double Frac = -1;
  T.coord(NaN, Idx, Frac);
  EXPECT_EQ(Idx, 0);
  EXPECT_DOUBLE_EQ(Frac, 0.0);
  EXPECT_DOUBLE_EQ(T.lookup(NaN, 0), T.rowX(0));
  // Infinities clamp to the table edges as before.
  T.coord(std::numeric_limits<double>::infinity(), Idx, Frac);
  EXPECT_EQ(Idx, T.rows() - 2);
  EXPECT_DOUBLE_EQ(Frac, 1.0);
  T.coord(-std::numeric_limits<double>::infinity(), Idx, Frac);
  EXPECT_EQ(Idx, 0);
  EXPECT_DOUBLE_EQ(Frac, 0.0);
}

TEST(LutTable, AllFiniteDetectsCorruption) {
  LutTable T(0, 1, 0.5, 2);
  EXPECT_TRUE(T.allFinite());
  T.at(1, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(T.allFinite());
  T.at(1, 1) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(T.allFinite());
  T.at(1, 1) = 1e300;
  EXPECT_TRUE(T.allFinite());

  LutTableSet Set;
  Set.Tables.push_back(T);
  EXPECT_TRUE(Set.allFinite());
  Set.Tables.push_back(LutTable(0, 1, 0.5, 1));
  Set.Tables.back().at(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(Set.allFinite());
}

//===----------------------------------------------------------------------===//
// Extraction
//===----------------------------------------------------------------------===//

TEST(LutAnalysis, ExtractsVmOnlyTranscendentals) {
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 0.05);\nIion; .external();\n"
      "r = exp(Vm/25.0)/(1.0+exp(Vm/10.0));\n"
      "diff_w = r*(1.0-w) - 0.5*w;\nw_init = 0.5;\nIion = w;");
  ModelProgram P = buildModelProgram(Info);
  ASSERT_EQ(P.Luts.Tables.size(), 1u);
  EXPECT_GE(P.Luts.Tables[0].Columns.size(), 1u);
  // Every column references only Vm.
  for (const easyml::ExprPtr &Col : P.Luts.Tables[0].Columns)
    for (const std::string &V : easyml::exprFreeVars(*Col))
      EXPECT_EQ(V, "Vm");
}

TEST(LutAnalysis, DoesNotTabulateStateMixedExprs) {
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 0.05);\nIion; .external();\n"
      "diff_w = exp(Vm*w/25.0) - w;\nw_init = 0.5;\nIion = w;");
  ModelProgram P = buildModelProgram(Info);
  // exp(Vm*w) mixes state: not tabulatable.
  EXPECT_EQ(P.Luts.totalColumns(), 0u);
}

TEST(LutAnalysis, DeduplicatesIdenticalColumns) {
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 0.05);\nIion; .external();\n"
      "a = exp(Vm/25.0);\nb = exp(Vm/25.0);\n"
      "diff_w = a*(1.0-w) - b*w;\nw_init = 0.5;\nIion = w;");
  ModelProgram P = buildModelProgram(Info);
  EXPECT_EQ(P.Luts.totalColumns(), 1u);
}

TEST(LutAnalysis, ParamsAllowedInColumns) {
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 0.05);\nIion; .external();\n"
      "group{ k = 25.0; }.param();\n"
      "diff_w = exp(Vm/k) - w;\nw_init = 0.5;\nIion = w;");
  ModelProgram P = buildModelProgram(Info);
  EXPECT_EQ(P.Luts.totalColumns(), 1u);
}

TEST(LutAnalysis, CheapExprsNotTabulated) {
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 0.05);\nIion; .external();\n"
      "diff_w = (Vm + 2.0)*0.1 - w;\nw_init = 0.5;\nIion = w;");
  ModelProgram P = buildModelProgram(Info);
  // Linear Vm arithmetic is cheaper than an interpolation.
  EXPECT_EQ(P.Luts.totalColumns(), 0u);
}

bool containsLutRef(const easyml::Expr &E) {
  if (E.Kind == easyml::ExprKind::LutRef)
    return true;
  for (const easyml::ExprPtr &Op : E.Operands)
    if (containsLutRef(*Op))
      return true;
  return false;
}

// Two lookup variables: once the Vm table's columns are LutRefs, an
// expression of y and a Vm column, (a_inf - y)/tau_a, reads to
// exprFreeVars as a function of y alone. It must stay in the kernel: as a
// y column it would be built without the Vm it depends on.
constexpr const char kTwoTableModel[] =
    "Vm; .external(); .nodal(); .lookup(-100, 100, 0.05);\n"
    "Iion; .external(); .nodal();\nVm_init = -80.0;\n"
    "y; .lookup(0, 1, 0.005);\ny_init = 0.3;\n"
    "a_inf = 1.0/(1.0 + exp(-(Vm + 40.0)/8.0));\n"
    "tau_a = 2.0 + 3.0*exp(-(Vm + 50.0)/20.0);\n"
    "diff_y = (a_inf - y)/tau_a;\n"
    "Iion = 0.1*y*(Vm + 80.0) + exp(-y);\n";

TEST(LutAnalysis, NoTableTabulatesAnotherTablesColumns) {
  auto Info = infoOf(kTwoTableModel);
  ModelProgram P = buildModelProgram(Info);
  ASSERT_EQ(P.Luts.Tables.size(), 2u);
  EXPECT_GE(P.Luts.Tables[0].Columns.size(), 2u); // a_inf, tau_a
  for (const LutTablePlan &T : P.Luts.Tables)
    for (const easyml::ExprPtr &Col : T.Columns)
      EXPECT_FALSE(containsLutRef(*Col))
          << T.Spec.VarName << " column " << easyml::printExpr(*Col);

  // The LUT run stays within interpolation error of the exact one.
  EngineConfig NoLut = EngineConfig::baseline();
  NoLut.EnableLuts = false;
  auto A = CompiledModel::compile(Info, EngineConfig::baseline());
  auto B = CompiledModel::compile(Info, NoLut);
  ASSERT_TRUE(A && B);
  sim::SimOptions Opts;
  Opts.NumCells = 8;
  Opts.NumSteps = 200;
  sim::Simulator S1(*A, Opts), S2(*B, Opts);
  S1.run();
  S2.run();
  for (int64_t C = 0; C != Opts.NumCells; ++C) {
    EXPECT_NEAR(S1.vm(C), S2.vm(C), 0.75) << "cell " << C;
    EXPECT_NEAR(S1.stateOf(C, 0), S2.stateOf(C, 0), 2e-5) << "cell " << C;
  }
}

//===----------------------------------------------------------------------===//
// End-to-end accuracy and parameter baking
//===----------------------------------------------------------------------===//

double runOneCellStep(const CompiledModel &M, double VmValue,
                      const double *Params) {
  std::vector<double> State(M.stateArraySize(1));
  M.initializeState(State.data(), 1);
  std::vector<double> Ext = {VmValue, 0.0};
  KernelArgs Args;
  Args.State = State.data();
  Args.Exts = {&Ext[0], &Ext[1]};
  Args.Params = Params;
  Args.Start = 0;
  Args.End = 1;
  Args.NumCells = 1;
  Args.Dt = 0.01;
  M.computeStep(Args);
  return M.readState(State.data(), 0, 0, 1);
}

TEST(LutEndToEnd, LutMatchesNoLutWithinInterpolationError) {
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 0.05);\nIion; .external();\n"
      "r = exp(Vm/20.0);\ndiff_w = r*(1.0-w) - 0.4*w;\nw_init = 0.5;\n"
      "Iion = w;");
  EngineConfig WithLut = EngineConfig::baseline();
  EngineConfig NoLut = EngineConfig::baseline();
  NoLut.EnableLuts = false;
  auto M1 = CompiledModel::compile(Info, WithLut);
  auto M2 = CompiledModel::compile(Info, NoLut);
  ASSERT_TRUE(M1 && M2);
  std::vector<double> Params; // no params
  for (double Vm : {-95.0, -40.0, -40.025, 0.0, 33.3, 99.0}) {
    double W1 = runOneCellStep(*M1, Vm, Params.data());
    double W2 = runOneCellStep(*M2, Vm, Params.data());
    EXPECT_NEAR(W1, W2, 2e-5) << Vm; // h^2/8 * f'' * dt headroom
  }
}

TEST(LutEndToEnd, ParamChangeRebuildsTables) {
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 0.05);\nIion; .external();\n"
      "group{ k = 20.0; }.param();\n"
      "r = exp(Vm/k);\ndiff_w = r - w;\nw_init = 0.0;\nIion = w;");
  auto M = CompiledModel::compile(Info, EngineConfig::baseline());
  ASSERT_TRUE(M.has_value());

  double DefaultParams[] = {20.0};
  double W1 = runOneCellStep(*M, 10.0, DefaultParams);
  EXPECT_NEAR(W1, 0.01 * std::exp(10.0 / 20.0), 1e-6);

  double NewParams[] = {40.0};
  M->rebuildLuts(NewParams);
  double W2 = runOneCellStep(*M, 10.0, NewParams);
  EXPECT_NEAR(W2, 0.01 * std::exp(10.0 / 40.0), 1e-6);
}

//===----------------------------------------------------------------------===//
// Cubic spline interpolation (the paper's future-work extension)
//===----------------------------------------------------------------------===//

TEST(LutCubic, ExactOnCubicPolynomials) {
  // Catmull-Rom reproduces cubics exactly on interior intervals.
  LutTable T(0, 10, 0.5, 1);
  auto F = [](double X) { return 0.3 * X * X * X - X * X + 2 * X - 5; };
  for (int R = 0; R != T.rows(); ++R)
    T.at(R, 0) = F(T.rowX(R));
  for (double X = 1.0; X <= 9.0; X += 0.013) {
    int64_t Idx;
    double Frac;
    T.coord(X, Idx, Frac);
    EXPECT_NEAR(T.interpCubic(Idx, Frac, 0), F(X), 1e-9) << X;
  }
}

TEST(LutCubic, FourthOrderVsLinearSecondOrder) {
  // On exp, halving the step must shrink the cubic error ~16x and the
  // linear error ~4x.
  auto MaxErr = [](double Step, bool Cubic) {
    LutTable T(-2, 2, Step, 1);
    for (int R = 0; R != T.rows(); ++R)
      T.at(R, 0) = std::exp(T.rowX(R));
    double Err = 0;
    for (double X = -1.5; X <= 1.5; X += 0.0017) {
      int64_t Idx;
      double Frac;
      T.coord(X, Idx, Frac);
      double V = Cubic ? T.interpCubic(Idx, Frac, 0) : T.interp(Idx, Frac, 0);
      Err = std::max(Err, std::fabs(V - std::exp(X)));
    }
    return Err;
  };
  double LinRatio = MaxErr(0.2, false) / MaxErr(0.1, false);
  double CubRatio = MaxErr(0.2, true) / MaxErr(0.1, true);
  EXPECT_NEAR(LinRatio, 4.0, 1.0);
  EXPECT_GT(CubRatio, 9.0); // ~16 in theory; edges soften it slightly
  // And cubic beats linear outright at the same step.
  EXPECT_LT(MaxErr(0.1, true), MaxErr(0.1, false) / 20.0);
}

TEST(LutCubic, ClampsAtTableEdges) {
  LutTable T(0, 1, 0.25, 1);
  for (int R = 0; R != T.rows(); ++R)
    T.at(R, 0) = T.rowX(R);
  int64_t Idx;
  double Frac;
  T.coord(-5.0, Idx, Frac);
  EXPECT_TRUE(std::isfinite(T.interpCubic(Idx, Frac, 0)));
  T.coord(5.0, Idx, Frac);
  EXPECT_TRUE(std::isfinite(T.interpCubic(Idx, Frac, 0)));
  EXPECT_NEAR(T.interpCubic(Idx, Frac, 0), 1.0, 1e-12);
}

TEST(LutCubic, EndToEndCloserThanLinearAtCoarseStep) {
  // With a deliberately coarse table, the cubic configuration tracks the
  // exact (no-LUT) computation much more closely than linear.
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 2.0);\nIion; .external();\n"
      "r = exp(Vm/20.0);\ndiff_w = r*(1.0-w) - 0.4*w;\nw_init = 0.5;\n"
      "Iion = w;");
  EngineConfig NoLut = EngineConfig::baseline();
  NoLut.EnableLuts = false;
  EngineConfig Linear = EngineConfig::baseline();
  EngineConfig Cubic = EngineConfig::baseline();
  Cubic.CubicLut = true;
  auto MExact = CompiledModel::compile(Info, NoLut);
  auto MLin = CompiledModel::compile(Info, Linear);
  auto MCub = CompiledModel::compile(Info, Cubic);
  ASSERT_TRUE(MExact && MLin && MCub);
  std::vector<double> Params;
  double ErrLin = 0, ErrCub = 0;
  for (double Vm = -80.0; Vm <= 80.0; Vm += 1.7) {
    double Exact = runOneCellStep(*MExact, Vm, Params.data());
    ErrLin = std::max(ErrLin,
                      std::fabs(runOneCellStep(*MLin, Vm, Params.data()) -
                                Exact));
    ErrCub = std::max(ErrCub,
                      std::fabs(runOneCellStep(*MCub, Vm, Params.data()) -
                                Exact));
  }
  EXPECT_LT(ErrCub, ErrLin / 10.0);
}

TEST(LutCubic, VectorEngineMatchesScalar) {
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 0.5);\nIion; .external();\n"
      "r = exp(Vm/20.0);\ndiff_w = r*(1.0-w) - 0.4*w;\nw_init = 0.5;\n"
      "Iion = w;");
  EngineConfig ScalarCubic = EngineConfig::baseline();
  ScalarCubic.CubicLut = true;
  EngineConfig VecCubic = EngineConfig::limpetMLIR(8);
  VecCubic.CubicLut = true;
  VecCubic.FastMath = false; // isolate the interpolation path
  auto A = CompiledModel::compile(Info, ScalarCubic);
  auto B = CompiledModel::compile(Info, VecCubic);
  ASSERT_TRUE(A && B);
  std::vector<double> Params;
  for (double Vm : {-77.3, -12.0, 0.0, 45.9})
    EXPECT_DOUBLE_EQ(runOneCellStep(*A, Vm, Params.data()),
                     runOneCellStep(*B, Vm, Params.data()))
        << Vm;
}

TEST(LutEndToEnd, OutOfRangeVmClampsStably) {
  auto Info = infoOf(
      "Vm; .external(); .lookup(-100, 100, 0.05);\nIion; .external();\n"
      "r = exp(Vm/30.0);\ndiff_w = r - w;\nw_init = 0.0;\nIion = w;");
  auto M = CompiledModel::compile(Info, EngineConfig::baseline());
  std::vector<double> Params;
  double WExtreme = runOneCellStep(*M, 1e6, Params.data());
  EXPECT_TRUE(std::isfinite(WExtreme));
  EXPECT_NEAR(WExtreme, 0.01 * std::exp(100.0 / 30.0), 1e-4);
}

} // namespace
