//===- Ionic.cpp - Uncoupled populations under the paper's protocol ------===//
//
// 8192 cells, one stepping thread, guard rails off, limpetMLIR(8). The
// seed draws one model per size class; each model runs as a VM case and
// a native case. An op is one Simulator::run() of a fixed step count per
// size class, and cases are interleaved round-robin so host drift hits
// every case alike. Almost all timed work is the generated kernel, and
// almost all of set-up is the compiler.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Plan.h"
#include "Stats.h"

#include "compiler/KernelEmitter.h"
#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Simulator.h"

#include <cstdio>
#include <memory>
#include <optional>

using namespace perfbench;
using namespace limpet;

namespace {

constexpr int64_t kCells = 8192;
constexpr int kSetupReps = 5;

struct Case {
  std::string Model;
  char SizeClass = 'S';
  exec::EngineTier Tier = exec::EngineTier::VM;
  int64_t Steps = 0;
  std::optional<compiler::CompileResult> Compiled;
  std::unique_ptr<sim::Simulator> Sim; ///< declared after Compiled
  std::vector<double> OpSec;
  // Traced-pass accumulators.
  telemetry::RuntimeCounters Kernel;
  double WallNs = 0;

  bool native() const { return Tier == exec::EngineTier::Native; }
  std::string label() const {
    return Model + (native() ? "/native" : "/vm");
  }
  double cellSteps() const { return double(kCells) * double(Steps); }
};

sim::SimOptions options(int64_t Steps) {
  sim::SimOptions O;
  O.NumCells = kCells;
  O.NumSteps = Steps;
  O.NumThreads = 1;
  return O;
}

/// One cold set-up: compile every case (codegen, LUT build, native .so
/// disk hit + dlopen) and construct its population. Returns false with
/// the reason in \p Why when a case cannot run.
bool setUp(std::vector<Case> &Cases, Tracer *T, std::string &Why) {
  for (Case &C : Cases) {
    C.Sim.reset();
    C.Compiled.reset();
  }
  coldenCaches();
  for (Case &C : Cases) {
    C.Compiled.emplace(compileModel(T, C.Model, C.Tier));
    Why = unusable(*C.Compiled, C.Tier);
    if (!Why.empty())
      return false;
    Tracer::Scope S(T, "sim", "Simulator::Simulator");
    C.Sim = std::make_unique<sim::Simulator>(*C.Compiled->Model,
                                             options(C.Steps));
  }
  return true;
}

} // namespace

WorkloadResult perfbench::runIonic(const Args &A, Tracer *T) {
  WorkloadResult R;
  std::vector<std::string> Draw = drawIonicModels(A.Seed);
  std::vector<Case> Cases;
  const char Classes[] = {'S', 'M', 'L'};
  for (size_t I = 0; I != Draw.size(); ++I)
    for (exec::EngineTier Tier :
         {exec::EngineTier::VM, exec::EngineTier::Native}) {
      Case C;
      C.Model = Draw[I];
      C.SizeClass = Classes[I];
      C.Tier = Tier;
      C.Steps = ionicStepsPerOp(Classes[I]);
      Cases.push_back(std::move(C));
    }
  R.note("draw: " + Draw[0] + " (S), " + Draw[1] + " (M), " + Draw[2] +
         " (L)");

  // Untimed: each drawn model's native kernel emitted and compiled into
  // the private cache, which every pass starts empty, so timed set-up
  // never runs the C++ compiler.
  Counters C0 = Counters::now();
  for (const std::string &M : Draw)
    compileModel(nullptr, M, exec::EngineTier::Native);
  Counters C1 = Counters::now();
  if (T) {
    R.layer("compiler.native_cc_s", ccSecondsEach(C0, C1), "s");
    for (const std::string &M : Draw) {
      Tracer::Scope S(T, "easyml", "compileModelInfo");
      DiagnosticEngine Diags;
      const models::ModelEntry *E = models::findModel(M);
      if (E)
        (void)easyml::compileModelInfo(E->Name, E->Source, Diags);
    }
  }

  // Timed: repeated cold set-ups; the last one's populations are stepped.
  std::vector<double> SetupS;
  std::string Why;
  Counters S0 = Counters::now();
  for (int Rep = 0; Rep != kSetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    if (!setUp(Cases, T, Why)) {
      R.Ops.fail("set-up: " + Why);
      return R;
    }
    SetupS.push_back(secondsSince(T0));
  }
  Counters S1 = Counters::now();

  std::vector<double> Calib;
  Counters P0 = Counters::now();
  Clock::time_point Start = Clock::now();
  int64_t Ops = 0, Rounds = 0;
  while (secondsSince(Start) < A.Seconds) {
    for (Case &C : Cases) {
      Tracer::Scope S(T, "sim", "Simulator::run", T ? T->newOp() : 0);
      telemetry::RuntimeCounters K0;
      if (T)
        K0 = telemetry::runtimeCounters();
      Clock::time_point T0 = Clock::now();
      C.Sim->run();
      double Sec = secondsSince(T0);
      C.OpSec.push_back(Sec);
      ++Ops;
      if (T) {
        telemetry::RuntimeCounters K = runtimeSince(K0);
        C.Kernel.merge(K);
        C.WallNs += Sec * 1e9;
        T->end(S.id()); // close before attaching the kernel child
        T->addChild(S.id(), "exec", C.native() ? "kernel.native" : "kernel.vm",
                    K.KernelNs);
      }
    }
    ++Rounds;
    // Output check: each native twin equals its VM case bit for bit at
    // the same step count, and really ran on the native tier.
    for (size_t I = 0; I + 1 < Cases.size(); I += 2) {
      Case &Vm = Cases[I], &Nat = Cases[I + 1];
      if (!Nat.Compiled->Model->usingNativeTier())
        R.Ops.fail(Nat.label() + ": not on the native tier", 2);
      else
        checkChecksum(R.Ops, Nat.label() + " vs vm", Vm.Sim->stateChecksum(),
                      Nat.Sim->stateChecksum(), 2);
    }
    if (Rounds % 4 == 1)
      Calib.push_back(hostCalibMs());
  }
  double Timed = secondsSince(Start);
  Counters P1 = Counters::now();

  std::vector<double> VmRates, NativeRates, P50s, P90s;
  for (Case &C : Cases) {
    CaseTimes Ct = summarizeCase(R, C.label(), C.Steps, C.OpSec);
    (C.native() ? NativeRates : VmRates)
        .push_back(C.cellSteps() / (Ct.MeanMs * 1e-3));
    P50s.push_back(Ct.MedianMs);
    P90s.push_back(Ct.P90Ms);
  }
  R.e2e("setup_s", median(SetupS), "s");
  R.e2e("cell_steps_per_s.vm", geomean(VmRates), "cell-steps/s");
  R.e2e("cell_steps_per_s.native", geomean(NativeRates), "cell-steps/s");
  R.e2e("op_ms.p50", geomean(P50s), "ms");
  R.e2e("op_ms.p90", geomean(P90s), "ms");
  R.e2e("ops_per_s", double(Ops) / Timed, "ops/s");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  R.note("host.calib_ms " + std::to_string(median(Calib)));

  if (T) {
    int64_t Compiles = int64_t(Cases.size()) * kSetupReps;
    addCommonLayerMetrics(R, *T, S0, S1, Compiles, Ops);
    R.layer("easyml.frontend_ms", T->meanMs("compileModelInfo"), "ms");
    R.layer("compiler.cold_compile_ms", T->meanMs("compileEntry.vm"), "ms");
    R.layer("compiler.native_attach_ms",
            T->meanMs("compileEntry.native"), "ms");
    R.layer("compiler.bytecode_instrs",
            delta(S0, S1, "compile.bytecode.instrs") / double(Compiles),
            "count");
    R.layer("sim.construct_ms", T->meanMs("Simulator::Simulator"), "ms");
    telemetry::RuntimeCounters Vm, Nat;
    double Wall = 0, Steps = 0;
    for (const Case &C : Cases) {
      (C.native() ? Nat : Vm).merge(C.Kernel);
      Wall += C.WallNs;
      Steps += double(C.OpSec.size()) * double(C.Steps);
    }
    telemetry::RuntimeCounters All = Vm;
    All.merge(Nat);
    double CS = double(std::max<uint64_t>(1, All.CellSteps));
    R.layer("exec.kernel_ns_per_cell_step.vm", Vm.nsPerCellStep(), "ns");
    R.layer("exec.kernel_ns_per_cell_step.native", Nat.nsPerCellStep(), "ns");
    R.layer("exec.bytes_per_cell_step",
            double(All.BytesLoaded + All.BytesStored) / CS, "B");
    R.layer("exec.lut_interps_per_cell_step", double(All.LutInterps) / CS,
            "count");
    R.layer("exec.math_calls_per_cell_step",
            double(All.FastMathCalls + All.LibmCalls) / CS, "count");
    R.layer("exec.kernel_share", double(All.KernelNs) / Wall, "ratio");
    R.layer("runtime.parallel_for_per_step",
            delta(P0, P1, "pool.parallel_for.calls") / Steps, "count");
    R.layer("sim.stages_per_step", delta(P0, P1, "sim.sched.stages") / Steps,
            "count");
    R.layer("sim.step_ms", Wall * 1e-6 / Steps, "ms");
    R.layer("sim.unexplained_share", 1.0 - double(All.KernelNs) / Wall,
            "ratio");
    R.layer("host.calib_ms", median(Calib), "ms");
  }
  return R;
}
