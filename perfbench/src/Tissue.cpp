//===- Tissue.cpp - A 2D monodomain sheet ---------------------------------===//
//
// FTCS diffusion with Strang splitting and the default edge stimulus on a
// 512 x 512 sheet, two stepping threads, limpetMLIR(8), LuoRudy94. The
// sheet runs as a VM case and a native case, interleaved round-robin; an
// op is one TissueSimulator::run() of a fixed step count. Each step is six
// barrier-separated stages, so the kernel shares the time with the
// bandwidth-bound stencil and with the pool's dispatch cost.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Plan.h"
#include "Stats.h"

#include "sim/Diffusion.h"
#include "sim/TissueSimulator.h"

#include <cstdio>
#include <memory>
#include <optional>

using namespace perfbench;
using namespace limpet;

namespace {

// Of 256, 384 and 512 nodes a side, the sheet whose two-thread op times
// measured steadiest across runs on a 4-vCPU host; perfbench/README.md
// gives the spreads.
constexpr int64_t kSide = 512;
constexpr int64_t kStepsPerOp = 1;
constexpr unsigned kThreads = 2;
constexpr int kSetupReps = 9;

struct Case {
  exec::EngineTier Tier = exec::EngineTier::VM;
  std::optional<compiler::CompileResult> Compiled;
  std::unique_ptr<sim::TissueSimulator> Sim; ///< declared after Compiled
  std::vector<double> OpSec;
  uint64_t KernelNs = 0; ///< traced pass: summed over threads
  double WallNs = 0;

  bool native() const { return Tier == exec::EngineTier::Native; }
  const char *tier() const { return native() ? "native" : "vm"; }
};

sim::TissueOptions sheet(int64_t Side, unsigned Threads, int64_t Steps) {
  sim::TissueOptions O;
  O.Grid = {Side, Side, 0.025};
  O.Method = sim::DiffusionMethod::FTCS;
  O.Sim.NumCells = Side * Side;
  O.Sim.NumSteps = Steps;
  O.Sim.NumThreads = Threads;
  return O;
}

bool setUp(std::vector<Case> &Cases, const std::string &Model, Tracer *T,
           std::string &Why) {
  for (Case &C : Cases) {
    C.Sim.reset();
    C.Compiled.reset();
  }
  coldenCaches();
  for (Case &C : Cases) {
    C.Compiled.emplace(compileModel(T, Model, C.Tier));
    Why = unusable(*C.Compiled, C.Tier);
    if (!Why.empty())
      return false;
    Tracer::Scope S(T, "sim", "TissueSimulator::TissueSimulator");
    C.Sim = std::make_unique<sim::TissueSimulator>(
        *C.Compiled->Model, sheet(kSide, kThreads, kStepsPerOp));
    if (Status St = C.Sim->preflight(); !St) {
      Why = Model + ": preflight: " + St.message();
      return false;
    }
  }
  return true;
}

/// Wall ms of one serial FTCS application (publish + apply) over a
/// \p Side x \p Side grid, median of \p Reps; bytes moved go to \p Bytes.
double stencilMs(int64_t Side, int Reps, double &Bytes) {
  sim::TissueGrid G{Side, Side, 0.025};
  sim::DiffusionOperator D(G, 0.001, sim::DiffusionMethod::FTCS);
  std::vector<double> Vm(size_t(G.numNodes()), -80.0);
  for (size_t I = 0; I < Vm.size(); I += 7)
    Vm[I] = 20.0;
  std::vector<double> Ms;
  for (int I = 0; I != Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    D.publish(Vm.data(), 0, G.numNodes());
    D.applyFromSnapshot(Vm.data(), 0.005, 0, G.numNodes());
    Ms.push_back(secondsSince(T0) * 1e3);
  }
  Bytes = double(D.bytesLoadedPerStep() + D.bytesStoredPerStep());
  return median(Ms);
}

} // namespace

WorkloadResult perfbench::runTissue(const Args &A, Tracer *T) {
  WorkloadResult R;
  const std::string Model = kTissueModel;
  const double Nodes = double(kSide * kSide);
  char Buf[240];
  std::snprintf(Buf, sizeof(Buf), "sheet: %s, %lldx%lld nodes, %u threads",
                Model.c_str(), (long long)kSide, (long long)kSide, kThreads);
  R.note(Buf);

  // Untimed: emit and compile the native kernel into the private cache,
  // which every pass starts empty.
  Counters C0 = Counters::now();
  compileModel(nullptr, Model, exec::EngineTier::Native);
  Counters C1 = Counters::now();

  std::vector<Case> Cases(2);
  Cases[1].Tier = exec::EngineTier::Native;
  std::vector<double> SetupS;
  std::string Why;
  Counters S0 = Counters::now();
  for (int Rep = 0; Rep != kSetupReps; ++Rep) {
    Clock::time_point T0 = Clock::now();
    if (!setUp(Cases, Model, T, Why)) {
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
      Tracer::Scope S(T, "sim", "TissueSimulator::run", T ? T->newOp() : 0);
      uint64_t K0 = T ? telemetry::runtimeCounters().KernelNs : 0;
      Clock::time_point T0 = Clock::now();
      C.Sim->run();
      double Sec = secondsSince(T0);
      C.OpSec.push_back(Sec);
      ++Ops;
      if (T) {
        uint64_t KNs = telemetry::runtimeCounters().KernelNs - K0;
        C.KernelNs += KNs;
        C.WallNs += Sec * 1e9;
        T->end(S.id());
        T->addChild(S.id(), "exec", C.native() ? "kernel.native" : "kernel.vm",
                    KNs / kThreads);
      }
    }
    ++Rounds;
    checkChecksum(R.Ops, "native sheet vs vm", Cases[0].Sim->stateChecksum(),
                  Cases[1].Sim->stateChecksum(), 2);
    if (Rounds % 4 == 1)
      Calib.push_back(hostCalibMs());
  }
  double Timed = secondsSince(Start);
  Counters P1 = Counters::now();

  // Output check (untimed): the native sheet's final state equals a
  // one-thread replay of the same steps; the check counts as one op of
  // each case.
  {
    Case &Nat = Cases[1];
    sim::TissueSimulator Replay(*Nat.Compiled->Model,
                                sheet(kSide, 1, Nat.Sim->stepsDone()));
    Replay.run();
    checkChecksum(R.Ops, "native sheet vs 1-thread replay",
                  Replay.stateChecksum(), Nat.Sim->stateChecksum(), 2);
  }

  std::vector<double> P50s, P90s;
  for (Case &C : Cases) {
    CaseTimes Ct = summarizeCase(R, C.tier(), kStepsPerOp, C.OpSec);
    P50s.push_back(Ct.MedianMs);
    P90s.push_back(Ct.P90Ms);
    R.e2e(std::string("cell_steps_per_s.") + C.tier(),
          Nodes * double(kStepsPerOp) / (Ct.MeanMs * 1e-3), "cell-steps/s");
  }
  R.EndToEnd.insert(R.EndToEnd.begin(), {"setup_s", median(SetupS), "s"});
  R.e2e("op_ms.p50", geomean(P50s), "ms");
  R.e2e("op_ms.p90", geomean(P90s), "ms");
  R.e2e("ops_per_s", double(Ops) / Timed, "ops/s");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");
  R.note("host.calib_ms " + std::to_string(median(Calib)));

  if (T) {
    int64_t Compiles = int64_t(Cases.size()) * kSetupReps;
    addCommonLayerMetrics(R, *T, S0, S1, Compiles, Ops);
    R.layer("compiler.cold_compile_ms", T->meanMs("compileEntry.vm"), "ms");
    R.layer("compiler.native_attach_ms",
            T->meanMs("compileEntry.native"), "ms");
    R.layer("compiler.native_cc_s", ccSecondsEach(C0, C1), "s");
    R.layer("compiler.bytecode_instrs",
            delta(S0, S1, "compile.bytecode.instrs") / double(Compiles),
            "count");
    R.layer("sim.construct_ms",
            T->meanMs("TissueSimulator::TissueSimulator"), "ms");
    double Steps = double(Ops * kStepsPerOp), Wall = 0, KernelNs = 0;
    for (const Case &C : Cases) {
      Wall += C.WallNs;
      KernelNs += double(C.KernelNs);
    }
    double StepMs = Wall * 1e-6 / Steps;
    double KernelMs = KernelNs / kThreads * 1e-6 / Steps;
    double StencilBytes = 0, Serial = 0, Barrier2 = 0;
    {
      Tracer::Scope S(T, "sim", "DiffusionOperator::publish+apply");
      Serial = stencilMs(kSide, 21, StencilBytes);
    }
    {
      Tracer::Scope S(T, "runtime", "Scheduler::forEachShard.2t");
      Barrier2 = dispatchBarrierUs(2, 2001);
    }
    // Two FTCS half-steps per Strang step, split over the shards.
    double StencilMs = 2 * Serial / kThreads;
    double PforPerStep = delta(P0, P1, "pool.parallel_for.calls") / Steps;
    R.layer("exec.kernel_share", KernelMs / StepMs, "ratio");
    R.layer("runtime.parallel_for_per_step", PforPerStep, "count");
    R.layer("sim.stages_per_step", delta(P0, P1, "sim.sched.stages") / Steps,
            "count");
    R.layer("sim.stencil_ms_per_step", StencilMs, "ms");
    R.layer("sim.stencil_gbps", StencilBytes / (Serial * 1e-3) * 1e-9,
            "GB/s");
    R.layer("sim.step_ms", StepMs, "ms");
    R.layer("sim.unexplained_share",
            1.0 - (KernelMs + StencilMs + Barrier2 * 1e-3 * PforPerStep) /
                      StepMs,
            "ratio");
    R.layer("host.calib_ms", median(Calib), "ms");

    // Baseline for the pool/stage item: a 64 x 64 sheet at two threads,
    // whose op medians jump between windows of one process at this
    // commit. Diagnostic only.
    std::vector<double> WindowMedians;
    sim::TissueSimulator Probe(*Cases[1].Compiled->Model, sheet(64, 2, 50));
    for (int W = 0; W != 8; ++W) {
      std::vector<double> Ms;
      for (int I = 0; I != 10; ++I) {
        Clock::time_point T0 = Clock::now();
        Probe.run();
        Ms.push_back(secondsSince(T0) * 1e3);
      }
      WindowMedians.push_back(median(Ms));
    }
    auto [Lo, Hi] = std::minmax_element(WindowMedians.begin(),
                                        WindowMedians.end());
    double Mid = median(WindowMedians);
    R.layer("tissue64.op_ms", Mid, "ms");
    R.layer("tissue64.window_spread", (*Hi - *Lo) / Mid, "ratio");
  }
  return R;
}
