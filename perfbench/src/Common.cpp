//===- Common.cpp ---------------------------------------------------------===//

#include "Common.h"
#include "Stats.h"

#include "compiler/KernelEmitter.h"
#include "models/Registry.h"
#include "sim/Scheduler.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sys/resource.h>

using namespace perfbench;
using namespace limpet;

void Ledger::fail(std::string Why, int64_t Ops) {
  Attempted += Ops;
  Failed += Ops;
  if (Misses.size() < 16)
    Misses.push_back(std::move(Why));
}

bool perfbench::sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

bool perfbench::checkChecksum(Ledger &L, std::string_view What, double Want,
                              double Got, int64_t Ops) {
  if (std::isfinite(Got) && sameBits(Want, Got)) {
    L.pass(Ops);
    return true;
  }
  L.fail(std::string(What) + ": checksum " + checksumText(Got) +
             " != expected " + checksumText(Want),
         Ops);
  return false;
}

std::string perfbench::checksumText(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

double WorkloadResult::value(std::string_view Name) const {
  for (const std::vector<Metric> *L : {&EndToEnd, &PerLayer})
    for (const Metric &M : *L)
      if (M.Name == Name)
        return M.Value;
  return 0;
}

CaseTimes perfbench::summarizeCase(WorkloadResult &R,
                                   const std::string &Label,
                                   int64_t StepsPerOp,
                                   const std::vector<double> &OpSec) {
  std::vector<double> Ms;
  for (double S : OpSec)
    Ms.push_back(S * 1e3);
  CaseTimes C{mean(Ms), median(Ms), percentile(Ms, 90)};
  auto [Q1, Q3] = quartiles(Ms);
  char Buf[240];
  std::snprintf(Buf, sizeof(Buf),
                "case %-28s steps/op %3lld  ops %4zu  mean %8.3f ms  "
                "median %8.3f ms [%.3f, %.3f]  p90 %8.3f ms (%lld beyond)",
                Label.c_str(), (long long)StepsPerOp, Ms.size(), C.MeanMs,
                C.MedianMs, Q1, Q3, C.P90Ms,
                (long long)samplesBeyond(Ms.size(), 90));
  R.note(Buf);
  return C;
}

double perfbench::secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double perfbench::peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

double perfbench::hostCalibMs() {
  Clock::time_point T0 = Clock::now();
  volatile double Sink = 0;
  double X = 1.0;
  for (int I = 0; I != 1 << 18; ++I)
    X = X * 1.0000001 + 1e-9 / (X + double(I & 7));
  Sink = X;
  (void)Sink;
  return secondsSince(T0) * 1e3;
}

double perfbench::dispatchBarrierUs(unsigned Threads, int Reps) {
  sim::Scheduler S(2048, Threads, 8);
  std::vector<double> Us;
  for (int I = 0; I != Reps; ++I) {
    Clock::time_point T0 = Clock::now();
    S.forEachShard([](unsigned, int64_t, int64_t) {});
    Us.push_back(secondsSince(T0) * 1e6);
  }
  return median(Us);
}

void perfbench::useEmptyCache(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  std::filesystem::create_directories(Dir, Ec);
  compiler::CompileCache::global().setDiskDir(
      std::filesystem::absolute(Dir, Ec).string());
  compiler::CompileCache::global().setDiskBudget(0);
  compiler::CompileCache::global().clearMemory();
  compiler::clearNativeKernelRegistry();
}

void perfbench::coldenCaches() {
  compiler::CompileCache::global().clearMemory();
  compiler::clearNativeKernelRegistry();
  std::string Dir = compiler::CompileCache::global().diskDir();
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec))
    if (E.path().extension() == ".lmpa")
      std::filesystem::remove(E.path(), Ec);
}

compiler::CompileResult perfbench::compileModel(Tracer *T,
                                                const std::string &Name,
                                                exec::EngineTier Tier) {
  Tracer::Scope S(T, "compiler",
                  Tier == exec::EngineTier::VM ? "compileEntry.vm"
                                               : "compileEntry.native");
  compiler::DriverOptions O;
  O.Config = exec::EngineConfig::limpetMLIR(8);
  O.Tier = Tier;
  O.UseCache = false;
  const models::ModelEntry *E = models::findModel(Name);
  if (!E) {
    compiler::CompileResult R;
    R.ModelName = Name;
    R.Err = Status::error("unknown model '" + Name + "'");
    return R;
  }
  return compiler::CompilerDriver(O).compileEntry(*E);
}

std::string perfbench::unusable(const compiler::CompileResult &R,
                                exec::EngineTier Tier) {
  if (!R)
    return R.ModelName + ": compile failed: " + R.Err.message();
  if (Tier == exec::EngineTier::Native && !R.Model->usingNativeTier())
    return R.ModelName + ": native tier did not attach: " +
           R.NativeErr.message();
  return "";
}

telemetry::RuntimeCounters
perfbench::runtimeSince(const telemetry::RuntimeCounters &Before) {
  telemetry::RuntimeCounters Now = telemetry::runtimeCounters(), D;
  D.KernelNs = Now.KernelNs - Before.KernelNs;
  D.CellSteps = Now.CellSteps - Before.CellSteps;
  D.LutInterps = Now.LutInterps - Before.LutInterps;
  D.FastMathCalls = Now.FastMathCalls - Before.FastMathCalls;
  D.LibmCalls = Now.LibmCalls - Before.LibmCalls;
  D.BytesLoaded = Now.BytesLoaded - Before.BytesLoaded;
  D.BytesStored = Now.BytesStored - Before.BytesStored;
  return D;
}

double perfbench::ccSecondsEach(const Counters &A, const Counters &B) {
  double N = delta(A, B, "native.cc.count");
  return N > 0 ? delta(A, B, "native.cc.ns") * 1e-9 / N : 0;
}

Counters Counters::now() {
  Counters C;
  C.Reg = telemetry::Registry::instance().snapshot();
  return C;
}

uint64_t Counters::get(std::string_view Path) const {
  for (const auto &[K, V] : Reg)
    if (K == Path)
      return V;
  return 0;
}

void perfbench::addCommonLayerMetrics(WorkloadResult &R, const Tracer &T,
                                      const Counters &A, const Counters &B,
                                      int64_t Compiles, int64_t Ops) {
  double PerCompile = Compiles > 0 ? 1e-6 / double(Compiles) : 0;
  for (unsigned I = 0; I != compiler::kNumStages; ++I) {
    std::string Stage(compiler::stageName(compiler::Stage(I)));
    R.layer("compiler.stage_ms." + Stage,
            delta(A, B, "compile.stage." + Stage + ".ns") * PerCompile, "ms");
  }
  R.layer("runtime.lut_build_ms",
          delta(A, B, "compile.lut.build.ns") * PerCompile, "ms");
  std::map<std::string, double> Self = T.selfMsByLayer();
  for (const char *L : {"easyml", "compiler", "exec", "sim", "daemon"})
    R.layer(std::string("layer_self_ms_per_op.") + L,
            Ops > 0 ? Self[L] / double(Ops) : 0, "ms");
}

const std::vector<MetricDecl> &perfbench::endToEndMetrics() {
  static const std::vector<MetricDecl> L = {
      {"setup_s", "s", "lower"},
      {"cell_steps_per_s.vm", "cell-steps/s", "higher"},
      {"cell_steps_per_s.native", "cell-steps/s", "higher"},
      {"op_ms.p50", "ms", "lower"},
      {"op_ms.p90", "ms", "lower"},
      {"ops_per_s", "ops/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return L;
}

const std::vector<MetricDecl> &perfbench::perLayerMetrics() {
  static const std::vector<MetricDecl> L = {
      {"easyml.frontend_ms", "ms", "lower"},
      {"compiler.stage_ms.frontend", "ms", "lower"},
      {"compiler.stage_ms.preprocess", "ms", "lower"},
      {"compiler.stage_ms.integrator", "ms", "lower"},
      {"compiler.stage_ms.lut-analysis", "ms", "lower"},
      {"compiler.stage_ms.emit-ir", "ms", "lower"},
      {"compiler.stage_ms.opt", "ms", "lower"},
      {"compiler.stage_ms.vectorize", "ms", "lower"},
      {"compiler.stage_ms.emit-bytecode", "ms", "lower"},
      {"compiler.cold_compile_ms", "ms", "lower"},
      {"compiler.bytecode_instrs", "count", "lower"},
      {"compiler.native_attach_ms", "ms", "lower"},
      {"compiler.native_cc_s", "s", "lower"},
      {"compiler.warm_compile_ms", "ms", "lower"},
      {"compiler.cache_hit_ratio", "ratio", "higher"},
      {"exec.kernel_ns_per_cell_step.vm", "ns", "lower"},
      {"exec.kernel_ns_per_cell_step.native", "ns", "lower"},
      {"exec.bytes_per_cell_step", "B", "lower"},
      {"exec.lut_interps_per_cell_step", "count", "lower"},
      {"exec.math_calls_per_cell_step", "count", "lower"},
      {"exec.kernel_share", "ratio", "higher"},
      {"runtime.lut_build_ms", "ms", "lower"},
      {"runtime.dispatch_barrier_us.1t", "us", "lower"},
      {"runtime.dispatch_barrier_us.2t", "us", "lower"},
      {"runtime.dispatch_barrier_us.4t", "us", "lower"},
      {"runtime.parallel_for_per_step", "count", "lower"},
      {"sim.stages_per_step", "count", "lower"},
      {"sim.stencil_ms_per_step", "ms", "lower"},
      {"sim.stencil_gbps", "GB/s", "higher"},
      {"sim.step_ms", "ms", "lower"},
      {"sim.unexplained_share", "ratio", "lower"},
      {"sim.construct_ms", "ms", "lower"},
      {"sim.health_scan_us", "us", "lower"},
      {"sim.recovery_ms_per_sweep", "ms", "lower"},
      {"sim.quarantined_per_sweep", "count", "lower"},
      {"sim.checkpoint_ms", "ms", "lower"},
      {"sim.checkpoint_bytes", "B", "lower"},
      {"daemon.admit_ms", "ms", "lower"},
      {"daemon.queue_to_first_progress_ms", "ms", "lower"},
      {"daemon.run_share", "ratio", "higher"},
      {"daemon.journal_append_us", "us", "lower"},
      {"host.calib_ms", "ms", "lower"},
      {"tissue64.op_ms", "ms", "lower"},
      {"tissue64.window_spread", "ratio", "lower"},
      {"layer_self_ms_per_op.easyml", "ms", "lower"},
      {"layer_self_ms_per_op.compiler", "ms", "lower"},
      {"layer_self_ms_per_op.exec", "ms", "lower"},
      {"layer_self_ms_per_op.sim", "ms", "lower"},
      {"layer_self_ms_per_op.daemon", "ms", "lower"},
      {"trace.overhead.cell_steps_per_s.native", "cell-steps/s", "higher"},
      {"trace.overhead.op_ms.p50", "ms", "lower"},
  };
  return L;
}
