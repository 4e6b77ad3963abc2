//===- Main.cpp - The limpet benchmark program ----------------------------===//
//
//   perfbench --workload ionic|tissue|daemon --seed N --seconds S
//             --trace 0|1
//
// Untraced (--trace 0): runs the workload for S seconds and prints every
// end-to-end metric. Traced (--trace 1): runs the workload untraced for
// S/2 seconds, then again for S/2 with the benchmark's spans and the
// program's TraceRecorder active, and prints every per-layer metric plus
// the tracing overhead. Either way the last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "support/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ionic|tissue|daemon "
               "--seed N --seconds S --trace 0|1\n",
               Why);
  return 2;
}

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
  return Buf;
}

std::string metricsJson(const std::vector<Metric> &Ms) {
  std::string Out = "{";
  for (const Metric &M : Ms)
    Out += std::string(Out.size() > 1 ? "," : "") + "\"" + M.Name +
           "\":{\"value\":" + number(M.Value) + ",\"unit\":\"" + M.Unit +
           "\"}";
  return Out + "}";
}

/// The declared metrics in declared order, taking values from \p Got
/// (0 where the workload bypasses the layer).
std::vector<Metric> inOrder(const std::vector<MetricDecl> &Decls,
                            const std::vector<Metric> &Got) {
  std::vector<Metric> Out;
  for (const MetricDecl &D : Decls) {
    Metric M{D.Name, 0, D.Unit};
    for (const Metric &G : Got)
      if (G.Name == D.Name)
        M.Value = G.Value;
    Out.push_back(M);
  }
  return Out;
}

void printReport(const char *Title, const WorkloadResult &R,
                 const std::vector<Metric> &Ms) {
  std::printf("== %s\n", Title);
  for (const std::string &N : R.Notes)
    std::printf("%s\n", N.c_str());
  for (const Metric &M : Ms)
    std::printf("%-42s %16.6g %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("%-42s %16.6g ratio (%lld of %lld ops failed)\n",
              "failed_ratio", R.Ops.failedRatio(), (long long)R.Ops.Failed,
              (long long)R.Ops.Attempted);
  for (const std::string &Miss : R.Ops.Misses)
    std::printf("miss: %s\n", Miss.c_str());
  std::printf("output check: %s\n", R.Ops.Failed ? "FAILED" : "ok");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + K).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload") {
      A.Workload = V;
      HaveWorkload = true;
    } else if (K == "--seed") {
      A.Seed = std::strtoull(V.c_str(), &End, 10);
      HaveSeed = End && *End == '\0' && !V.empty();
    } else if (K == "--seconds") {
      A.Seconds = std::strtod(V.c_str(), &End);
      if (!End || *End || !(A.Seconds > 0))
        return usage("--seconds must be a positive number");
    } else if (K == "--trace") {
      if (V != "0" && V != "1")
        return usage("--trace must be 0 or 1");
      A.Trace = V == "1";
    } else {
      return usage(("unknown argument " + K).c_str());
    }
  }
  WorkloadResult (*Run)(const Args &, Tracer *) =
      A.Workload == "ionic"    ? runIonic
      : A.Workload == "tissue" ? runTissue
      : A.Workload == "daemon" ? runDaemon
                               : nullptr;
  if (!HaveWorkload || !Run)
    return usage("--workload must be ionic, tissue or daemon");
  if (!HaveSeed)
    return usage("--seed must be a non-negative integer");

  std::error_code Ec;
  std::filesystem::create_directories(A.WorkDir, Ec);
  const std::string CacheDir = A.WorkDir + "/native-cache";
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              A.Workload.c_str(), (unsigned long long)A.Seed, A.Seconds,
              int(A.Trace));

  WorkloadResult Out;
  std::vector<Metric> Metrics;
  if (!A.Trace) {
    useEmptyCache(CacheDir);
    Out = Run(A, nullptr);
    Metrics = inOrder(endToEndMetrics(), Out.EndToEnd);
    printReport("end-to-end", Out, Metrics);
  } else {
    Args Half = A;
    Half.Seconds = A.Seconds / 2;
    useEmptyCache(CacheDir);
    WorkloadResult Plain = Run(Half, nullptr);
    printReport("untraced pass", Plain,
                inOrder(endToEndMetrics(), Plain.EndToEnd));

    Tracer T;
    limpet::telemetry::TraceRecorder Rec;
    useEmptyCache(CacheDir);
    limpet::telemetry::TraceRecorder::setActive(&Rec);
    Out = Run(Half, &T);
    limpet::telemetry::TraceRecorder::setActive(nullptr);
    for (unsigned Threads : {1u, 2u, 4u}) {
      std::string Name = std::to_string(Threads) + "t";
      Tracer::Scope S(&T, "runtime", "Scheduler::forEachShard." + Name);
      Out.layer("runtime.dispatch_barrier_us." + Name,
                dispatchBarrierUs(Threads, 2001), "us");
    }
    Out.layer("trace.overhead.cell_steps_per_s.native",
              Out.value("cell_steps_per_s.native") -
                  Plain.value("cell_steps_per_s.native"),
              "cell-steps/s");
    Out.layer("trace.overhead.op_ms.p50",
              Out.value("op_ms.p50") - Plain.value("op_ms.p50"), "ms");
    Metrics = inOrder(perLayerMetrics(), Out.PerLayer);
    printReport("traced pass", Out, inOrder(endToEndMetrics(), Out.EndToEnd));

    std::printf("== per-layer self time (ms, traced pass)\n");
    for (const auto &[Layer, Ms] : T.selfMsByLayer())
      std::printf("%-12s %12.3f\n", Layer.c_str(), Ms);
    std::printf("== per-layer metrics\n");
    for (const Metric &M : Metrics)
      std::printf("%-42s %16.6g %s\n", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
    std::string Base = A.WorkDir + "/trace-" + A.Workload + "-" +
                       std::to_string(A.Seed);
    if (T.writeFile(Base + ".json") && Rec.writeFile(Base + ".program.json"))
      std::printf("trace: %s.json (benchmark spans), %s.program.json "
                  "(program spans)\n",
                  Base.c_str(), Base.c_str());
    Out.Ops.Attempted += Plain.Ops.Attempted;
    Out.Ops.Failed += Plain.Ops.Failed;
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              Out.Ops.Failed == 0 && Out.Ops.Attempted > 0 ? "true" : "false",
              (long long)std::max<int64_t>(1, Out.Ops.Attempted),
              (long long)Out.Ops.Failed, metricsJson(Metrics).c_str());
  return 0;
}
