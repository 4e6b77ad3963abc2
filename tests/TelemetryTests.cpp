//===- TelemetryTests.cpp - observability layer unit tests ----------------===//
//
// Covers the counter registry, scoped timers, the thread-local runtime
// shards (merged across a real ThreadPool fan-out), Chrome trace-event
// JSON well-formedness, the bench NDJSON sink, and the zero-overhead
// guarantee of telemetry-off builds (TelemetryOffCheck.cpp, a TU compiled
// with LIMPET_TELEMETRY_ENABLED=0 and linked into this binary).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchHarness.h"
#include "easyml/Sema.h"
#include "exec/Backend.h"
#include "models/Registry.h"
#include "runtime/ThreadPool.h"
#include "sim/Simulator.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

using namespace limpet;

/// Defined in TelemetryOffCheck.cpp (built with telemetry disabled).
/// Returns a bitmask of passed checks; kOffCheckAll means all passed.
int telemetryOffCheck();
extern const int kOffCheckAll;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON well-formedness checker (no external dependencies).
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(std::string_view S) : P(S.data()), E(S.data() + S.size()) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return P == E;
  }

private:
  const char *P, *E;

  void skipWs() {
    while (P != E && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool lit(const char *S) {
    size_t N = std::strlen(S);
    if (size_t(E - P) < N || std::strncmp(P, S, N) != 0)
      return false;
    P += N;
    return true;
  }
  bool string() {
    if (P == E || *P != '"')
      return false;
    ++P;
    while (P != E && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P == E)
          return false;
      }
      ++P;
    }
    if (P == E)
      return false;
    ++P; // closing quote
    return true;
  }
  bool number() {
    const char *Start = P;
    if (P != E && (*P == '-' || *P == '+'))
      ++P;
    while (P != E && (std::isdigit((unsigned char)*P) || *P == '.' ||
                      *P == 'e' || *P == 'E' || *P == '-' || *P == '+'))
      ++P;
    return P != Start;
  }
  bool value() {
    skipWs();
    if (P == E)
      return false;
    if (*P == '{')
      return object();
    if (*P == '[')
      return array();
    if (*P == '"')
      return string();
    if (lit("true") || lit("false") || lit("null"))
      return true;
    return number();
  }
  bool object() {
    ++P; // '{'
    skipWs();
    if (P != E && *P == '}') {
      ++P;
      return true;
    }
    while (true) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (P == E || *P != ':')
        return false;
      ++P;
      if (!value())
        return false;
      skipWs();
      if (P != E && *P == ',') {
        ++P;
        continue;
      }
      break;
    }
    if (P == E || *P != '}')
      return false;
    ++P;
    return true;
  }
  bool array() {
    ++P; // '['
    skipWs();
    if (P != E && *P == ']') {
      ++P;
      return true;
    }
    while (true) {
      if (!value())
        return false;
      skipWs();
      if (P != E && *P == ',') {
        ++P;
        continue;
      }
      break;
    }
    if (P == E || *P != ']')
      return false;
    ++P;
    return true;
  }
};

bool isValidJson(std::string_view S) { return JsonChecker(S).valid(); }

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(isValidJson("{}"));
  EXPECT_TRUE(isValidJson(R"({"a":[1,2.5,-3e4],"b":"x\"y","c":null})"));
  EXPECT_FALSE(isValidJson("{"));
  EXPECT_FALSE(isValidJson(R"({"a":})"));
  EXPECT_FALSE(isValidJson(R"({"a":1} extra)"));
}

//===----------------------------------------------------------------------===//
// Counter registry
//===----------------------------------------------------------------------===//

TEST(Telemetry, CounterBasics) {
  telemetry::Counter &C = telemetry::counter("test.basics.a");
  C.reset();
  EXPECT_EQ(C.get(), 0u);
  C.add();
  C.add(41);
  EXPECT_EQ(C.get(), 42u);
  // Repeated lookup yields the same counter object.
  EXPECT_EQ(&telemetry::counter("test.basics.a"), &C);
  EXPECT_EQ(telemetry::Registry::instance().value("test.basics.a"), 42u);
  EXPECT_EQ(telemetry::Registry::instance().value("test.basics.missing"), 0u);
  C.reset();
}

TEST(Telemetry, SnapshotSortedAndSummaryRenders) {
  telemetry::counter("test.summary.z").add(1);
  telemetry::counter("test.summary.a.ns").add(2'500'000);
  auto Snap = telemetry::Registry::instance().snapshot();
  EXPECT_TRUE(std::is_sorted(
      Snap.begin(), Snap.end(),
      [](const auto &L, const auto &R) { return L.first < R.first; }));

  std::string Summary = telemetry::Registry::instance().summary();
  EXPECT_NE(Summary.find("summary"), std::string::npos);
  EXPECT_NE(Summary.find("z"), std::string::npos);
  // ".ns" counters also render as milliseconds.
  EXPECT_NE(Summary.find("ms"), std::string::npos);
  telemetry::counter("test.summary.z").reset();
  telemetry::counter("test.summary.a.ns").reset();
}

TEST(Telemetry, ScopedTimerAccumulates) {
  telemetry::Counter &C = telemetry::counter("test.timer.ns");
  C.reset();
  {
    telemetry::ScopedTimerNs T(C);
    // Do a little real work so even a coarse clock ticks.
    volatile double X = 1.0;
    for (int I = 0; I != 10000; ++I)
      X = X * 1.0000001;
  }
  EXPECT_GT(C.get(), 0u);
  C.reset();
}

//===----------------------------------------------------------------------===//
// Runtime shards
//===----------------------------------------------------------------------===//

TEST(Telemetry, RecordKernelChunkDerivedCounts) {
  telemetry::resetRuntimeCounters();
  telemetry::recordKernelChunk(/*Ns=*/1000, /*Cells=*/10, /*Width=*/4,
                               /*FastMath=*/true, /*LutOpsPerCell=*/3,
                               /*MathOpsPerCell=*/2);
  telemetry::recordKernelChunk(/*Ns=*/500, /*Cells=*/5, /*Width=*/1,
                               /*FastMath=*/false, /*LutOpsPerCell=*/0,
                               /*MathOpsPerCell=*/7);
  telemetry::RuntimeCounters R = telemetry::runtimeCounters();
  EXPECT_EQ(R.KernelCalls, 2u);
  EXPECT_EQ(R.KernelNs, 1500u);
  EXPECT_EQ(R.CellSteps, 15u);
  EXPECT_EQ(R.CellStepsByWidth[telemetry::RuntimeCounters::widthSlot(4)],
            10u);
  EXPECT_EQ(R.CellStepsByWidth[telemetry::RuntimeCounters::widthSlot(1)],
            5u);
  EXPECT_EQ(R.LutInterps, 30u);      // 3 ops x 10 cells
  EXPECT_EQ(R.FastMathCalls, 20u);   // 2 ops x 10 cells
  EXPECT_EQ(R.LibmCalls, 35u);       // 7 ops x 5 cells
  EXPECT_DOUBLE_EQ(R.nsPerCellStep(), 100.0);
  EXPECT_NE(R.str().find("cell-steps"), std::string::npos);
  telemetry::resetRuntimeCounters();
}

TEST(Telemetry, ShardsMergeAcrossThreadPool) {
  telemetry::resetRuntimeCounters();
  runtime::ThreadPool &Pool = runtime::globalThreadPool();
  constexpr int64_t N = 1000;
  Pool.parallelFor(0, N, /*NumThreads=*/4, [](int64_t Begin, int64_t End) {
    // One chunk record per range element, from whichever worker runs it.
    for (int64_t I = Begin; I != End; ++I)
      telemetry::recordKernelChunk(/*Ns=*/1, /*Cells=*/2, /*Width=*/8,
                                   /*FastMath=*/true, /*LutOpsPerCell=*/1,
                                   /*MathOpsPerCell=*/0);
  });
  // parallelFor has a full barrier, so merging here is race-free.
  telemetry::RuntimeCounters R = telemetry::runtimeCounters();
  EXPECT_EQ(R.KernelCalls, uint64_t(N));
  EXPECT_EQ(R.KernelNs, uint64_t(N));
  EXPECT_EQ(R.CellSteps, uint64_t(2 * N));
  EXPECT_EQ(R.CellStepsByWidth[telemetry::RuntimeCounters::widthSlot(8)],
            uint64_t(2 * N));
  EXPECT_EQ(R.LutInterps, uint64_t(2 * N));
  telemetry::resetRuntimeCounters();
}

TEST(Telemetry, WidthSlotMapping) {
  using RC = telemetry::RuntimeCounters;
  EXPECT_EQ(RC::widthSlot(1), 0u);
  EXPECT_EQ(RC::widthSlot(2), 1u);
  EXPECT_EQ(RC::widthSlot(4), 2u);
  EXPECT_EQ(RC::widthSlot(8), 3u);
  EXPECT_EQ(RC::widthSlot(16), 0u); // unsupported widths collapse to 0
}

//===----------------------------------------------------------------------===//
// Trace recording
//===----------------------------------------------------------------------===//

TEST(Trace, SpansAreNoOpsWithoutRecorder) {
  ASSERT_EQ(telemetry::TraceRecorder::active(), nullptr);
  telemetry::TraceSpan S("orphan", "test"); // must not crash or record
}

TEST(Trace, RecorderProducesWellFormedJson) {
  telemetry::TraceRecorder R;
  telemetry::TraceRecorder::setActive(&R);
  {
    telemetry::TraceSpan Outer("outer", "test");
    telemetry::TraceSpan Inner("inner \"quoted\"\n", "test");
  }
  R.instant("marker", "test");
  R.counterSample("cells", 4096.0);
  telemetry::TraceRecorder::setActive(nullptr);

  // 2 spans + instant + counter + process_name metadata.
  EXPECT_EQ(R.eventCount(), 4u);
  EXPECT_EQ(R.droppedCount(), 0u);
  std::string Json = R.json();
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"outer\""), std::string::npos);
  EXPECT_NE(Json.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(Trace, WriteFileRoundTrips) {
  telemetry::TraceRecorder R;
  telemetry::TraceRecorder::setActive(&R);
  { telemetry::TraceSpan S("span", "test"); }
  telemetry::TraceRecorder::setActive(nullptr);

  std::string Path = testing::TempDir() + "limpet_trace_test.json";
  std::string Error;
  ASSERT_TRUE(R.writeFile(Path, &Error)) << Error;
  std::ifstream In(Path);
  std::stringstream Ss;
  Ss << In.rdbuf();
  EXPECT_TRUE(isValidJson(Ss.str()));
  std::remove(Path.c_str());

  EXPECT_FALSE(R.writeFile("/nonexistent-dir/x/y.json", &Error));
  EXPECT_FALSE(Error.empty());
}

//===----------------------------------------------------------------------===//
// Bench NDJSON sink
//===----------------------------------------------------------------------===//

TEST(BenchStats, JsonRecordIsValid) {
  bench::BenchStat S;
  S.Bench = "unit \"test\"";
  S.Model = "HodgkinHuxley";
  S.Config = "vec8/aosoa/fastmath/lut";
  S.Threads = 2;
  S.Cells = 4096;
  S.Steps = 100;
  S.Repeats = 3;
  S.Seconds = 0.125;
  S.NsPerCellStep = 12.5;
  S.CellStepsPerSec = 8e7;
  S.LutInterps = 123;
  S.LibmCalls = 456;
  S.CheckpointCount = 7;
  S.CheckpointBytes = 8192;
  S.CheckpointNs = 90000;
  std::string Json = S.json();
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"model\":\"HodgkinHuxley\""), std::string::npos);
  EXPECT_NE(Json.find("\"isa\":\"" + exec::BackendRegistry::global().isa() +
                      "\""),
            std::string::npos);
  EXPECT_NE(Json.find("\\\"test\\\""), std::string::npos);
  EXPECT_NE(Json.find("\"checkpoint_count\":7"), std::string::npos);
  EXPECT_NE(Json.find("\"checkpoint_bytes\":8192"), std::string::npos);
  EXPECT_NE(Json.find("\"checkpoint_ns\":90000"), std::string::npos);
}

TEST(BenchStats, EnvSinkAppendsNdjsonLines) {
  std::string Path = testing::TempDir() + "limpet_bench_stats_test.ndjson";
  std::remove(Path.c_str());

  bench::BenchStat S;
  S.Bench = "sink-test";
  S.Model = "M";
  S.Config = "scalar/aos/libm/lut";

  // Unset: the sink reports false and writes nothing.
  unsetenv("LIMPET_BENCH_STATS");
  EXPECT_FALSE(bench::recordBenchStat(S));

  setenv("LIMPET_BENCH_STATS", Path.c_str(), 1);
  EXPECT_TRUE(bench::recordBenchStat(S));
  S.Model = "N";
  EXPECT_TRUE(bench::recordBenchStat(S));
  unsetenv("LIMPET_BENCH_STATS");

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  int Lines = 0;
  while (std::getline(In, Line)) {
    EXPECT_TRUE(isValidJson(Line)) << Line;
    ++Lines;
  }
  EXPECT_EQ(Lines, 2);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// End-to-end: a real compile+run populates the registry and shards
//===----------------------------------------------------------------------===//

std::optional<exec::CompiledModel> compileSuiteModel(const char *Name) {
  const models::ModelEntry *M = models::findModel(Name);
  if (!M)
    return std::nullopt;
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(M->Name, M->Source, Diags);
  if (!Info)
    return std::nullopt;
  return exec::CompiledModel::compile(*Info, exec::EngineConfig::baseline());
}

TEST(Telemetry, CompileAndRunPopulateCounters) {
  telemetry::resetRuntimeCounters();
  auto Model = compileSuiteModel("MitchellSchaeffer");
  ASSERT_TRUE(Model.has_value());
  // The compile pipeline bumped its stage counters.
  auto &Reg = telemetry::Registry::instance();
  EXPECT_GT(Reg.value("compile.model.count"), 0u);
  EXPECT_GT(Reg.value("compile.codegen.ns"), 0u);
  EXPECT_GT(Reg.value("compile.bytecode.programs"), 0u);

  sim::SimOptions Opts;
  Opts.NumCells = 16;
  Opts.NumSteps = 8;
  sim::Simulator S(*Model, Opts);
  S.run();
  telemetry::RuntimeCounters R = telemetry::runtimeCounters();
  EXPECT_EQ(R.CellSteps, uint64_t(16 * 8));
  EXPECT_GT(R.KernelCalls, 0u);
  telemetry::resetRuntimeCounters();
}

TEST(Telemetry, SimOptionsStatsPrintsSummary) {
  auto Model = compileSuiteModel("MitchellSchaeffer");
  ASSERT_TRUE(Model.has_value());
  sim::SimOptions Opts;
  Opts.NumCells = 8;
  Opts.NumSteps = 4;
  Opts.Stats = true;
  sim::Simulator S(*Model, Opts);
  testing::internal::CaptureStdout();
  S.run();
  std::string Out = testing::internal::GetCapturedStdout();
  EXPECT_NE(Out.find("counter"), std::string::npos) << Out;
}

TEST(Telemetry, PassStatisticsTableRenders) {
  auto Model = compileSuiteModel("MitchellSchaeffer");
  ASSERT_TRUE(Model.has_value());
  const transforms::PassStatistics &PS = Model->kernel().PassStats;
  ASSERT_FALSE(PS.Entries.empty());
  std::string Table = PS.str();
  EXPECT_NE(Table.find("cse"), std::string::npos);
  EXPECT_NE(Table.find("ops before"), std::string::npos);
  for (const auto &E : PS.Entries) {
    EXPECT_FALSE(E.PassName.empty());
    EXPECT_GT(E.OpsBefore, 0);
    EXPECT_GT(E.OpsAfter, 0);
  }
}

//===----------------------------------------------------------------------===//
// Zero-overhead guarantee of telemetry-off builds
//===----------------------------------------------------------------------===//

TEST(TelemetryOff, DisabledTuCompilesToStubs) {
  EXPECT_EQ(telemetryOffCheck(), kOffCheckAll);
}

} // namespace
