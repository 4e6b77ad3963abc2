//===- BenchTests.cpp - Unit tests of the benchmark's own code ------------===//
//
//   perfbench_tests [path/to/BENCHMARK.json]
//
// Aggregation helpers, the op ledger, seeded input generation, the
// native-kernel priming rule and (when given the path) the agreement of
// BENCHMARK.json with the metric lists the benchmark prints. Exit status
// 0 when every check passes.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Plan.h"
#include "Stats.h"

#include "sim/Simulator.h"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const char *What) {
  std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What);
  Failures += !Ok;
}

bool near(double A, double B) { return std::fabs(A - B) < 1e-12; }

void testAggregation() {
  check(near(median({3, 1, 2}), 2), "median of an odd sample");
  check(near(median({4, 1, 3, 2}), 2.5), "median of an even sample");
  check(median({}) == 0, "median of nothing is 0");

  // Reference values from Python's statistics.quantiles(V, n=4).
  auto Q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check(near(Q.first, 2.75) && near(Q.second, 8.25), "quartiles of 1..10");
  Q = quartiles({1, 2, 3, 4});
  check(near(Q.first, 1.25) && near(Q.second, 3.75), "quartiles of 1..4");
  Q = quartiles({5, 1, 9, 3, 7, 2});
  check(near(Q.first, 1.75) && near(Q.second, 7.5), "quartiles, unsorted");
  Q = quartiles({3, 1});
  check(near(Q.first, 0.5) && near(Q.second, 3.5), "quartiles of two");

  check(near(mean({1, 2, 6}), 3), "mean");
  check(mean({}) == 0, "mean of nothing is 0");
  // Op times from a fast (10 ms) and a slow (15 ms) mode: one op moving
  // from one mode to the other moves the mean by under 4% and the median
  // by 50%.
  std::vector<double> MostlyFast = {10, 10, 10, 10, 10, 10,
                                    15, 15, 15, 15, 15};
  std::vector<double> MostlySlow = {10, 10, 10, 10, 10, 15,
                                    15, 15, 15, 15, 15};
  check(near(median(MostlySlow) / median(MostlyFast), 1.5) &&
            mean(MostlySlow) / mean(MostlyFast) < 1.04,
        "the mean of bimodal op times moves with the slow share");

  check(near(geomean({2, 8}), 4), "geomean");
  check(geomean({2, 0}) == 0, "geomean with a missing case is 0");
  check(near(geomean({median({1, 100, 2}), median({8, 8, 9})}), 4),
        "geomean of per-case medians ignores outliers");

  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(double(I));
  check(near(percentile(V, 90), 90), "nearest-rank p90 of 1..100");
  check(near(percentile(V, 50), 50), "nearest-rank p50 of 1..100");
  check(samplesBeyond(100, 90) == 10, "100 samples leave 10 beyond p90");
  check(samplesBeyond(99, 90) == 9, "99 samples leave 9 beyond p90");
}

void testLedger() {
  Ledger L;
  check(checkChecksum(L, "same", 1.5, 1.5, 2), "equal checksums pass");
  check(!checkChecksum(L, "off by one ulp", 1.5, std::nextafter(1.5, 2.0)),
        "a mismatched checksum fails");
  check(!checkChecksum(L, "nan", NAN, NAN), "a non-finite state fails");
  check(L.Attempted == 4 && L.Failed == 2, "failed ops are counted");
  check(near(L.failedRatio(), 0.5), "failed ratio");
  check(L.Misses.size() == 2, "each miss keeps its reason");
}

void testSeeds() {
  check(drawIonicModels(7) == drawIonicModels(7), "same seed, same draw");
  bool Differs = false;
  for (uint64_t S = 2; S != 12; ++S)
    Differs |= drawIonicModels(S) != drawIonicModels(1);
  check(Differs, "another seed gives another draw");
  check(drawIonicModels(1).size() == 3, "one model per size class");
  for (char C : {'S', 'M', 'L'})
    for (const std::string &M : modelPool(C)) {
      const limpet::models::ModelEntry *E = limpet::models::findModel(M);
      check(E && E->SizeClass == C, ("pool model in its class: " + M).c_str());
    }

  DaemonPlan A = makeDaemonPlan(3, 3, 40), B = makeDaemonPlan(3, 3, 40),
             C = makeDaemonPlan(4, 3, 40);
  bool Same = A.Sequence == B.Sequence;
  for (size_t K = 0; K != A.Kinds.size(); ++K)
    Same &= A.Kinds[K].Body == B.Kinds[K].Body;
  check(Same, "same seed, same job sequence and job bodies");
  check(A.Sequence != C.Sequence, "another seed, another job sequence");
  check(A.Kinds[3].Body != C.Kinds[3].Body, "another seed, another sweep");
  for (const std::vector<int> &Seq : A.Sequence) {
    int Count[kNumJobKinds] = {};
    for (size_t I = 0; I != 40; ++I)
      ++Count[Seq[I]];
    check(Count[0] == 10 && Count[1] == 10 && Count[2] == 10 &&
              Count[3] == 10,
          "every block of four jobs holds each kind once");
  }

  // The program's output is a function of the generated inputs alone.
  auto Run = [](uint64_t Seed) {
    std::string Model = drawIonicModels(Seed)[0];
    limpet::compiler::CompileResult R =
        compileModel(nullptr, Model, limpet::exec::EngineTier::VM);
    limpet::sim::SimOptions O;
    O.NumCells = 64;
    O.NumSteps = 50;
    limpet::sim::Simulator S(*R.Model, O);
    S.run();
    return S.stateChecksum();
  };
  check(sameBits(Run(5), Run(5)), "same seed, same checksum");
}

/// The native-kernel priming rule: a pass compiles its kernels into an
/// emptied private cache, its timed set-ups attach them without the C++
/// compiler, and the next pass (as after a rebuild) never reuses them.
void testNativeCache() {
  namespace fs = std::filesystem;
  const std::string Dir = Args().WorkDir + "/test-cache";
  const char *Model = "MitchellSchaeffer";
  auto CcCount = [] { return Counters::now().get("native.cc.count"); };
  auto Attached = [&] {
    limpet::compiler::CompileResult R =
        compileModel(nullptr, Model, limpet::exec::EngineTier::Native);
    return unusable(R, limpet::exec::EngineTier::Native).empty();
  };
  auto Files = [&] {
    std::error_code Ec;
    size_t N = 0;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec))
      N += E.is_regular_file();
    return N;
  };

  useEmptyCache(Dir);
  uint64_t N0 = CcCount();
  check(Attached() && CcCount() == N0 + 1 && Files() > 0,
        "priming compiles the kernel into the private cache");
  coldenCaches();
  check(Attached() && CcCount() == N0 + 1,
        "a cold set-up attaches the primed kernel without the C++ compiler");
  useEmptyCache(Dir);
  check(Files() == 0, "the next pass starts from an empty cache");
  check(Attached() && CcCount() == N0 + 2,
        "the next pass compiles its kernel anew, never an old build's .so");
  std::error_code Ec;
  fs::remove_all(Dir, Ec);
}

void testDeclarations(const char *Path) {
  std::ifstream F(Path);
  std::stringstream SS;
  SS << F.rdbuf();
  std::string Json = SS.str();
  check(!Json.empty(), "BENCHMARK.json is readable");
  size_t Declared = 0;
  for (size_t At = 0; (At = Json.find("\"better\": ", At)) != Json.npos; ++At)
    ++Declared;
  check(Declared == endToEndMetrics().size() + perLayerMetrics().size(),
        "BENCHMARK.json declares no metric the benchmark does not print");
  for (const std::vector<MetricDecl> *L :
       {&endToEndMetrics(), &perLayerMetrics()})
    for (const MetricDecl &D : *L) {
      std::string Want = std::string("\"name\": \"") + D.Name +
                         "\", \"unit\": \"" + D.Unit + "\", \"better\": \"" +
                         D.Better + "\"";
      check(Json.find(Want) != std::string::npos,
            ("BENCHMARK.json declares " + std::string(D.Name)).c_str());
    }
}

} // namespace

int main(int Argc, char **Argv) {
  testAggregation();
  testLedger();
  testSeeds();
  testNativeCache();
  if (Argc > 1)
    testDeclarations(Argv[1]);
  std::printf("%d failure(s)\n", Failures);
  return Failures ? 1 : 0;
}
