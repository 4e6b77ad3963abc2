//===- Plan.cpp -----------------------------------------------------------===//

#include "Plan.h"

#include <algorithm>
#include <cstdio>

using namespace perfbench;

uint64_t Rng::next() {
  uint64_t Z = (S += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

const std::vector<std::string> &perfbench::modelPool(char SizeClass) {
  // Single-thread ns/cell-step at 8192 cells, limpetMLIR(8), VM / native,
  // on a 4-vCPU x86-64 host: MitchellSchaeffer 15 / 9; Stewart 331 / 203
  // and LuoRudy94 318 / 194, both with 11 state variables and within
  // 0.3 MB of each other's footprint; ClancyRudy 600 / 341.
  // IyerMazhariWinslow costs the same as ClancyRudy but needs 1 MB more
  // per case, which would make peak_rss_mb depend on the draw.
  static const std::vector<std::string> Small = {"MitchellSchaeffer"};
  static const std::vector<std::string> Medium = {"Stewart", "LuoRudy94"};
  static const std::vector<std::string> Large = {"ClancyRudy"};
  return SizeClass == 'S' ? Small : SizeClass == 'M' ? Medium : Large;
}

int64_t perfbench::ionicStepsPerOp(char SizeClass) {
  return SizeClass == 'S' ? 160 : SizeClass == 'M' ? 8 : 4;
}

std::vector<std::string> perfbench::drawIonicModels(uint64_t Seed) {
  Rng R(Seed ^ 0x10c1c);
  std::vector<std::string> Out;
  for (char C : {'S', 'M', 'L'}) {
    const std::vector<std::string> &Pool = modelPool(C);
    Out.push_back(Pool[R.below(Pool.size())]);
  }
  return Out;
}

const char *perfbench::jobKindName(JobKind K) {
  switch (K) {
  case JobKind::VmPopulation:
    return "vm-population";
  case JobKind::NativePopulation:
    return "native-population";
  case JobKind::TissueSheet:
    return "tissue-sheet";
  case JobKind::NativeSweep:
    return "native-sweep";
  }
  return "?";
}

namespace {

/// A job of \p Kind over \p Cells cells: guarded HodgkinHuxley under
/// limpetMLIR(8), streaming progress every quarter and checkpointing
/// halfway, plus the kind's own \p Fields.
JobTemplate job(JobKind Kind, int64_t Cells, int64_t Steps,
                const char *Engine, const std::string &Fields) {
  JobTemplate T;
  T.Kind = Kind;
  T.Cells = Cells;
  T.Steps = Steps;
  T.ProgressEvery = Steps / 4;
  T.Body = R"("model":"HodgkinHuxley",)" + Fields + R"(,"steps":)" +
           std::to_string(Steps) + R"(,"guard":true,"progress_every":)" +
           std::to_string(T.ProgressEvery) + R"(,"checkpoint_every":)" +
           std::to_string(Steps / 2) +
           R"(,"config":{"preset":"limpetmlir","width":8},"engine":")" +
           Engine + "\"";
  return T;
}

JobTemplate populationJob(JobKind K, const char *Engine, int64_t Cells,
                          int64_t Steps) {
  return job(K, Cells, Steps, Engine,
             R"("cells":)" + std::to_string(Cells));
}

JobTemplate tissueJob(int64_t N, int64_t Steps) {
  return job(JobKind::TissueSheet, N * N, Steps, "vm",
             R"("tissue_nx":)" + std::to_string(N) + R"(,"tissue_ny":)" +
                 std::to_string(N));
}

/// A gNa sweep over a physiological band with \p Poison members replaced
/// by finite but pathological conductances at seeded positions.
JobTemplate sweepJob(Rng &R, int64_t Members, int64_t CellsPer,
                     int64_t Steps, int64_t Poison) {
  std::vector<int64_t> Bad;
  while (int64_t(Bad.size()) < Poison) {
    int64_t M = int64_t(R.below(uint64_t(Members)));
    if (std::find(Bad.begin(), Bad.end(), M) == Bad.end())
      Bad.push_back(M);
  }
  std::string Sweep = "gNa=";
  for (int64_t M = 0; M != Members; ++M) {
    char Buf[32];
    bool IsBad = std::find(Bad.begin(), Bad.end(), M) != Bad.end();
    double V = IsBad ? (R.below(2) ? 1e9 : 1e12) : 100.0 + 40.0 * R.unit();
    std::snprintf(Buf, sizeof(Buf), "%s%.10g", M ? "," : "", V);
    Sweep += Buf;
  }
  JobTemplate T = job(JobKind::NativeSweep, Members * CellsPer, Steps,
                      "native",
                      R"("ensemble_sweep":")" + Sweep +
                          R"(","ensemble_cells_per":)" +
                          std::to_string(CellsPer));
  T.ExpectQuarantined = Poison;
  return T;
}

} // namespace

DaemonPlan perfbench::makeDaemonPlan(uint64_t Seed, int Clients,
                                     int JobsPerClient) {
  Rng R(Seed ^ 0xdae3);
  DaemonPlan P;
  // Each kind is sized to about 0.3 s of service time at this commit
  // (one runner, one stepping thread).
  P.Kinds.push_back(populationJob(JobKind::VmPopulation, "vm", 1024, 3000));
  P.Kinds.push_back(
      populationJob(JobKind::NativePopulation, "native", 1024, 5000));
  P.Kinds.push_back(tissueJob(64, 600));
  P.Kinds.push_back(sweepJob(R, 64, 8, 4000, 2));
  for (int C = 0; C != Clients; ++C) {
    std::vector<int> Seq;
    while (int(Seq.size()) < JobsPerClient) {
      int Block[kNumJobKinds] = {0, 1, 2, 3};
      for (int I = kNumJobKinds - 1; I > 0; --I)
        std::swap(Block[I], Block[R.below(uint64_t(I) + 1)]);
      Seq.insert(Seq.end(), Block, Block + kNumJobKinds);
    }
    Seq.resize(size_t(JobsPerClient));
    P.Sequence.push_back(std::move(Seq));
  }
  return P;
}
