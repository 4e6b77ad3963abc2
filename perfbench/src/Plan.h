//===- Plan.h - Seeded workload inputs --------------------------*- C++-*-===//
//
// Everything a workload feeds the program is generated here from the
// --seed argument: the ionic model draw and the daemon's job sequence.
// Nothing is calibrated from timings, so a parent and a change given one
// seed do exactly the same work.
//
// Model pools. The seed draws one model per size class, but only among
// the registry models of that class whose VM and native kernel costs and
// memory footprints lie within a few percent of each other (measured at
// the commit that defined the benchmark). A second seed then draws
// different models without moving the expected work, which keeps the
// end-to-end figures comparable across seeds. Only the medium class has
// two such models; the small and large pools hold one each.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PLAN_H
#define PERFBENCH_PLAN_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: tiny, seedable, identical on every platform.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  /// Uniform integer in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
  /// Uniform double in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t S;
};

/// The cost-banded pool of registry models for size class 'S', 'M', 'L'.
const std::vector<std::string> &modelPool(char SizeClass);

/// Steps per ionic op for a model of \p SizeClass (about 20 ms of VM time
/// over 8192 cells at this commit).
int64_t ionicStepsPerOp(char SizeClass);

/// One model per class, small -> medium -> large.
std::vector<std::string> drawIonicModels(uint64_t Seed);

/// The tissue sheet's model. On the sheet Stewart steps about 9% slower
/// than LuoRudy94, more than host noise, so of the medium pool only
/// LuoRudy94 remains and the seed does not choose the sheet's model.
inline constexpr const char *kTissueModel = "LuoRudy94";

/// The four daemon job kinds.
enum class JobKind { VmPopulation, NativePopulation, TissueSheet, NativeSweep };
inline constexpr int kNumJobKinds = 4;
const char *jobKindName(JobKind K);

/// One concrete job: the submit line's JSON body (without tenant, which
/// the client adds) and what a correct run must report.
struct JobTemplate {
  JobKind Kind = JobKind::VmPopulation;
  std::string Body;
  int64_t Cells = 0; ///< simulated cells (members x cells per member)
  int64_t Steps = 0;
  int64_t ProgressEvery = 0;
  /// Sweep members seeded with a pathological conductance; the run must
  /// quarantine exactly these (-1 for non-sweep kinds).
  int64_t ExpectQuarantined = -1;
};

struct DaemonPlan {
  std::vector<JobTemplate> Kinds; ///< indexed by JobKind
  /// Per client, the kind of each successive job: seeded shuffles of
  /// whole blocks of all four kinds, so every prefix of a run keeps the
  /// mix balanced.
  std::vector<std::vector<int>> Sequence;
};

DaemonPlan makeDaemonPlan(uint64_t Seed, int Clients, int JobsPerClient);

} // namespace perfbench

#endif // PERFBENCH_PLAN_H
