//===- BenchHarness.cpp ---------------------------------------------------===//

#include "bench/BenchHarness.h"

#include "compiler/CompilerDriver.h"
#include "exec/Backend.h"
#include "easyml/Sema.h"
#include "support/Casting.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace limpet;
using namespace limpet::bench;
using namespace limpet::exec;

/// The banner title of the currently running bench; stamps the "bench"
/// field of NDJSON records so one stats file can hold several figures.
static std::string CurrentBenchName = "bench";

static int64_t envInt(const char *Name, int64_t Default) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return Default;
  return std::atoll(V);
}

BenchProtocol BenchProtocol::fromEnv(int64_t DefaultCells,
                                     int64_t DefaultSteps,
                                     int DefaultRepeats) {
  BenchProtocol P;
  P.NumCells = envInt("LIMPET_BENCH_CELLS", DefaultCells);
  P.NumSteps = envInt("LIMPET_BENCH_STEPS", DefaultSteps);
  P.Repeats = int(envInt("LIMPET_BENCH_REPEATS", DefaultRepeats));
  P.GuardRails = envInt("LIMPET_BENCH_GUARD", 0) != 0;
  if (const char *Dir = std::getenv("LIMPET_BENCH_CHECKPOINT_DIR");
      Dir && *Dir)
    P.CheckpointDir = Dir;
  P.CheckpointEvery = envInt("LIMPET_BENCH_CHECKPOINT_EVERY", 0);
  return P;
}

std::vector<const models::ModelEntry *> bench::selectedModels() {
  std::vector<const models::ModelEntry *> Selected;
  const char *Filter = std::getenv("LIMPET_BENCH_MODELS");
  if (!Filter || !*Filter) {
    for (const models::ModelEntry &M : models::modelRegistry())
      Selected.push_back(&M);
    return Selected;
  }
  for (const std::string &Name : splitString(Filter, ',')) {
    const models::ModelEntry *M = models::findModel(Name);
    if (M)
      Selected.push_back(M);
    else
      std::fprintf(stderr, "warning: unknown model '%s' in filter\n",
                   Name.c_str());
  }
  return Selected;
}

/// The benches always ask for native with Auto fallback semantics: the
/// figure still runs on a compiler-less box, and timeSimulation labels
/// the NDJSON rows by the tier the model actually dispatches to.
static EngineTier effectiveTier(EngineTier Tier) {
  return Tier == EngineTier::VM ? EngineTier::VM : EngineTier::Auto;
}

const CompiledModel &ModelCache::get(const models::ModelEntry &Entry,
                                     const EngineConfig &Cfg,
                                     EngineTier Tier) {
  std::string Key = Entry.Name + "|" + engineConfigName(Cfg) + "|" +
                    std::string(engineTierName(effectiveTier(Tier)));
  auto It = Cache.find(Key);
  if (It != Cache.end())
    return *It->second;

  compiler::DriverOptions Opts;
  Opts.Config = Cfg;
  Opts.Tier = effectiveTier(Tier);
  Opts.Autotune = Autotune;
  compiler::CompilerDriver Driver(std::move(Opts));
  compiler::CompileResult R = Driver.compileEntry(Entry);
  if (!R) {
    std::fprintf(stderr, "compile failed for %s: %s\n", Entry.Name.c_str(),
                 R.Err.message().c_str());
    std::abort();
  }
  auto Owned = std::make_unique<CompiledModel>(std::move(*R.Model));
  const CompiledModel &Ref = *Owned;
  Cache.emplace(std::move(Key), std::move(Owned));
  return Ref;
}

void ModelCache::prewarm(
    const std::vector<const models::ModelEntry *> &Entries,
    const std::vector<EngineConfig> &Configs, EngineTier Tier) {
  for (const EngineConfig &Cfg : Configs) {
    compiler::DriverOptions Opts;
    Opts.Config = Cfg;
    Opts.Tier = effectiveTier(Tier);
    Opts.Autotune = Autotune;
    compiler::CompilerDriver Driver(std::move(Opts));
    std::vector<compiler::CompileResult> Results =
        Driver.compileSuite(Entries);
    for (size_t I = 0; I != Results.size(); ++I) {
      compiler::CompileResult &R = Results[I];
      if (!R) {
        std::fprintf(stderr, "compile failed for %s: %s\n",
                     R.ModelName.c_str(), R.Err.message().c_str());
        std::abort();
      }
      std::string Key = Entries[I]->Name + "|" + engineConfigName(Cfg) +
                        "|" +
                        std::string(engineTierName(effectiveTier(Tier)));
      Cache.emplace(std::move(Key),
                    std::make_unique<CompiledModel>(std::move(*R.Model)));
    }
  }
}

std::string bench::setBenchName(std::string Name) {
  std::string Prev = std::move(CurrentBenchName);
  CurrentBenchName = std::move(Name);
  return Prev;
}

double bench::timeSimulation(const CompiledModel &Model,
                             const BenchProtocol &Protocol, unsigned Threads,
                             sim::RunReport *Report,
                             const std::string &ConfigLabel) {
  telemetry::RuntimeCounters Before = telemetry::runtimeCounters();
  telemetry::Registry &Reg = telemetry::Registry::instance();
  uint64_t CkptCount0 = Reg.value("sim.checkpoint.count");
  uint64_t CkptBytes0 = Reg.value("sim.checkpoint.bytes");
  uint64_t CkptNs0 = Reg.value("sim.checkpoint.ns");
  std::vector<double> Times;
  for (int Run = 0; Run != std::max(Protocol.Repeats, 1); ++Run) {
    sim::SimOptions Opts;
    Opts.NumCells = Protocol.NumCells;
    Opts.NumSteps = Protocol.NumSteps;
    Opts.NumThreads = Threads;
    Opts.StimPeriod = 100.0;
    Opts.Guard.Enabled = Protocol.GuardRails;
    if (!Protocol.CheckpointDir.empty()) {
      // Per-(model, config) subdirectory: concurrent figures and sweep
      // points must not rotate each other's checkpoint files away.
      // Config names use '/' as a separator; flatten to one level.
      std::string Sub = Model.info().Name + "-" +
                        engineConfigName(Model.config());
      std::replace(Sub.begin(), Sub.end(), '/', '-');
      Opts.Checkpoint.Dir = Protocol.CheckpointDir + "/" + Sub;
      Opts.Checkpoint.EveryN = Protocol.CheckpointEvery;
    }
    sim::Simulator S(Model, Opts);
    auto T0 = std::chrono::steady_clock::now();
    S.run();
    auto T1 = std::chrono::steady_clock::now();
    Times.push_back(std::chrono::duration<double>(T1 - T0).count());
    if (Report)
      Report->merge(S.report());
  }
  std::sort(Times.begin(), Times.end());
  // Paper protocol: eliminate the two extrema, average the rest.
  if (Protocol.DropExtrema && Times.size() >= 3) {
    Times.erase(Times.begin());
    Times.pop_back();
  }
  double Sum = 0;
  for (double T : Times)
    Sum += T;
  double Seconds = Sum / double(Times.size());

  BenchStat S;
  S.Bench = CurrentBenchName;
  S.Model = Model.info().Name;
  // Label rows by the tier that actually ran: a native-tier request that
  // fell back to the VM must not produce a fake "+native" row.
  S.Config = !ConfigLabel.empty()
                 ? ConfigLabel
                 : engineConfigName(Model.config()) +
                       (Model.usingNativeTier() ? "+native" : "");
  S.Threads = Threads;
  S.Cells = Protocol.NumCells;
  S.Steps = Protocol.NumSteps;
  S.Repeats = std::max(Protocol.Repeats, 1);
  S.Seconds = Seconds;
  telemetry::RuntimeCounters After = telemetry::runtimeCounters();
  uint64_t DNs = After.KernelNs - Before.KernelNs;
  uint64_t DCells = After.CellSteps - Before.CellSteps;
  S.NsPerCellStep = DCells ? double(DNs) / double(DCells) : 0.0;
  S.CellStepsPerSec = DNs ? double(DCells) * 1e9 / double(DNs) : 0.0;
  S.LutInterps = After.LutInterps - Before.LutInterps;
  S.FastMathCalls = After.FastMathCalls - Before.FastMathCalls;
  S.LibmCalls = After.LibmCalls - Before.LibmCalls;
  S.BytesLoaded = After.BytesLoaded - Before.BytesLoaded;
  S.BytesStored = After.BytesStored - Before.BytesStored;
  S.CheckpointCount = Reg.value("sim.checkpoint.count") - CkptCount0;
  S.CheckpointBytes = Reg.value("sim.checkpoint.bytes") - CkptBytes0;
  S.CheckpointNs = Reg.value("sim.checkpoint.ns") - CkptNs0;
  recordBenchStat(S);
  return Seconds;
}

/// Minimal JSON string escaping for model/config names.
static std::string jsonQuoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if ((unsigned char)C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  Out += '"';
  return Out;
}

std::string BenchStat::json() const {
  char Buf[256];
  std::string Out = "{\"bench\":" + jsonQuoted(Bench);
  Out += ",\"model\":" + jsonQuoted(Model);
  Out += ",\"config\":" + jsonQuoted(Config);
  Out += ",\"isa\":" + jsonQuoted(BackendRegistry::global().isa());
  std::snprintf(Buf, sizeof Buf,
                ",\"threads\":%u,\"cells\":%lld,\"steps\":%lld,"
                "\"repeats\":%d,\"seconds\":%.9g",
                Threads, (long long)Cells, (long long)Steps, Repeats,
                Seconds);
  Out += Buf;
  std::snprintf(Buf, sizeof Buf,
                ",\"ns_per_cell_step\":%.6g,\"cell_steps_per_sec\":%.6g,"
                "\"lut_interps\":%llu,\"fastmath_calls\":%llu,"
                "\"libm_calls\":%llu,\"bytes_loaded\":%llu,"
                "\"bytes_stored\":%llu",
                NsPerCellStep, CellStepsPerSec,
                (unsigned long long)LutInterps,
                (unsigned long long)FastMathCalls,
                (unsigned long long)LibmCalls,
                (unsigned long long)BytesLoaded,
                (unsigned long long)BytesStored);
  Out += Buf;
  std::snprintf(Buf, sizeof Buf,
                ",\"checkpoint_count\":%llu,\"checkpoint_bytes\":%llu,"
                "\"checkpoint_ns\":%llu}",
                (unsigned long long)CheckpointCount,
                (unsigned long long)CheckpointBytes,
                (unsigned long long)CheckpointNs);
  Out += Buf;
  return Out;
}

bool bench::recordBenchStat(const BenchStat &S) {
  const char *Path = std::getenv("LIMPET_BENCH_STATS");
  if (!Path || !*Path)
    return false;
  std::FILE *F = std::fopen(Path, "a");
  if (!F) {
    std::fprintf(stderr, "warning: cannot append to LIMPET_BENCH_STATS=%s\n",
                 Path);
    return false;
  }
  std::string Line = S.json();
  Line += '\n';
  std::fputs(Line.c_str(), F);
  std::fclose(F);
  return true;
}

double bench::geomean(const std::vector<double> &Values) {
  double LogSum = 0;
  size_t N = 0;
  for (double V : Values) {
    if (V <= 0)
      continue;
    LogSum += std::log(V);
    ++N;
  }
  return N ? std::exp(LogSum / double(N)) : 0.0;
}

std::string bench::renderTable(
    const std::vector<std::vector<std::string>> &Rows) {
  if (Rows.empty())
    return "";
  std::vector<size_t> Widths;
  for (const auto &Row : Rows) {
    if (Widths.size() < Row.size())
      Widths.resize(Row.size(), 0);
    for (size_t C = 0; C != Row.size(); ++C)
      Widths[C] = std::max(Widths[C], Row[C].size());
  }
  std::string Out;
  for (size_t R = 0; R != Rows.size(); ++R) {
    for (size_t C = 0; C != Rows[R].size(); ++C) {
      Out += C == 0 ? padRight(Rows[R][C], Widths[C])
                    : padLeft(Rows[R][C], Widths[C]);
      if (C + 1 != Rows[R].size())
        Out += "  ";
    }
    Out += '\n';
    if (R == 0) {
      size_t Total = 0;
      for (size_t C = 0; C != Widths.size(); ++C)
        Total += Widths[C] + (C + 1 != Widths.size() ? 2 : 0);
      Out += std::string(Total, '-');
      Out += '\n';
    }
  }
  return Out;
}

void bench::printBanner(const std::string &Title,
                        const std::string &PaperRef,
                        const BenchProtocol &Protocol) {
  CurrentBenchName = Title;
  std::printf("==================================================================\n");
  std::printf("%s\n", Title.c_str());
  std::printf("Reproduces: %s\n", PaperRef.c_str());
  std::printf("Protocol: %lld cells, %lld steps, %d repeats "
              "(paper: 8192 cells, 100000 steps, 5 repeats)\n",
              (long long)Protocol.NumCells, (long long)Protocol.NumSteps,
              Protocol.Repeats);
  std::printf("Scale with LIMPET_BENCH_CELLS / LIMPET_BENCH_STEPS / "
              "LIMPET_BENCH_REPEATS / LIMPET_BENCH_MODELS.\n");
  if (Protocol.GuardRails)
    std::printf("Guard rails: ON (health scan + fault-tolerant stepping, "
                "LIMPET_BENCH_GUARD=1)\n");
  if (!Protocol.CheckpointDir.empty())
    std::printf("Durable checkpoints: ON (dir %s, every %lld steps; "
                "overhead exported as checkpoint_* NDJSON fields)\n",
                Protocol.CheckpointDir.c_str(),
                (long long)Protocol.CheckpointEvery);
  std::printf("==================================================================\n");
}

std::string bench::className(char SizeClass) {
  switch (SizeClass) {
  case 'S':
    return "small";
  case 'M':
    return "medium";
  case 'L':
    return "large";
  default:
    return "?";
  }
}
