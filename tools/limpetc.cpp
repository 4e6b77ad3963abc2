//===- limpetc.cpp - limpetMLIR compiler driver ---------------------------------===//
//
// Command-line driver over the compilation pipeline, in the spirit of
// mlir-opt: reads an EasyML model (a file, or a suite model by name) and
// prints the requested stage.
//
//   limpetc --list                          all 43 suite models
//   limpetc HodgkinHuxley --info            semantic summary
//   limpetc model.easyml --ir               optimized scalar kernel IR
//   limpetc OHara --vector-ir --width 8     vectorized kernel IR
//   limpetc OHara --bytecode --layout aosoa compiled register program
//   limpetc OHara --luts                    extracted LUT columns
//   limpetc OHara --passes=cse,licm,dce --print-ir-after=opt
//   limpetc OHara --emit-artifact o.lmpa    serialize the compiled model
//   limpetc OHara --load-artifact o.lmpa --run   run it, skipping codegen
//   limpetc --suite --width 8               compile all 43 concurrently
//
//===----------------------------------------------------------------------===//

#include "codegen/Vectorize.h"
#include "compiler/Artifact.h"
#include "compiler/CompileCache.h"
#include "compiler/CompilerDriver.h"
#include "compiler/Serialize.h"
#include "easyml/Preprocessor.h"
#include "easyml/Sema.h"
#include "exec/Backend.h"
#include "exec/BytecodeCompiler.h"
#include "ir/Context.h"
#include "ir/Printer.h"
#include "models/Registry.h"
#include "sim/Run.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "support/Trace.h"
#include "transforms/Pass.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>

using namespace limpet;

namespace {

void printUsage() {
  std::printf(
      "usage: limpetc <model-name|file.easyml> [options]\n"
      "       limpetc --suite [options]\n"
      "  --list              list the 43 suite models and exit\n"
      "  --info              semantic summary (default)\n"
      "  --program           integrator-expanded update expressions\n"
      "  --luts              extracted LUT table columns\n"
      "  --ir                optimized scalar kernel IR\n"
      "  --vector-ir         vectorized kernel IR\n"
      "  --bytecode          compiled register bytecode\n"
      "  --width N|auto      vector width 2/4/8 (default 8); auto picks the\n"
      "                      execution point per model from the persisted\n"
      "                      tuning record, the autotuner (--autotune) or\n"
      "                      the host-capability heuristic\n"
      "  --autotune          with --width=auto: when no tuning record\n"
      "                      exists, benchmark every registry point and\n"
      "                      persist the winner ($LIMPET_CACHE_DIR/*.tune)\n"
      "  --tune-report       print the persisted tuning record (winner and\n"
      "                      per-point measurements) and exit\n"
      "  --layout aos|soa|aosoa (default aos; aosoa for --vector-ir)\n"
      "  --no-lut            disable LUT extraction\n"
      "  --no-passes         skip the optimization pipeline\n"
      "  --passes=P1,P2,...  run this pass pipeline instead of the default\n"
      "                      (mlir-opt style; see --passes=help)\n"
      "  --print-ir-after=S  print the IR snapshot after stage S (repeatable;\n"
      "                      stages: frontend, preprocess, integrator,\n"
      "                      lut-analysis, emit-ir, opt, vectorize,\n"
      "                      emit-bytecode)\n"
      "  --print-ir-after-all  print the snapshot after every stage\n"
      "  --emit-artifact F   compile and serialize the model to F\n"
      "  --load-artifact F   assemble the model from F instead of running\n"
      "                      codegen (combine with --run)\n"
      "  --suite             compile every suite model concurrently under\n"
      "                      the selected configuration (content-addressed\n"
      "                      cache; set LIMPET_CACHE_DIR for a disk tier)\n"
      "  --jobs N            bound the --suite compile fan-out to N threads\n"
      "                      (--jobs=1 compiles strictly in registry order)\n"
      "  --engine=vm|native|auto  execution tier (default vm). native\n"
      "                      compiles the model's program to machine code\n"
      "                      via the system C++ compiler and dlopen (warns\n"
      "                      and falls back to the VM when no toolchain is\n"
      "                      available); auto does the same silently.\n"
      "                      See docs/COMPILER.md for cache + env knobs\n"
      "  --no-cache          bypass the compile cache\n"
      "  --cache-gc          evict the disk cache tier down to\n"
      "                      LIMPET_CACHE_MAX_BYTES (LRU by mtime) and exit\n"
      "  --run               compile and simulate, printing a run report\n"
      "  --steps N           simulation steps for --run (default 1000);\n"
      "                      with --resume, the *total* target step\n"
      "  --cells N           population size for --run (default 256)\n"
      "  --dt MS             integration step in ms for --run (default\n"
      "                      0.01)\n"
      "  --tissue NX[xNY]    run a reaction-diffusion tissue grid instead\n"
      "                      of an uncoupled population: NX*NY nodes\n"
      "                      coupled by Vm diffusion under Strang\n"
      "                      splitting (overrides --cells; docs/TISSUE.md)\n"
      "  --dx D              tissue node spacing in cm (default 0.025)\n"
      "  --sigma S           effective diffusivity sigma/(beta*Cm) in\n"
      "                      cm^2/ms (default 0.001)\n"
      "  --diffusion M       diffusion method for --tissue: ftcs\n"
      "                      (explicit, default) or cn (Crank-Nicolson,\n"
      "                      1D only)\n"
      "  --stim P            tissue stimulus protocol: 's1s2:key=v,...',\n"
      "                      'cross:...', 'region:...' clauses joined by\n"
      "                      ';', or 'none' (grammar in docs/TISSUE.md;\n"
      "                      default: a pulse train on the x=0 edge)\n"
      "  --cv A,B            with --tissue: record an activation map and\n"
      "                      print the conduction velocity between node\n"
      "                      indices A and B after the run\n"
      "  --sweep EXPR        run a parameter-sweep ensemble instead of one\n"
      "                      uniform population: 'gK=0.1:0.5:5;gNa=7,11'\n"
      "                      expands a value grid (cross product), each\n"
      "                      point one member, every member stepped by ONE\n"
      "                      compiled kernel with member-local fault\n"
      "                      quarantine (docs/ENSEMBLE.md)\n"
      "  --ensemble F        like --sweep but with an explicit JSON member\n"
      "                      list: an array of {\"param\": value} objects,\n"
      "                      or {\"cells_per_member\":n,\"members\":[...]}\n"
      "  --member-cells N    cells each ensemble member simulates\n"
      "                      (default 1)\n"
      "  --member-stats F    after an ensemble run, write one NDJSON line\n"
      "                      per member (status, retries, quarantine\n"
      "                      reason, state checksum) to F\n"
      "  --guard             enable the numerical guard rails for --run\n"
      "                      (health scan, checkpoint/retry, degradation;\n"
      "                      see docs/ROBUSTNESS.md)\n"
      "  --checkpoint-dir D  write durable checkpoints into D during --run\n"
      "                      (rotated ckpt-<step>.lmpc files; SIGINT/SIGTERM\n"
      "                      write one final checkpoint and exit cleanly)\n"
      "  --checkpoint-every N  checkpoint cadence in steps (default 0 =\n"
      "                      only the final shutdown checkpoint)\n"
      "  --retain N          rotated checkpoints to keep (default 3)\n"
      "  --resume            resume --run from the newest valid checkpoint\n"
      "                      in --checkpoint-dir (corrupt/truncated files\n"
      "                      are skipped and deleted; the run continues\n"
      "                      bit-identically to an uninterrupted one)\n"
      "  --timeout S         wall-clock budget in seconds for --run: the\n"
      "                      same cooperative deadline limpetd enforces.\n"
      "                      The run stops at a step boundary, writes one\n"
      "                      final checkpoint (with --checkpoint-dir), and\n"
      "                      exits 3 — recoverable via --resume\n"
      "  --stats             print the pass-timing table and telemetry\n"
      "                      counters (see docs/OBSERVABILITY.md)\n"
      "  --trace FILE        write a Chrome trace-event JSON covering\n"
      "                      parse/sema/codegen/run to FILE\n");
}

/// Keeps a TraceRecorder active for the lifetime of the driver and writes
/// it to Path on destruction, so every exit path produces a valid trace.
class TraceFile {
public:
  explicit TraceFile(std::string Path) : Path(std::move(Path)) {
    if (!this->Path.empty())
      telemetry::TraceRecorder::setActive(&Recorder);
  }
  TraceFile(const TraceFile &) = delete;
  TraceFile &operator=(const TraceFile &) = delete;
  ~TraceFile() {
    if (Path.empty())
      return;
    telemetry::TraceRecorder::setActive(nullptr);
    if (!telemetry::kEnabled) {
      std::fprintf(stderr,
                   "warning: --trace ignored (telemetry disabled at build "
                   "time)\n");
      return;
    }
    std::string Error;
    if (Recorder.writeFile(Path, &Error))
      std::fprintf(stderr, "wrote %zu trace events to %s\n",
                   Recorder.eventCount(), Path.c_str());
    else
      std::fprintf(stderr, "error: %s\n", Error.c_str());
  }

private:
  std::string Path;
  telemetry::TraceRecorder Recorder;
};

/// Prints the optimization-pass table (once one is available) and the
/// telemetry counter summary when the driver exits with --stats set.
class StatsReport {
public:
  explicit StatsReport(bool Enabled) : Enabled(Enabled) {}
  StatsReport(const StatsReport &) = delete;
  StatsReport &operator=(const StatsReport &) = delete;
  void setPassStats(const transforms::PassStatistics &S) { Table = S.str(); }
  ~StatsReport() {
    if (!Enabled)
      return;
    if (!Table.empty())
      std::printf("\n%s", Table.c_str());
    std::printf("\n%s", telemetry::summaryReport().c_str());
  }

private:
  bool Enabled;
  std::string Table;
};

/// "cold", "warm-mem" or "warm-disk" for a compile result.
const char *compileKind(const compiler::CompileResult &R) {
  if (!R.CacheHit)
    return "cold";
  return R.DiskHit ? "warm-disk" : "warm-mem";
}

/// How the native kernel was obtained, for the status line the JIT smoke
/// harness greps: "compiled" means the system compiler actually ran.
const char *nativeKind(const compiler::CompileResult &R) {
  if (!R.NativeCacheHit)
    return "compiled";
  return R.NativeDiskHit ? "cache-disk" : "cache-mem";
}

/// Reports the native-tier outcome for one compile to stderr. Silent when
/// the VM tier was requested; a missing native kernel is a warning under
/// --engine=native and silent under --engine=auto (fallback by design).
void reportNativeTier(const compiler::CompileResult &R,
                      exec::EngineTier Tier) {
  if (Tier == exec::EngineTier::VM || !R.Err.isOk())
    return;
  if (R.NativeAttached) {
    std::fprintf(stderr, "native kernel %s: %s (key %016llx)\n",
                 R.ModelName.c_str(), nativeKind(R),
                 (unsigned long long)R.NativeKey);
    return;
  }
  if (Tier == exec::EngineTier::Native)
    std::fprintf(stderr,
                 "warning: native tier unavailable for %s, running on the "
                 "VM: %s\n",
                 R.ModelName.c_str(), R.NativeErr.message().c_str());
}

void printSnapshots(const compiler::CompileResult &R) {
  for (const compiler::StageRecord &S : R.Stages)
    if (!S.Snapshot.empty())
      std::printf("// ----- after %s -----\n%s\n",
                  std::string(compiler::stageName(S.S)).c_str(),
                  S.Snapshot.c_str());
}

/// Reports a successful compile of \p Model: the compile line, the
/// auto-width choice and the native tier to stderr, the pass table to
/// --stats.
void reportCompile(const compiler::CompileResult &R,
                   const exec::CompiledModel &Model, exec::EngineTier Tier,
                   StatsReport &StatsOut) {
  StatsOut.setPassStats(Model.kernel().PassStats);
  std::fprintf(stderr, "compiled %s (%s): %s, %.2f ms\n", R.ModelName.c_str(),
               exec::engineConfigName(Model.config()).c_str(), compileKind(R),
               double(R.TotalNs) * 1e-6);
  if (R.AutoSelected)
    std::fprintf(stderr, "auto point: %s via %s (key %016llx)\n",
                 R.AutoPointName.c_str(),
                 std::string(compiler::tuneSourceName(R.AutoSource)).c_str(),
                 (unsigned long long)R.TuneKey);
  reportNativeTier(R, Tier);
}

/// --emit-artifact: serializes \p R's model to \p Path.
bool emitArtifact(const compiler::CompileResult &R, const std::string &Path) {
  std::string Bytes =
      compiler::serializeArtifact(compiler::CompilerDriver::makeArtifact(
          *R.Model, R.ModelName, R.SourceHash));
  if (Status S = compiler::writeFileAtomic(Bytes, Path); !S) {
    std::fprintf(stderr, "error: %s\n", S.message().c_str());
    return false;
  }
  std::printf("wrote artifact %s (%zu bytes, source hash %016llx)\n",
              Path.c_str(), Bytes.size(), (unsigned long long)R.SourceHash);
  return true;
}

/// The --run flags that belong to limpetc, not to the run description.
struct RunFlags {
  std::string Cv;          ///< --cv A,B
  std::string MemberStats; ///< --member-stats F
  std::string EmitArtifact;
  bool Resume = false;
};

/// limpetc --run: builds the run through sim::buildRun, the assembly
/// limpetd's jobs use, then reports, runs and prints the outcome.
/// Returns the process exit code.
int runModel(const sim::RunSpec &Spec, const sim::RunEnv &Env,
             const RunFlags &F, StatsReport &StatsOut) {
  if (F.Resume && Env.CheckpointDir.empty()) {
    std::fprintf(stderr, "error: --resume needs --checkpoint-dir\n");
    return 1;
  }
  // --cv=A,B: probe node indices for the post-run conduction-velocity
  // readout (tissue only).
  long long CvA = -1, CvB = -1;
  if (!F.Cv.empty()) {
    if (!Spec.isTissue()) {
      std::fprintf(stderr, "error: --cv needs --tissue\n");
      return 1;
    }
    long long Nodes = Spec.TissueNX * Spec.TissueNY;
    if (std::sscanf(F.Cv.c_str(), "%lld,%lld", &CvA, &CvB) != 2 || CvA < 0 ||
        CvB < 0 || CvA == CvB || CvA >= Nodes || CvB >= Nodes) {
      std::fprintf(stderr,
                   "error: bad --cv spec '%s' (want two distinct node "
                   "indices A,B inside the grid)\n",
                   F.Cv.c_str());
      return 1;
    }
  }

  Expected<std::unique_ptr<sim::Run>> Built = sim::buildRun(Spec, Env);
  if (!Built) {
    std::fprintf(stderr, "error: %s\n", Built.status().message().c_str());
    return 1;
  }
  sim::Run &R = **Built;
  sim::Simulator &S = *R.Sim;
  printSnapshots(R.Compile);
  reportCompile(R.Compile, R.model(), Spec.Tier, StatsOut);
  if (!F.EmitArtifact.empty() && !emitArtifact(R.Compile, F.EmitArtifact))
    return 1;
  sim::TissueSimulator *TissueSim = R.tissueSim();
  sim::EnsembleRunner *EnsSim = R.ensembleRunner();
  if (TissueSim) {
    std::printf("tissue %lldx%lld: dx=%g cm, sigma=%g cm^2/ms, "
                "diffusion=%s, stim=%s\n",
                (long long)TissueSim->grid().NX,
                (long long)TissueSim->grid().NY, TissueSim->grid().Dx,
                TissueSim->tissueOptions().Sigma,
                sim::diffusionMethodName(TissueSim->tissueOptions().Method),
                TissueSim->stimulus().str().c_str());
    if (CvA >= 0)
      TissueSim->enableActivationMap(-20.0);
  }
  if (EnsSim) {
    std::string SweptNames;
    for (const std::string &P : R.Sweep->Swept)
      SweptNames += (SweptNames.empty() ? "" : ",") + P;
    std::printf("ensemble: %lld members x %lld cells (swept: %s)\n",
                (long long)EnsSim->numMembers(),
                (long long)EnsSim->cellsPerMember(), SweptNames.c_str());
  }
  if (!Env.CheckpointDir.empty())
    sim::installShutdownHandlers();
  if (F.Resume) {
    sim::CheckpointStore Store(Env.CheckpointDir, Env.CheckpointRetain);
    std::string CkptPath;
    int Skipped = 0;
    Expected<sim::CheckpointData> C =
        Store.loadNewestValid(&CkptPath, &Skipped);
    if (!C) {
      std::fprintf(stderr, "error: %s\n", C.status().message().c_str());
      return 1;
    }
    if (Status St = S.resumeFrom(*C); !St) {
      std::fprintf(stderr, "error: %s\n", St.message().c_str());
      return 1;
    }
    // The skipped files are newer than the one resumed from. Rotation
    // keeps the highest steps, so left in place they would delete every
    // checkpoint this run writes.
    Store.removeAfter(C->StepCount);
    std::string Note =
        Skipped ? " (" + std::to_string(Skipped) +
                      " corrupt/truncated checkpoint(s) skipped and deleted)"
                : "";
    std::printf("resumed from %s at step %lld%s\n", CkptPath.c_str(),
                (long long)C->StepCount, Note.c_str());
  }

  S.run();
  // Print the simulator's (sanitized) options, not the raw flags.
  std::printf("simulated %s (%s): %lld cells x %lld steps, t=%.2f ms\n",
              Spec.Model.c_str(),
              exec::engineConfigName(R.model().config()).c_str(),
              (long long)S.options().NumCells,
              (long long)S.options().NumSteps, S.time());
  if (Spec.Tier != exec::EngineTier::VM)
    std::printf("engine tier: %s\n",
                R.steppingNative() ? "native" : "vm (fallback)");
  if (S.interrupted())
    std::printf("interrupted at step %lld (%s)%s%s\n",
                (long long)S.stepsDone(),
                std::string(sim::stopReasonName(S.stopReason())).c_str(),
                Env.CheckpointDir.empty() ? ""
                                          : ": final checkpoint written to ",
                Env.CheckpointDir.c_str());
  if (S.hasVoltageCoupling())
    std::printf("final Vm[0] = %.6f mV\n", S.vm(0));
  if (TissueSim && CvA >= 0) {
    double CV = TissueSim->conductionVelocity(CvA, CvB);
    if (std::isfinite(CV))
      std::printf("conduction velocity = %.6g cm/ms (nodes %lld..%lld)\n",
                  CV, CvA, CvB);
    else
      std::printf("conduction velocity = n/a (wavefront did not reach "
                  "nodes %lld..%lld)\n",
                  CvA, CvB);
  }
  if (EnsSim) {
    // Partial-result delivery: quarantined members are reported, not
    // fatal — the sweep still exits 0 with every member accounted for.
    std::printf("ensemble members: %lld ok, %lld quarantined\n",
                (long long)EnsSim->membersOk(),
                (long long)EnsSim->membersQuarantined());
    if (!F.MemberStats.empty()) {
      std::ofstream Out(F.MemberStats, std::ios::binary | std::ios::trunc);
      Out << EnsSim->memberStatsNdjson();
      Out.flush();
      if (!Out) {
        std::fprintf(stderr, "error: cannot write member stats to %s\n",
                     F.MemberStats.c_str());
        return 1;
      }
      std::printf("wrote member stats: %s (%lld members)\n",
                  F.MemberStats.c_str(), (long long)EnsSim->numMembers());
    }
  }
  // %.17g round-trips the double: the same digits limpetd's terminal
  // event carries, so the two compare textually.
  std::printf("state checksum = %.17g\n", S.stateChecksum());
  std::printf("guard rails: %s\n", Spec.Guard ? "on" : "off");
  std::printf("%s", S.report().str().c_str());
  bool Healthy = S.scanIsHealthy();
  std::printf("population health: %s\n", Healthy ? "ok" : "FAULTY");
  if (!Healthy)
    return 2;
  // Distinct recoverable exit for a deadline stop: scripts can tell
  // "ran out of budget, resume later" (3) from "faulty" (2).
  if (S.stopReason() == sim::StopReason::DeadlineExpired)
    return 3;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    printUsage();
    return 1;
  }

  enum class Mode { Info, Program, Luts, IR, VectorIR, Bytecode, Run, Suite };
  Mode M = Mode::Info;
  std::string ModelArg;
  unsigned Width = 8;
  bool WidthSet = false;
  bool WidthAuto = false;
  bool TuneReport = false;
  codegen::StateLayout Layout = codegen::StateLayout::AoS;
  bool LayoutSet = false;
  bool EnableLuts = true, RunPasses = true;
  std::string PassesSpec;
  bool PassesSet = false;
  std::vector<compiler::Stage> PrintIRAfter;
  bool PrintIRAll = false;
  std::string LoadArtifactPath;
  bool UseCache = true;
  // --run: the run (limpetd's JobSpec is one too), where it writes and
  // limpetc's own flags. Unguarded, final checkpoint only by default.
  sim::RunSpec Spec;
  Spec.Guard = false;
  Spec.CheckpointEveryN = 0;
  sim::RunEnv Env;
  RunFlags RF;
  bool Stats = false;
  std::string TracePath;
  bool CacheGc = false;
  unsigned SuiteJobs = 0;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    std::string Val;
    if (Arg == "--list") {
      for (const models::ModelEntry &E : models::modelRegistry())
        std::printf("%-24s %s %s\n", E.Name.c_str(),
                    E.SizeClass == 'S'   ? "small "
                    : E.SizeClass == 'M' ? "medium"
                                         : "large ",
                    E.IsClassic ? "(classic)" : "(synthetic)");
      return 0;
    } else if (Arg == "--info")
      M = Mode::Info;
    else if (Arg == "--program")
      M = Mode::Program;
    else if (Arg == "--luts")
      M = Mode::Luts;
    else if (Arg == "--ir")
      M = Mode::IR;
    else if (Arg == "--vector-ir")
      M = Mode::VectorIR;
    else if (Arg == "--bytecode")
      M = Mode::Bytecode;
    else if (Arg == "--run")
      M = Mode::Run;
    else if (Arg == "--suite")
      M = Mode::Suite;
    else if (Arg == "--no-lut")
      EnableLuts = false;
    else if (Arg == "--no-passes")
      RunPasses = false;
    else if (Arg == "--no-cache")
      UseCache = false;
    else if (Arg == "--cache-gc")
      CacheGc = true;
    else if (Arg == "--guard")
      Spec.Guard = true;
    else if (Arg == "--resume")
      RF.Resume = true;
    else if (flagValue(argc, argv, I, "--checkpoint-dir", Val))
      Env.CheckpointDir = Val;
    else if (flagValue(argc, argv, I, "--checkpoint-every", Val))
      Spec.CheckpointEveryN = std::atoll(Val.c_str());
    else if (flagValue(argc, argv, I, "--retain", Val))
      Env.CheckpointRetain = std::atoi(Val.c_str());
    else if (flagValue(argc, argv, I, "--timeout", Val))
      Spec.TimeoutSec = std::atof(Val.c_str());
    else if (flagValue(argc, argv, I, "--jobs", Val))
      SuiteJobs = unsigned(std::atoi(Val.c_str()));
    else if (flagValue(argc, argv, I, "--engine", Val)) {
      std::optional<exec::EngineTier> T = exec::engineTierFromName(Val);
      if (!T) {
        std::fprintf(stderr, "error: unknown engine '%s' (vm, native, auto)\n",
                     Val.c_str());
        return 1;
      }
      Spec.Tier = *T;
    }
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--print-ir-after-all")
      PrintIRAll = true;
    else if (startsWith(Arg, "--print-ir-after=")) {
      std::string StageStr = Arg.substr(std::strlen("--print-ir-after="));
      std::optional<compiler::Stage> S = compiler::stageFromName(StageStr);
      if (!S) {
        std::fprintf(stderr, "error: unknown stage '%s' (stages: %s)\n",
                     StageStr.c_str(), compiler::stageNameList().c_str());
        return 1;
      }
      PrintIRAfter.push_back(*S);
    } else if (startsWith(Arg, "--passes=")) {
      PassesSpec = Arg.substr(std::strlen("--passes="));
      PassesSet = true;
      if (PassesSpec == "help") {
        std::printf("registered passes:");
        for (std::string_view P : transforms::registeredPassNames())
          std::printf(" %s", std::string(P).c_str());
        std::printf("\ndefault pipeline: %s\n",
                    std::string(transforms::defaultPassPipelineSpec()).c_str());
        return 0;
      }
    } else if (Arg == "--passes" && I + 1 < argc) {
      PassesSpec = argv[++I];
      PassesSet = true;
    } else if (Arg == "--emit-artifact" && I + 1 < argc)
      RF.EmitArtifact = argv[++I];
    else if (Arg == "--load-artifact" && I + 1 < argc)
      LoadArtifactPath = argv[++I];
    else if (Arg == "--trace" && I + 1 < argc)
      TracePath = argv[++I];
    else if (Arg == "--steps" && I + 1 < argc)
      Spec.NumSteps = std::atoll(argv[++I]);
    else if (Arg == "--cells" && I + 1 < argc)
      Spec.NumCells = std::atoll(argv[++I]);
    else if (flagValue(argc, argv, I, "--dt", Val))
      Spec.Dt = std::atof(Val.c_str());
    else if (flagValue(argc, argv, I, "--tissue", Val)) {
      Expected<sim::TissueGrid> G = sim::parseTissueGrid(Val);
      if (!G) {
        std::fprintf(stderr, "error: --tissue: %s\n",
                     G.status().message().c_str());
        return 1;
      }
      Spec.TissueNX = G->NX;
      Spec.TissueNY = G->NY;
    } else if (flagValue(argc, argv, I, "--dx", Val))
      Spec.TissueDx = std::atof(Val.c_str());
    else if (flagValue(argc, argv, I, "--sigma", Val))
      Spec.TissueSigma = std::atof(Val.c_str());
    else if (flagValue(argc, argv, I, "--stim", Val))
      Spec.TissueStim = Val;
    else if (flagValue(argc, argv, I, "--cv", Val))
      RF.Cv = Val;
    else if (flagValue(argc, argv, I, "--sweep", Val))
      Spec.EnsembleSweep = Val;
    else if (flagValue(argc, argv, I, "--ensemble", Val)) {
      if (Status S = compiler::readFileBytes(Val, Spec.EnsembleMembers); !S) {
        std::fprintf(stderr, "error: %s\n", S.message().c_str());
        return 1;
      }
    }
    else if (flagValue(argc, argv, I, "--member-cells", Val))
      Spec.EnsembleCellsPer = std::atoll(Val.c_str());
    else if (flagValue(argc, argv, I, "--member-stats", Val))
      RF.MemberStats = Val;
    else if (flagValue(argc, argv, I, "--diffusion", Val)) {
      Expected<sim::DiffusionMethod> D = sim::parseDiffusionMethod(Val);
      if (!D) {
        std::fprintf(stderr, "error: %s\n", D.status().message().c_str());
        return 1;
      }
      Spec.TissueMethod = uint8_t(*D);
    }
    else if (flagValue(argc, argv, I, "--width", Val)) {
      WidthSet = true;
      if (Val == "auto")
        WidthAuto = true;
      else
        Width = unsigned(std::atoi(Val.c_str()));
    } else if (Arg == "--autotune")
      Spec.Autotune = true;
    else if (Arg == "--tune-report")
      TuneReport = true;
    else if (Arg == "--layout" && I + 1 < argc) {
      std::optional<codegen::StateLayout> L =
          codegen::stateLayoutFromName(argv[++I]);
      if (!L) {
        std::fprintf(stderr, "error: unknown layout '%s'\n", argv[I]);
        return 1;
      }
      Layout = *L;
      LayoutSet = true;
    } else if (!startsWith(Arg, "--") && ModelArg.empty()) {
      ModelArg = Arg;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return 1;
    }
  }
  // AoSoA is the natural layout when asking for vector IR.
  if (M == Mode::VectorIR && !LayoutSet)
    Layout = codegen::StateLayout::AoSoA;

  // A sweep compiles only its lowered model: there is no artifact of the
  // named model to emit. The run fields' ranges are RunSpec::validate's.
  if (Spec.isEnsemble() && (M != Mode::Run || !RF.EmitArtifact.empty())) {
    std::fprintf(stderr, "error: --sweep/--ensemble need --run and do not "
                         "combine with --emit-artifact\n");
    return 1;
  }

  // Eagerly validate a custom pipeline string so a typo is one clear error
  // even before any model is parsed.
  if (PassesSet) {
    ir::Context Ctx;
    transforms::PassManager PM(Ctx);
    if (Status S = transforms::parsePassPipeline(PassesSpec, PM); !S) {
      std::fprintf(stderr, "error: %s\n", S.message().c_str());
      return 1;
    }
  }

  if (CacheGc) {
    compiler::CompileCache &Cache = compiler::CompileCache::global();
    std::string Dir = Cache.diskDir();
    if (Dir.empty()) {
      std::fprintf(stderr, "error: --cache-gc needs a disk cache tier "
                           "(set LIMPET_CACHE_DIR)\n");
      return 1;
    }
    uint64_t Budget = Cache.diskBudget();
    compiler::CompileCache::GcStats G = Cache.gcDiskTier(Budget);
    if (Budget == 0)
      std::printf("cache %s: %llu bytes, no budget set "
                  "(LIMPET_CACHE_MAX_BYTES), nothing evicted\n",
                  Dir.c_str(), (unsigned long long)G.BytesBefore);
    else
      std::printf("cache %s: %llu -> %llu bytes (budget %llu), "
                  "%zu file(s) evicted\n",
                  Dir.c_str(), (unsigned long long)G.BytesBefore,
                  (unsigned long long)G.BytesAfter,
                  (unsigned long long)Budget, G.FilesRemoved);
    return 0;
  }

  // Both guards outlive every mode below: the recorder captures
  // parse->sema->codegen->run, and the stats report prints on any exit.
  TraceFile Trace(TracePath);
  StatsReport StatsOut(Stats);

  // The engine configuration for the driver-based modes (--run, --suite,
  // artifacts, --print-ir-after).
  // --tune-report with no explicit width reports under the auto-width
  // flags, since that is the configuration tuning records are keyed by.
  if (TuneReport && !WidthSet)
    WidthAuto = true;
  exec::EngineConfig Cfg = WidthAuto ? exec::EngineConfig::autoTuned()
                           : WidthSet && Width > 1
                               ? exec::EngineConfig::limpetMLIR(Width)
                               : exec::EngineConfig::baseline();
  if (LayoutSet)
    Cfg.Layout = Layout;
  Cfg.EnableLuts = EnableLuts;
  Cfg.RunPasses = RunPasses;
  Cfg.PassPipeline = PassesSpec;

  compiler::DriverOptions DriverOpts;
  DriverOpts.Config = Cfg;
  DriverOpts.Tier = Spec.Tier;
  DriverOpts.Autotune = Spec.Autotune;
  DriverOpts.UseCache = UseCache && !PrintIRAll && PrintIRAfter.empty();
  DriverOpts.SnapshotAll = PrintIRAll;
  DriverOpts.SnapshotStages = PrintIRAfter;
  compiler::CompilerDriver Driver(DriverOpts);

  // --tune-report: print the persisted tuning record(s) under the current
  // flags (the key covers the math/LUT/pipeline flags and the engine
  // tier, not the tuned width/layout axes) and exit.
  if (TuneReport) {
    const exec::BackendRegistry &Reg = exec::BackendRegistry::global();
    bool AllowNative = Spec.Tier != exec::EngineTier::VM;
    std::vector<std::pair<std::string, std::string>> Targets;
    if (M == Mode::Suite || ModelArg.empty()) {
      for (const models::ModelEntry &E : models::modelRegistry())
        Targets.emplace_back(E.Name, E.Source);
    } else if (const models::ModelEntry *E = models::findModel(ModelArg)) {
      Targets.emplace_back(E->Name, E->Source);
    } else if (std::string Read; compiler::readFileBytes(ModelArg, Read)) {
      Targets.emplace_back(ModelArg, std::move(Read));
    } else {
      std::fprintf(stderr,
                   "error: '%s' is neither a file nor a suite model\n",
                   ModelArg.c_str());
      return 1;
    }
    std::printf("backend registry: %s, fingerprint %016llx\n",
                Reg.isa().c_str(), (unsigned long long)Reg.fingerprint());
    size_t Found = 0;
    for (const auto &[TName, TSource] : Targets) {
      uint64_t Key =
          compiler::tuneKey(TSource, Cfg, AllowNative, Reg.fingerprint());
      std::optional<compiler::TuningRecord> Rec =
          compiler::readTuningRecord(Key);
      if (!Rec) {
        std::printf("%-24s no tuning record (key %016llx)\n", TName.c_str(),
                    (unsigned long long)Key);
        continue;
      }
      ++Found;
      std::printf("%-24s best %-14s %12.4g cell-steps/s (key %016llx)\n",
                  TName.c_str(), Rec->Best.name().c_str(), Rec->BestRate,
                  (unsigned long long)Key);
      for (const compiler::TuneMeasurement &Mm : Rec->Measurements)
        std::printf("    %-14s %12.4g cell-steps/s\n", Mm.Point.c_str(),
                    Mm.CellStepsPerSec);
    }
    std::printf("tuning records: %zu/%zu models\n", Found, Targets.size());
    return 0;
  }

  if (M == Mode::Suite) {
    std::vector<const models::ModelEntry *> Entries;
    for (const models::ModelEntry &E : models::modelRegistry())
      Entries.push_back(&E);
    std::vector<compiler::CompileResult> Results =
        Driver.compileSuite(Entries, SuiteJobs);
    size_t Ok = 0, Cold = 0, Warm = 0;
    for (const compiler::CompileResult &R : Results) {
      if (!R) {
        std::printf("%-24s ERROR: %s\n", R.ModelName.c_str(),
                    R.Err.message().c_str());
        continue;
      }
      ++Ok;
      (R.CacheHit ? Warm : Cold)++;
      if (R.AutoSelected) {
        // The per-model tuned-point summary: chosen point, where the
        // choice came from, and the measured rate (heuristic/forced picks
        // were never measured).
        char Rate[64] = "-";
        if (R.AutoRate > 0)
          std::snprintf(Rate, sizeof(Rate), "%.4g cell-steps/s", R.AutoRate);
        std::printf("%-24s %-10s %8.2f ms  %-14s %-9s %s\n",
                    R.ModelName.c_str(), compileKind(R),
                    double(R.TotalNs) * 1e-6, R.AutoPointName.c_str(),
                    std::string(compiler::tuneSourceName(R.AutoSource))
                        .c_str(),
                    Rate);
      } else
        std::printf("%-24s %-10s %8.2f ms\n", R.ModelName.c_str(),
                    compileKind(R), double(R.TotalNs) * 1e-6);
      reportNativeTier(R, Spec.Tier);
    }
    std::printf("compiled %zu/%zu models (%s): %zu cold, %zu warm\n", Ok,
                Results.size(), exec::engineConfigName(Cfg).c_str(), Cold,
                Warm);
    if (Spec.Tier != exec::EngineTier::VM) {
      size_t Attached = 0;
      for (const compiler::CompileResult &R : Results)
        Attached += R.NativeAttached;
      std::fprintf(stderr, "native tier: %zu/%zu models attached\n", Attached,
                   Results.size());
    }
    return Ok == Results.size() ? 0 : 1;
  }

  if (ModelArg.empty()) {
    std::fprintf(stderr, "error: no model named (try --list)\n");
    return 1;
  }
  std::string Name = ModelArg;
  std::string Source;
  if (endsWith(Name, ".easyml") || endsWith(Name, ".model")) {
    // An unreadable file is an error; an empty one reaches the frontend,
    // which warns about the contentless model.
    if (Status S = compiler::readFileBytes(ModelArg, Source); !S) {
      std::fprintf(stderr, "error: %s\n", S.message().c_str());
      return 1;
    }
  } else if (const models::ModelEntry *E = models::findModel(Name)) {
    Source = E->Source;
  } else {
    std::fprintf(stderr,
                 "error: '%s' is neither a file nor a suite model (try "
                 "--list)\n",
                 ModelArg.c_str());
    return 1;
  }

  std::optional<compiler::Artifact> Loaded;
  if (!LoadArtifactPath.empty()) {
    Expected<compiler::Artifact> A =
        compiler::readArtifactFile(LoadArtifactPath);
    if (!A) {
      std::fprintf(stderr, "error: %s\n", A.status().message().c_str());
      return 1;
    }
    Loaded = std::move(*A);
  }

  if (M == Mode::Run) {
    Spec.Model = Name;
    Spec.Source = Source;
    Spec.Config = Cfg;
    Env.Driver = DriverOpts;
    Env.Artifact = Loaded ? &*Loaded : nullptr;
    return runModel(Spec, Env, RF, StatsOut);
  }

  // Compile-only driver paths: --load-artifact / --emit-artifact /
  // --print-ir-after. Everything is recoverable: a broken pipeline, a
  // corrupt artifact or a failed stage prints one error and exits 1.
  if (Loaded || !RF.EmitArtifact.empty() || PrintIRAll ||
      !PrintIRAfter.empty()) {
    compiler::CompileResult R = Loaded
                                    ? Driver.loadArtifact(*Loaded, Name, Source)
                                    : Driver.compileSource(Name, Source);
    printSnapshots(R);
    if (!R) {
      std::fprintf(stderr, "error: %s\n", R.Err.message().c_str());
      return 1;
    }
    reportCompile(R, *R.Model, Spec.Tier, StatsOut);
    if (!RF.EmitArtifact.empty() && !emitArtifact(R, RF.EmitArtifact))
      return 1;
    if (M == Mode::Info)
      return 0; // the compile itself was the requested action
  }

  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(Name, Source, Diags);
  std::fprintf(stderr, "%s", Diags.str().c_str());
  if (!Info)
    return 1;

  if (M == Mode::Info) {
    std::printf("model %s\n", Info->Name.c_str());
    std::printf("  state variables (%zu):\n", Info->StateVars.size());
    for (const auto &SV : Info->StateVars)
      std::printf("    %-16s init=%-12s method=%s\n", SV.Name.c_str(),
                  formatDouble(SV.Init).c_str(),
                  std::string(integMethodName(SV.Method)).c_str());
    std::printf("  externals (%zu):\n", Info->Externals.size());
    for (const auto &Ext : Info->Externals)
      std::printf("    %-16s %s%s\n", Ext.Name.c_str(),
                  Ext.IsRead ? "read " : "", Ext.IsComputed ? "computed" : "");
    std::printf("  parameters (%zu):\n", Info->Params.size());
    for (const auto &P : Info->Params)
      std::printf("    %-16s = %s\n", P.Name.c_str(),
                  formatDouble(P.DefaultValue).c_str());
    for (const auto &Lut : Info->Luts)
      std::printf("  lookup table on %s: [%g, %g] step %g (%d rows)\n",
                  Lut.VarName.c_str(), Lut.Lo, Lut.Hi, Lut.Step,
                  Lut.numRows());
    std::printf("  distinct ops in inlined expressions: %zu\n",
                Info->countDistinctOps());
    return 0;
  }

  if (M == Mode::Program) {
    codegen::ModelProgram P =
        codegen::buildModelProgram(*Info, EnableLuts);
    for (size_t I = 0; I != P.Info.StateVars.size(); ++I)
      std::printf("%s_new = %s\n\n", P.Info.StateVars[I].Name.c_str(),
                  easyml::printExpr(*P.StateUpdates[I]).c_str());
    for (size_t I = 0; I != P.Info.Externals.size(); ++I)
      if (P.ExternalUpdates[I])
        std::printf("%s = %s\n\n", P.Info.Externals[I].Name.c_str(),
                    easyml::printExpr(*P.ExternalUpdates[I]).c_str());
    return 0;
  }

  if (M == Mode::Luts) {
    codegen::ModelProgram P = codegen::buildModelProgram(*Info, EnableLuts);
    for (const codegen::LutTablePlan &T : P.Luts.Tables) {
      std::printf("table on %s: [%g, %g] step %g, %zu columns\n",
                  T.Spec.VarName.c_str(), T.Spec.Lo, T.Spec.Hi,
                  T.Spec.Step, T.Columns.size());
      for (size_t C = 0; C != T.Columns.size(); ++C)
        std::printf("  col %2zu: %s\n", C,
                    easyml::printExpr(*T.Columns[C]).c_str());
    }
    return 0;
  }

  codegen::CodeGenOptions Options;
  Options.Layout = Layout;
  Options.AoSoABlockWidth = Width;
  Options.EnableLuts = EnableLuts;
  Options.RunPasses = RunPasses;
  Options.PassPipeline = PassesSpec;
  codegen::GeneratedKernel K = codegen::generateKernel(*Info, Options);
  if (!K.PipelineStatus) {
    std::fprintf(stderr, "error: %s\n", K.PipelineStatus.message().c_str());
    return 1;
  }
  StatsOut.setPassStats(K.PassStats);

  if (M == Mode::IR) {
    std::printf("%s", ir::printOp(K.ScalarFunc).c_str());
    return 0;
  }
  ir::Operation *Func = K.ScalarFunc;
  if (M == Mode::VectorIR || Layout == codegen::StateLayout::AoSoA)
    Func = codegen::vectorizeKernel(K, Width);
  if (!K.PipelineStatus) {
    std::fprintf(stderr, "error: %s\n", K.PipelineStatus.message().c_str());
    return 1;
  }
  if (M == Mode::VectorIR) {
    std::printf("%s", ir::printOp(Func).c_str());
    return 0;
  }
  exec::BcProgram P = exec::compileToBytecode(K, Func);
  std::printf("%s", P.str().c_str());
  std::printf("\nflops/cell=%.0f load-bytes/cell=%.0f "
              "store-bytes/cell=%.0f OI=%.3f\n",
              P.Counts.FlopsPerCell, P.Counts.LoadBytesPerCell,
              P.Counts.StoreBytesPerCell,
              P.Counts.operationalIntensity());
  return 0;
}
