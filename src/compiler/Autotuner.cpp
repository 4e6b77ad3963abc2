//===- Autotuner.cpp ------------------------------------------------------===//

#include "compiler/Autotuner.h"

#include "bench/BenchHarness.h"
#include "compiler/Artifact.h"
#include "compiler/CompileCache.h"
#include "compiler/CompilerDriver.h"
#include "compiler/Serialize.h"
#include "exec/Backend.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <mutex>

using namespace limpet;
using namespace limpet::compiler;
using namespace limpet::codegen;

//===----------------------------------------------------------------------===//
// Points and sources
//===----------------------------------------------------------------------===//

std::string TunePoint::name() const {
  std::string Out(stateLayoutName(Layout));
  Out += "/w" + std::to_string(Width);
  Out += Tier == exec::EngineTier::Native ? "/native" : "/vm";
  return Out;
}

std::optional<TunePoint> TunePoint::fromName(std::string_view Name) {
  // "<layout>/w<width>/<vm|native>"
  size_t S1 = Name.find('/');
  if (S1 == std::string_view::npos)
    return std::nullopt;
  size_t S2 = Name.find('/', S1 + 1);
  if (S2 == std::string_view::npos)
    return std::nullopt;
  std::string_view LayoutS = Name.substr(0, S1);
  std::string_view WidthS = Name.substr(S1 + 1, S2 - S1 - 1);
  std::string_view TierS = Name.substr(S2 + 1);

  TunePoint P;
  std::optional<StateLayout> Layout = stateLayoutFromName(LayoutS);
  if (!Layout)
    return std::nullopt;
  P.Layout = *Layout;

  if (WidthS.size() < 2 || WidthS[0] != 'w')
    return std::nullopt;
  unsigned W = 0;
  for (char C : WidthS.substr(1)) {
    if (C < '0' || C > '9')
      return std::nullopt;
    W = W * 10 + unsigned(C - '0');
    if (W > 4096)
      return std::nullopt;
  }
  if (W == 0)
    return std::nullopt;
  P.Width = W;

  if (TierS == "vm")
    P.Tier = exec::EngineTier::VM;
  else if (TierS == "native")
    P.Tier = exec::EngineTier::Native;
  else
    return std::nullopt;
  return P;
}

std::string_view compiler::tuneSourceName(TuneSource S) {
  switch (S) {
  case TuneSource::Forced:
    return "forced";
  case TuneSource::Record:
    return "record";
  case TuneSource::Tuned:
    return "tuned";
  case TuneSource::Heuristic:
    return "heuristic";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Record serialization
//===----------------------------------------------------------------------===//

static constexpr uint32_t kTuneMagic = 0x54504D4CU; // "LMPT" little-endian

std::string TuningRecord::serialize() const {
  ByteWriter W;
  W.u32(kTuneMagic);
  W.u32(kTunerVersion);
  W.u64(TuneKey);
  W.u64(RegistryFingerprint);
  W.str(ModelName);
  W.u8(uint8_t(Best.Layout));
  W.u32(Best.Width);
  W.u8(uint8_t(Best.Tier));
  W.f64(BestRate);
  W.u32(uint32_t(Measurements.size()));
  for (const TuneMeasurement &M : Measurements) {
    W.str(M.Point);
    W.f64(M.CellStepsPerSec);
  }
  W.u64(fnv1a64(W.Out));
  return std::move(W.Out);
}

std::optional<TuningRecord>
TuningRecord::deserialize(std::string_view Bytes, std::string *Error) {
  auto Fail = [&](std::string Msg) -> std::optional<TuningRecord> {
    if (Error)
      *Error = std::move(Msg);
    return std::nullopt;
  };
  if (Bytes.size() < 8)
    return Fail("tuning record truncated");
  uint64_t Stored;
  std::memcpy(&Stored, Bytes.data() + Bytes.size() - 8, 8);
  if (fnv1a64(Bytes.substr(0, Bytes.size() - 8)) != Stored)
    return Fail("tuning record checksum mismatch");

  ByteReader R(Bytes.substr(0, Bytes.size() - 8));
  TuningRecord Rec;
  uint32_t Magic = R.u32();
  uint32_t Version = R.u32();
  if (R.failed() || Magic != kTuneMagic)
    return Fail("not a tuning record (bad magic)");
  if (Version != kTunerVersion)
    return Fail("tuning record version " + std::to_string(Version) +
                " (this tuner writes " + std::to_string(kTunerVersion) + ")");
  Rec.TuneKey = R.u64();
  Rec.RegistryFingerprint = R.u64();
  Rec.ModelName = R.str();
  uint8_t Layout = R.u8();
  Rec.Best.Width = R.u32();
  uint8_t Tier = R.u8();
  Rec.BestRate = R.f64();
  uint32_t N = R.u32();
  if (R.failed() || Layout > uint8_t(StateLayout::AoSoA) ||
      Tier > uint8_t(exec::EngineTier::Native) || Rec.Best.Width == 0)
    return Fail("tuning record truncated or malformed");
  Rec.Best.Layout = StateLayout(Layout);
  Rec.Best.Tier = exec::EngineTier(Tier);
  // Each measurement needs at least 4 (name length) + 8 (rate) bytes.
  if (uint64_t(N) * 12 > R.remaining())
    return Fail("tuning record measurement count out of range");
  for (uint32_t I = 0; I != N; ++I) {
    TuneMeasurement M;
    M.Point = R.str();
    M.CellStepsPerSec = R.f64();
    Rec.Measurements.push_back(std::move(M));
  }
  if (R.failed() || R.remaining() != 0)
    return Fail("tuning record truncated or malformed");
  return Rec;
}

//===----------------------------------------------------------------------===//
// Keying and persistence
//===----------------------------------------------------------------------===//

uint64_t compiler::tuneKey(std::string_view Source,
                           const exec::EngineConfig &BaseCfg,
                           bool AllowNative, uint64_t RegistryFingerprint) {
  uint64_t H = fnv1a64(Source);
  // Only the non-tuned configuration fields: width and layout are the
  // tuner's output, never its key.
  char Flags[4] = {char(BaseCfg.FastMath), char(BaseCfg.EnableLuts),
                   char(BaseCfg.CubicLut), char(BaseCfg.RunPasses)};
  H = fnv1a64({Flags, sizeof Flags}, H);
  H = fnv1a64(BaseCfg.PassPipeline, H);
  char Native[1] = {char(AllowNative)};
  H = fnv1a64({Native, 1}, H);
  uint64_t Tail[3] = {RegistryFingerprint, kTunerVersion,
                      kArtifactFormatVersion};
  H = fnv1a64({reinterpret_cast<const char *>(Tail), sizeof Tail}, H);
  return H;
}

std::string compiler::tuneRecordPath(uint64_t Key) {
  std::string Dir = CompileCache::global().diskDir();
  if (Dir.empty())
    return "";
  char Name[32];
  std::snprintf(Name, sizeof Name, "%016llx.tune", (unsigned long long)Key);
  return Dir + "/" + Name;
}

std::optional<TuningRecord> compiler::readTuningRecord(uint64_t Key) {
  std::string Path = tuneRecordPath(Key);
  if (Path.empty())
    return std::nullopt;
  std::string Bytes;
  if (!readFileBytes(Path, Bytes))
    return std::nullopt; // no record yet — not an error
  std::string Error;
  std::optional<TuningRecord> Rec = TuningRecord::deserialize(Bytes, &Error);
  if (!Rec) {
    telemetry::counter("tune.record.corrupt").add(1);
    return std::nullopt;
  }
  if (Rec->TuneKey != Key ||
      Rec->RegistryFingerprint != exec::BackendRegistry::global().fingerprint()) {
    // Tuned under a different key or on a machine class with different
    // capabilities: stale by construction, ignore it.
    telemetry::counter("tune.record.stale").add(1);
    return std::nullopt;
  }
  telemetry::counter("tune.record.load").add(1);
  return Rec;
}

bool compiler::writeTuningRecord(const TuningRecord &R) {
  std::string Path = tuneRecordPath(R.TuneKey);
  if (Path.empty())
    return true; // disk tier off: nothing to persist
  Status S = writeFileAtomic(R.serialize(), Path);
  if (!S) {
    std::fprintf(stderr, "warning: cannot persist tuning record %s: %s\n",
                 Path.c_str(), S.message().c_str());
    return false;
  }
  telemetry::counter("tune.record.write").add(1);
  return true;
}

//===----------------------------------------------------------------------===//
// Tuning
//===----------------------------------------------------------------------===//

static int64_t envInt(const char *Name, int64_t Default) {
  const char *V = std::getenv(Name);
  if (!V || !*V)
    return Default;
  return std::atoll(V);
}

TunePoint compiler::heuristicPoint(exec::EngineTier Tier) {
  const exec::BackendRegistry &Reg = exec::BackendRegistry::global();
  // Two full native vectors in flight per block, clamped to width 8:
  // scalar hosts stay scalar, SSE-class picks 4, AVX2-class and up pick
  // 8. Width 16 must earn its keep through a measurement, never a guess.
  unsigned Target = Reg.maxLanes() > 1 ? std::min(Reg.maxLanes() * 2, 8u) : 1;
  unsigned W = 1;
  for (unsigned Cand : Reg.widths())
    if (Cand <= Target && Cand > W)
      W = Cand;
  TunePoint P;
  P.Width = W;
  P.Layout = W > 1 ? StateLayout::AoSoA : StateLayout::AoS;
  P.Tier = Tier == exec::EngineTier::VM ? exec::EngineTier::VM
                                        : exec::EngineTier::Native;
  return P;
}

Expected<TuningRecord> Autotuner::tune(std::string_view Name,
                                       std::string_view Source,
                                       const exec::EngineConfig &BaseCfg,
                                       bool AllowNative) {
  // One model tunes at a time, process-wide: compileSuite fans compiles
  // out over the thread pool, and concurrently timed candidates would
  // perturb each other's short windows.
  static std::mutex TuneMu;
  std::lock_guard<std::mutex> Lock(TuneMu);

  telemetry::TraceSpan Span("autotune:" + std::string(Name), "compile");
  telemetry::ScopedTimerNs Timer("tune.ns");

  const exec::BackendRegistry &Reg = exec::BackendRegistry::global();
  int64_t Cells = Opts.Cells ? Opts.Cells : envInt("LIMPET_TUNE_CELLS", 256);
  double WindowMs =
      Opts.WindowMs > 0
          ? Opts.WindowMs
          : double(envInt("LIMPET_TUNE_WINDOW_MS", 25));
  int Repeats =
      Opts.Repeats ? Opts.Repeats : int(envInt("LIMPET_TUNE_REPEATS", 3));

  // Candidate sweep: every registry width × every coherent layout, VM
  // always, native where allowed. The math flavour is pinned to the base
  // configuration (see the header) so every candidate computes identical
  // results in exact mode.
  struct Candidate {
    TunePoint P;
    std::optional<exec::CompiledModel> M;
  };
  std::vector<Candidate> Candidates;
  for (unsigned W : Reg.widths()) {
    for (StateLayout L :
         {StateLayout::AoS, StateLayout::SoA, StateLayout::AoSoA}) {
      if (L == StateLayout::AoSoA && W == 1)
        continue;
      Candidates.push_back({TunePoint{L, W, exec::EngineTier::VM}, {}});
      if (AllowNative)
        Candidates.push_back({TunePoint{L, W, exec::EngineTier::Native}, {}});
    }
  }

  // Compile every candidate through the driver so each one also lands in
  // the artifact cache: the warm auto path re-selects the winner with
  // zero codegen because its compile already happened here.
  std::string LastErr;
  for (Candidate &C : Candidates) {
    DriverOptions DO;
    DO.Config = BaseCfg;
    DO.Config.Width = C.P.Width;
    DO.Config.Layout = C.P.Layout;
    // Auto semantics for native candidates: a toolchain failure is not a
    // tuning failure, the candidate just drops out (its VM twin stays).
    DO.Tier = C.P.Tier == exec::EngineTier::Native ? exec::EngineTier::Auto
                                                   : exec::EngineTier::VM;
    CompilerDriver Driver(std::move(DO));
    CompileResult R = Driver.compileSource(Name, Source);
    if (!R) {
      LastErr = R.Err.message();
      continue;
    }
    if (C.P.Tier == exec::EngineTier::Native && !R.NativeAttached)
      continue; // would duplicate the VM measurement
    C.M = std::move(R.Model);
  }
  Candidates.erase(std::remove_if(Candidates.begin(), Candidates.end(),
                                  [](const Candidate &C) { return !C.M; }),
                   Candidates.end());
  if (Candidates.empty())
    return Status::error("autotune: no candidate point compiled for '" +
                         std::string(Name) + "'" +
                         (LastErr.empty() ? "" : ": " + LastErr));

  std::string PrevBench = bench::setBenchName("autotune");

  // Calibrate the step count once against the heuristic point (falling
  // back to the first candidate) so every point gets the same work and a
  // window of roughly WindowMs.
  const Candidate *Cal = &Candidates.front();
  TunePoint H = heuristicPoint(exec::EngineTier::VM);
  for (const Candidate &C : Candidates)
    if (C.P == H)
      Cal = &C;
  bench::BenchProtocol CalProto;
  CalProto.NumCells = Cells;
  CalProto.NumSteps = 4;
  CalProto.Repeats = 1;
  CalProto.DropExtrema = false;
  double CalSecs =
      std::max(bench::timeSimulation(*Cal->M, CalProto, 1), 1e-9);
  double CalRate = double(Cells) * double(CalProto.NumSteps) / CalSecs;
  int64_t Steps = int64_t(CalRate * (WindowMs / 1000.0) / double(Cells));
  Steps = std::clamp<int64_t>(Steps, 4, 100000);

  TuningRecord Rec;
  Rec.ModelName = std::string(Name);
  double BestRate = -1.0;
  for (const Candidate &C : Candidates) {
    bench::BenchProtocol Proto;
    Proto.NumCells = Cells;
    Proto.NumSteps = Steps;
    Proto.Repeats = Repeats;
    Proto.DropExtrema = Repeats >= 3;
    double Secs = std::max(bench::timeSimulation(*C.M, Proto, 1), 1e-9);
    double Rate = double(Cells) * double(Steps) / Secs;
    telemetry::counter("tune.point.count").add(1);
    Rec.Measurements.push_back({C.P.name(), Rate});
    std::fprintf(stderr, "autotune: %s %s = %.4g cell-steps/s\n",
                 Rec.ModelName.c_str(), C.P.name().c_str(), Rate);
    // Strictly-greater keeps ties deterministic (first enumerated wins).
    if (Rate > BestRate) {
      BestRate = Rate;
      Rec.Best = C.P;
    }
  }
  bench::setBenchName(std::move(PrevBench));
  Rec.BestRate = BestRate;
  return Rec;
}

//===----------------------------------------------------------------------===//
// Selection
//===----------------------------------------------------------------------===//

AutoSelection compiler::selectAutoConfig(std::string_view Name,
                                         std::string_view Source,
                                         const exec::EngineConfig &BaseCfg,
                                         exec::EngineTier Tier,
                                         bool RunTuner) {
  AutoSelection Sel;
  const exec::BackendRegistry &Reg = exec::BackendRegistry::global();
  bool AllowNative = Tier != exec::EngineTier::VM;
  Sel.TuneKey = tuneKey(Source, BaseCfg, AllowNative, Reg.fingerprint());

  auto apply = [&](const TunePoint &P, TuneSource Src, double Rate) {
    Sel.Point = P;
    Sel.Source = Src;
    Sel.Rate = Rate;
    Sel.Config = BaseCfg;
    Sel.Config.Width = P.Width;
    Sel.Config.Layout = P.Layout;
    // A native point under an Auto driver keeps Auto's silent-fallback
    // semantics; an explicit Native driver keeps its loud ones.
    Sel.Tier = P.Tier == exec::EngineTier::VM ? exec::EngineTier::VM
               : Tier == exec::EngineTier::Native
                   ? exec::EngineTier::Native
                   : exec::EngineTier::Auto;
    telemetry::counter("tune.select." + std::string(tuneSourceName(Src)))
        .add(1);
  };

  if (const char *Force = std::getenv("LIMPET_TUNE_FORCE"); Force && *Force) {
    std::optional<TunePoint> P = TunePoint::fromName(Force);
    if (!P) {
      Sel.Err = Status::error(
          "LIMPET_TUNE_FORCE='" + std::string(Force) +
          "' is not a tune point (expected <aos|soa|aosoa>/w<N>/<vm|native>)");
      return Sel;
    }
    if (!Reg.supportsWidth(P->Width)) {
      Sel.Err = Status::error("LIMPET_TUNE_FORCE width " +
                              std::to_string(P->Width) +
                              " is not registered on this host");
      return Sel;
    }
    if (P->Layout == StateLayout::AoSoA && P->Width == 1) {
      Sel.Err =
          Status::error("LIMPET_TUNE_FORCE: AoSoA needs a vector width");
      return Sel;
    }
    if (P->Tier == exec::EngineTier::Native && !AllowNative) {
      Sel.Err = Status::error("LIMPET_TUNE_FORCE names a native point but "
                              "the engine tier is vm");
      return Sel;
    }
    apply(*P, TuneSource::Forced, 0);
    return Sel;
  }

  if (std::optional<TuningRecord> Rec = readTuningRecord(Sel.TuneKey)) {
    apply(Rec->Best, TuneSource::Record, Rec->BestRate);
    return Sel;
  }

  if (RunTuner) {
    Autotuner T;
    Expected<TuningRecord> R = T.tune(Name, Source, BaseCfg, AllowNative);
    if (R) {
      (*R).TuneKey = Sel.TuneKey;
      (*R).RegistryFingerprint = Reg.fingerprint();
      writeTuningRecord(*R);
      apply(R->Best, TuneSource::Tuned, R->BestRate);
      return Sel;
    }
    // A tuner failure degrades to the heuristic, like a missing record.
    std::fprintf(stderr, "warning: %s\n", R.status().message().c_str());
  }

  apply(heuristicPoint(Tier), TuneSource::Heuristic, 0);
  return Sel;
}
