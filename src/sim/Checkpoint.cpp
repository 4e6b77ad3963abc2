//===- Checkpoint.cpp -----------------------------------------------------===//

#include "sim/Checkpoint.h"

#include "compiler/Artifact.h"
#include "compiler/Serialize.h"
#include "support/Signals.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace limpet;
using namespace limpet::sim;
using compiler::ByteReader;
using compiler::ByteWriter;

namespace fs = std::filesystem;

namespace {

/// "LMPC" little-endian.
constexpr uint32_t kMagic = 0x43504d4cu;

/// Mirror of StateBuffer's AoSoA padding rule, used to cross-check the
/// serialized state-array length against the declared shape.
int64_t paddedCellsFor(uint8_t Layout, int64_t NumCells, uint32_t BlockW) {
  if (codegen::StateLayout(Layout) != codegen::StateLayout::AoSoA)
    return NumCells;
  int64_t BW = int64_t(std::max(BlockW, 1u));
  return (NumCells + BW - 1) / BW * BW;
}

void writeDoubles(ByteWriter &W, const std::vector<double> &V) {
  W.u64(uint64_t(V.size()));
  for (double D : V)
    W.f64(D);
}

/// Reads a double vector whose length is validated against the remaining
/// payload before any allocation happens.
bool readDoubles(ByteReader &R, std::vector<double> &V) {
  uint64_t N = R.u64();
  if (R.failed() || N * 8 > R.remaining())
    return false;
  V.resize(size_t(N));
  for (double &D : V)
    D = R.f64();
  return !R.failed();
}

} // namespace

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string sim::serializeCheckpoint(const CheckpointData &C) {
  ByteWriter P; // payload
  P.str(C.ModelName);
  P.u64(C.SourceHash);

  const exec::EngineConfig &Cfg = C.Config;
  P.u32(Cfg.Width);
  P.u8(uint8_t(Cfg.Layout));
  P.u8(Cfg.FastMath);
  P.u8(Cfg.EnableLuts);
  P.u8(Cfg.CubicLut);
  P.u8(Cfg.RunPasses);
  P.str(Cfg.PassPipeline);

  P.i64(C.NumCells);
  P.u32(C.NumSv);
  P.u32(C.NumExts);
  P.u8(C.Layout);
  P.u32(C.BlockW);

  P.i64(C.StepCount);
  P.f64(C.T);
  P.f64(C.Dt);

  writeDoubles(P, C.Params);
  writeDoubles(P, C.State);
  for (const std::vector<double> &E : C.Exts)
    writeDoubles(P, E);
  writeDoubles(P, C.Trace);

  const RunReport &R = C.Report;
  P.i64(R.StepsTaken);
  P.i64(R.HealthScans);
  P.i64(R.FaultEvents);
  P.i64(R.FaultyCells);
  P.i64(R.Retries);
  P.i64(R.Substeps);
  P.i64(R.CellsDegraded);
  P.i64(R.CellsFrozen);

  // Tissue section (v2).
  P.i64(C.TissueNX);
  P.i64(C.TissueNY);
  P.f64(C.TissueDx);
  P.f64(C.TissueSigma);
  P.u8(C.TissueMethod);
  P.str(C.TissueStim);

  // Member section (v4).
  P.i64(C.CellsPerMember);
  P.u64(C.SpecHash);
  P.u64(uint64_t(C.Members.size()));
  for (const auto &[M, Rec] : C.Members) {
    P.i64(M);
    P.u8(uint8_t(Rec.Status));
    P.u8(uint8_t(Rec.Reason));
    P.i64(Rec.DtRetries);
    P.i64(Rec.FaultSteps);
    P.i64(Rec.QuarantineStep);
  }

  ByteWriter W;
  W.u32(kMagic);
  W.u32(C.FormatVersion);
  W.u64(compiler::fnv1a64(P.Out));
  W.Out += P.Out;
  return W.Out;
}

Expected<CheckpointData> sim::deserializeCheckpoint(std::string_view Bytes) {
  auto Err = [](const char *Msg) {
    return Expected<CheckpointData>(
        Status::error(std::string("checkpoint: ") + Msg));
  };
  ByteReader H(Bytes);
  if (Bytes.size() < 16)
    return Err("truncated header");
  if (H.u32() != kMagic)
    return Err("bad magic (not a limpet checkpoint)");
  uint32_t Version = H.u32();
  if (Version != kCheckpointFormatVersion)
    return Err("format version mismatch");
  uint64_t Checksum = H.u64();
  std::string_view Payload = Bytes.substr(16);
  if (compiler::fnv1a64(Payload) != Checksum)
    return Err("checksum mismatch (corrupted or truncated)");

  ByteReader R(Payload);
  CheckpointData C;
  C.FormatVersion = Version;
  C.ModelName = R.str();
  C.SourceHash = R.u64();

  exec::EngineConfig &Cfg = C.Config;
  Cfg.Width = R.u32();
  Cfg.Layout = codegen::StateLayout(R.u8());
  Cfg.FastMath = R.u8() != 0;
  Cfg.EnableLuts = R.u8() != 0;
  Cfg.CubicLut = R.u8() != 0;
  Cfg.RunPasses = R.u8() != 0;
  Cfg.PassPipeline = R.str();

  C.NumCells = R.i64();
  C.NumSv = R.u32();
  C.NumExts = R.u32();
  C.Layout = R.u8();
  C.BlockW = R.u32();
  if (R.failed() || C.NumCells < 0)
    return Err("malformed shape header");

  C.StepCount = R.i64();
  C.T = R.f64();
  C.Dt = R.f64();

  if (!readDoubles(R, C.Params) || !readDoubles(R, C.State))
    return Err("truncated parameter/state section");
  // The state array must cover exactly the padded population the declared
  // shape implies; anything else is an inconsistent (hand-edited) file.
  if (int64_t(C.State.size()) !=
      paddedCellsFor(C.Layout, C.NumCells, C.BlockW) * int64_t(C.NumSv))
    return Err("state array does not match the declared shape");
  C.Exts.resize(C.NumExts);
  for (std::vector<double> &E : C.Exts) {
    if (!readDoubles(R, E))
      return Err("truncated external section");
    if (int64_t(E.size()) != C.NumCells)
      return Err("external array does not match the declared shape");
  }
  if (!readDoubles(R, C.Trace))
    return Err("truncated trace section");

  RunReport &Rep = C.Report;
  Rep.StepsTaken = R.i64();
  Rep.HealthScans = R.i64();
  Rep.FaultEvents = R.i64();
  Rep.FaultyCells = R.i64();
  Rep.Retries = R.i64();
  Rep.Substeps = R.i64();
  Rep.CellsDegraded = R.i64();
  Rep.CellsFrozen = R.i64();

  C.TissueNX = R.i64();
  C.TissueNY = R.i64();
  C.TissueDx = R.f64();
  C.TissueSigma = R.f64();
  C.TissueMethod = R.u8();
  C.TissueStim = R.str();
  if (C.TissueNX < 0 || C.TissueNY < 1 ||
      (C.TissueNX > 0 && C.TissueNX * C.TissueNY != C.NumCells))
    return Err("tissue grid does not match the declared population");

  C.CellsPerMember = R.i64();
  C.SpecHash = R.u64();
  uint64_t NumRecords = R.u64();
  if (R.failed() || C.CellsPerMember < 1 ||
      C.NumCells % C.CellsPerMember != 0)
    return Err("member shape does not match the declared population");
  constexpr size_t kRecordBytes = 2 + 4 * 8;
  if (NumRecords > R.remaining() / kRecordBytes)
    return Err("truncated member section");
  int64_t NumMembers = C.NumCells / C.CellsPerMember;
  for (uint64_t I = 0; I != NumRecords; ++I) {
    int64_t M = R.i64();
    uint8_t Status = R.u8(), Reason = R.u8();
    // Ascending, in range and each a real ladder position: a record
    // never merges into another or names a status the ladder lacks.
    if (M < 0 || M >= NumMembers ||
        (!C.Members.empty() && M <= C.Members.rbegin()->first) ||
        Status > uint8_t(MemberStatus::Quarantined) ||
        Reason > uint8_t(QuarantineReason::ScalarFault))
      return Err("malformed member record");
    MemberRecord &Rec = C.Members[M];
    Rec.Status = MemberStatus(Status);
    Rec.Reason = QuarantineReason(Reason);
    Rec.DtRetries = R.i64();
    Rec.FaultSteps = R.i64();
    Rec.QuarantineStep = R.i64();
  }

  if (R.failed())
    return Err("truncated payload");
  if (R.remaining() != 0)
    return Err("trailing bytes after payload");
  return C;
}

//===----------------------------------------------------------------------===//
// Files
//===----------------------------------------------------------------------===//

Status sim::writeCheckpointFile(const CheckpointData &C,
                                const std::string &Path) {
  return compiler::writeFileAtomic(serializeCheckpoint(C), Path);
}

Expected<CheckpointData> sim::readCheckpointFile(const std::string &Path) {
  std::string Bytes;
  if (Status S = compiler::readFileBytes(Path, Bytes); !S)
    return Expected<CheckpointData>(
        Status::error("checkpoint: " + S.message()));
  return deserializeCheckpoint(Bytes);
}

//===----------------------------------------------------------------------===//
// CheckpointStore
//===----------------------------------------------------------------------===//

CheckpointStore::CheckpointStore(std::string Dir, int Retain)
    : Dir(std::move(Dir)), Retain(std::max(Retain, 1)) {}

Status CheckpointStore::prepare() const {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (Ec)
    return Status::error("cannot create checkpoint directory '" + Dir +
                         "': " + Ec.message());
  // Probe with the real write path so permission problems surface here,
  // as one recoverable error, instead of mid-run.
  std::string Probe = Dir + "/.limpet-probe";
  if (Status S = compiler::writeFileAtomic("limpet", Probe); !S)
    return Status::error("checkpoint directory '" + Dir +
                         "' is not writable (" + S.message() + ")");
  std::remove(Probe.c_str());
  return Status::success();
}

std::string CheckpointStore::pathForStep(int64_t Step) const {
  char Name[32];
  std::snprintf(Name, sizeof Name, "ckpt-%012lld.lmpc",
                (long long)std::max<int64_t>(Step, 0));
  return Dir + "/" + Name;
}

std::vector<std::string> CheckpointStore::list() const {
  std::vector<std::pair<int64_t, std::string>> Found;
  std::error_code Ec;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec)) {
    std::string Name = E.path().filename().string();
    // ckpt-<digits>.lmpc, anything else (temp files, strangers) ignored.
    if (Name.size() != 22 || Name.rfind("ckpt-", 0) != 0 ||
        Name.compare(17, 5, ".lmpc") != 0)
      continue;
    int64_t Step = 0;
    bool Digits = true;
    for (size_t I = 5; I != 17 && Digits; ++I) {
      char Ch = Name[I];
      Digits = Ch >= '0' && Ch <= '9';
      Step = Step * 10 + (Ch - '0');
    }
    if (Digits)
      Found.emplace_back(Step, E.path().string());
  }
  std::sort(Found.begin(), Found.end());
  std::vector<std::string> Paths;
  Paths.reserve(Found.size());
  for (auto &[Step, Path] : Found)
    Paths.push_back(std::move(Path));
  return Paths;
}

void CheckpointStore::prune() const {
  std::vector<std::string> Paths = list();
  for (size_t I = 0; I + size_t(Retain) < Paths.size(); ++I)
    std::remove(Paths[I].c_str());
}

void CheckpointStore::removeAfter(int64_t Step) const {
  std::string Last = fs::path(pathForStep(Step)).filename().string();
  for (const std::string &Path : list())
    if (fs::path(Path).filename().string() > Last)
      std::remove(Path.c_str());
}

Status CheckpointStore::write(const CheckpointData &C) const {
  if (Status S = writeCheckpointFile(C, pathForStep(C.StepCount)); !S)
    return S;
  prune();
  return Status::success();
}

Expected<CheckpointData>
CheckpointStore::loadNewestValid(std::string *PathOut,
                                 int *SkippedOut) const {
  std::vector<std::string> Paths = list();
  int Skipped = 0;
  for (auto It = Paths.rbegin(); It != Paths.rend(); ++It) {
    Expected<CheckpointData> C = readCheckpointFile(*It);
    if (C) {
      if (PathOut)
        *PathOut = *It;
      if (SkippedOut)
        *SkippedOut = Skipped;
      return C;
    }
    // Corrupt or truncated (e.g. the process died mid-crash before PR 4's
    // atomic rename existed, or the disk did): fall back to the next
    // newest instead of giving up.
    ++Skipped;
  }
  if (SkippedOut)
    *SkippedOut = Skipped;
  std::string Note = Skipped
                         ? " (" + std::to_string(Skipped) +
                               " corrupt/truncated checkpoint(s) skipped)"
                         : "";
  return Expected<CheckpointData>(Status::error(
      "no valid checkpoint found in '" + Dir + "'" + Note));
}

//===----------------------------------------------------------------------===//
// Graceful shutdown
//===----------------------------------------------------------------------===//

// Thin forwarders: all signal disposition lives in support/Signals so
// there is exactly one installer (sigaction with save/restore) in the
// process. Kept here so existing sim:: callers and tests are unaffected.

void sim::installShutdownHandlers() { support::installShutdownHandlers(); }

bool sim::shutdownRequested() { return support::shutdownRequested(); }

void sim::requestShutdown() { support::requestShutdown(); }

void sim::clearShutdownRequest() { support::clearShutdownRequest(); }
