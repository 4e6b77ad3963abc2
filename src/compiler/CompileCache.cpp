//===- CompileCache.cpp ---------------------------------------------------===//

#include "compiler/CompileCache.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

using namespace limpet;
using namespace limpet::compiler;

uint64_t compiler::compileCacheKey(std::string_view Source,
                                   const exec::EngineConfig &Cfg) {
  // Chain every compile-relevant input through one running hash. The
  // config is folded field-by-field (not via engineConfigName) so adding
  // a field to EngineConfig only needs one line here to invalidate.
  uint64_t H = fnv1a64(Source);
  char CfgBytes[] = {char(Cfg.Width),    char(Cfg.Layout),
                     char(Cfg.FastMath), char(Cfg.EnableLuts),
                     char(Cfg.CubicLut), char(Cfg.RunPasses)};
  H = fnv1a64(std::string_view(CfgBytes, sizeof CfgBytes), H);
  H = fnv1a64(Cfg.PassPipeline, H);
  char Version[] = {char(kArtifactFormatVersion),
                    char(kArtifactFormatVersion >> 8),
                    char(kArtifactFormatVersion >> 16),
                    char(kArtifactFormatVersion >> 24)};
  H = fnv1a64(std::string_view(Version, sizeof Version), H);
  return H;
}

CompileCache &CompileCache::global() {
  static CompileCache C;
  return C;
}

std::string CompileCache::diskDir() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (DiskOverride)
      return *DiskOverride;
  }
  const char *Env = std::getenv("LIMPET_CACHE_DIR");
  return Env ? Env : "";
}

void CompileCache::setDiskDir(std::string Dir) {
  std::lock_guard<std::mutex> Lock(Mu);
  DiskOverride = std::move(Dir);
}

std::string CompileCache::diskPath(uint64_t Key) {
  std::string Dir = diskDir();
  if (Dir.empty())
    return "";
  char Hex[17];
  std::snprintf(Hex, sizeof Hex, "%016llx", (unsigned long long)Key);
  return Dir + "/" + Hex + ".lmpa";
}

std::optional<Artifact> CompileCache::lookup(uint64_t Key, bool *FromDisk) {
  if (FromDisk)
    *FromDisk = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Memory.find(Key);
    if (It != Memory.end()) {
      if (Expected<Artifact> A = deserializeArtifact(It->second)) {
        telemetry::counter("compile.cache.hit").add(1);
        return *A;
      }
      // A memory entry can only be bad if something scribbled on it;
      // drop it and fall through to the slower tiers.
      Memory.erase(It);
    }
  }

  std::string Path = diskPath(Key);
  if (!Path.empty()) {
    if (Expected<Artifact> A = readArtifactFile(Path)) {
      telemetry::counter("compile.cache.disk_hit").add(1);
      if (FromDisk)
        *FromDisk = true;
      std::lock_guard<std::mutex> Lock(Mu);
      Memory.emplace(Key, serializeArtifact(*A));
      return *A;
    } else if (std::FILE *F = std::fopen(Path.c_str(), "rb")) {
      // The file exists but did not parse: corrupt or truncated. Count
      // it and let the caller recompile (the store will overwrite it).
      std::fclose(F);
      telemetry::counter("compile.cache.bad").add(1);
    }
  }

  telemetry::counter("compile.cache.miss").add(1);
  return std::nullopt;
}

void CompileCache::store(uint64_t Key, const Artifact &A) {
  std::string Bytes = serializeArtifact(A);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Memory[Key] = Bytes;
  }
  std::string Path = diskPath(Key);
  if (!Path.empty()) {
    // Best effort: a read-only or missing directory must not fail the
    // compile, it just loses the warm-start benefit.
    if (writeArtifactFile(A, Path))
      telemetry::counter("compile.cache.store").add(1);
    if (uint64_t Budget = diskBudget())
      gcDiskTier(Budget);
  } else {
    telemetry::counter("compile.cache.store").add(1);
  }
}

uint64_t CompileCache::diskBudget() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (BudgetOverride)
      return *BudgetOverride;
  }
  const char *Env = std::getenv("LIMPET_CACHE_MAX_BYTES");
  return Env ? std::strtoull(Env, nullptr, 10) : 0;
}

void CompileCache::setDiskBudget(std::optional<uint64_t> Budget) {
  std::lock_guard<std::mutex> Lock(Mu);
  BudgetOverride = Budget;
}

CompileCache::GcStats CompileCache::gcDiskTier(uint64_t MaxBytes) {
  namespace fs = std::filesystem;
  GcStats Stats;
  std::string Dir = diskDir();
  if (Dir.empty())
    return Stats;

  struct Entry {
    fs::file_time_type MTime;
    uint64_t Size;
    std::string Path;
  };
  std::vector<Entry> Entries;
  std::error_code Ec;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec)) {
    if (E.path().extension() != ".lmpa")
      continue;
    std::error_code SEc, TEc;
    uint64_t Size = E.file_size(SEc);
    fs::file_time_type MTime = E.last_write_time(TEc);
    if (SEc || TEc)
      continue; // raced with a concurrent GC/writer; skip
    Stats.BytesBefore += Size;
    Entries.push_back({MTime, Size, E.path().string()});
  }
  Stats.BytesAfter = Stats.BytesBefore;
  if (MaxBytes == 0 || Stats.BytesBefore <= MaxBytes)
    return Stats;

  // LRU by mtime: oldest entries go first. A file another process's GC
  // removed first is gone all the same, so its bytes count as freed;
  // otherwise two concurrent GCs each evict the budget's excess and can
  // empty the tier between them.
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) { return A.MTime < B.MTime; });
  for (const Entry &E : Entries) {
    if (Stats.BytesAfter <= MaxBytes)
      break;
    if (std::remove(E.Path.c_str()) == 0) {
      ++Stats.FilesRemoved;
      telemetry::counter("compile.cache.evict").add(1);
    } else if (errno != ENOENT) {
      continue;
    }
    Stats.BytesAfter -= E.Size;
  }
  return Stats;
}

void CompileCache::clearMemory() {
  std::lock_guard<std::mutex> Lock(Mu);
  Memory.clear();
}

size_t CompileCache::memorySize() {
  std::lock_guard<std::mutex> Lock(Mu);
  return Memory.size();
}
