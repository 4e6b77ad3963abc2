//===- KernelEmitter.cpp --------------------------------------------------===//
//
// Bit-identity with the VM is the whole contract here, so three details are
// load-bearing:
//
//  1. A pure op's statement prints the lane expression of its
//     exec/BcOps.def entry, the same text the VM engines instantiate as
//     C++, with its engine's form where the two engines differ (Min and
//     Max). Only the layout and table ops (ConstF, the loads and stores,
//     the LUT ops) are spelled here per flavour, mirroring exec/Engine.cpp
//     along with the prologue cell conventions (scalar: cell 0, vector:
//     range start) and the fresh register file the scalar tail gets; the
//     LUT blend and cubic weights are runtime/VecMath.h's lutBlend and
//     lutCubic, embedded in the TU. The TU is compiled with the same
//     compiler and flag set as the host binary, so within-statement FP
//     contraction decisions match.
//
//  2. The interpreter stores every result to memory through a *runtime*
//     register index, which makes cross-instruction FMA contraction
//     impossible there. Specialized code is SSA to the host compiler —
//     the vector flavour keeps each register as a W-lane vector value —
//     which happily fuses `t = a*b; d = t+c;` across statements into an
//     FMA under -O3 -march=native, diverging from the VM in the last ulp.
//     The emitter therefore places an empty-asm value barrier after every
//     instruction whose result could be an exposed multiply (Mul, and the
//     inlined fast-math kernels; BcOps.def's Pin column): the product is
//     rounded and opaque, as the interpreter's is. The vector flavour
//     pins the value in a SIMD register (`asm("" : "+v"(r))` on x86,
//     `"+w"` on AArch64); only where the vector is wider than the host's
//     widest register (W=8 without AVX-512, W=16) does it fall back to
//     `"+m"`, a round trip through memory — the only form the scalar
//     flavour's register array uses.
//
//  3. The vector flavour batches linear LUT interpolation. Each LutCoord
//     is emitted together with every linear LutInterp of its table that
//     reads its index and fraction registers before either is redefined.
//     Per lane, the batch loads rows Idx and Idx+1 as W-column chunks
//     (only the chunks holding a used column; the last one starts at
//     Cols - W, so reads stay inside the row), blends them with the VM's
//     per-element `Lo + f * (Hi - Lo)`, and transposes each W x W block
//     into a local column array; a batched LutInterp is one vector load
//     from it. The elements are the VM's, computed by the same expression,
//     only in a different order. Tables narrower than W and cubic
//     interpolation keep the VM's lane loop.
//
//===----------------------------------------------------------------------===//

#include "compiler/KernelEmitter.h"

#include "compiler/Artifact.h"
#include "compiler/CompileCache.h"
#include "compiler/Serialize.h"
#include "support/Telemetry.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>
#include <vector>

using namespace limpet;
using namespace limpet::compiler;
using exec::BcInstr;
using exec::BcOp;
using exec::BcProgram;

// The compiler and flags this binary was built with, baked in by
// src/CMakeLists.txt. Matching them in the emitted TU is what makes the
// host's FP contraction choices (and -march) reproduce exactly.
#ifndef LIMPET_HOST_CXX
#define LIMPET_HOST_CXX "c++"
#endif
#ifndef LIMPET_HOST_CXXFLAGS
#define LIMPET_HOST_CXXFLAGS "-O2"
#endif

// The VecMath header source, embedded so emitted fast-math TUs are
// self-contained (generated into the build tree by src/CMakeLists.txt).
#include "compiler/VecMathEmbed.inc"

//===----------------------------------------------------------------------===//
// Small helpers
//===----------------------------------------------------------------------===//

namespace {

std::string hex16(uint64_t Key) {
  char Buf[17];
  std::snprintf(Buf, sizeof Buf, "%016llx", (unsigned long long)Key);
  return Buf;
}

std::vector<std::string> splitFlags(std::string_view S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (char C : S) {
    if (C == ' ' || C == '\t' || C == '\n') {
      if (!Cur.empty())
        Out.push_back(std::move(Cur));
      Cur.clear();
    } else {
      Cur.push_back(C);
    }
  }
  if (!Cur.empty())
    Out.push_back(std::move(Cur));
  return Out;
}

bool isSanitizerFlag(std::string_view Tok) {
  return Tok.rfind("-fsanitize", 0) == 0 || Tok.rfind("-fno-sanitize", 0) == 0;
}

/// Runs Argv[0] with stdout/stderr redirected to files ("" = /dev/null).
/// Returns the exit code, or -1 when the process could not be spawned.
int runProcess(const std::vector<std::string> &Argv,
               const std::string &OutPath, const std::string &ErrPath) {
  std::vector<char *> Cargv;
  Cargv.reserve(Argv.size() + 1);
  for (const std::string &S : Argv)
    Cargv.push_back(const_cast<char *>(S.c_str()));
  Cargv.push_back(nullptr);

  pid_t Pid = ::fork();
  if (Pid < 0)
    return -1;
  if (Pid == 0) {
    auto Redirect = [](const std::string &Path, int TargetFd) {
      const char *P = Path.empty() ? "/dev/null" : Path.c_str();
      int Fd = ::open(P, O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (Fd >= 0) {
        ::dup2(Fd, TargetFd);
        ::close(Fd);
      }
    };
    Redirect(OutPath, STDOUT_FILENO);
    Redirect(ErrPath, STDERR_FILENO);
    ::execvp(Cargv[0], Cargv.data());
    _exit(127);
  }
  int WStatus = 0;
  while (::waitpid(Pid, &WStatus, 0) < 0 && errno == EINTR)
    ;
  if (WIFEXITED(WStatus))
    return WEXITSTATUS(WStatus);
  return -1;
}

std::string readFilePrefix(const std::string &Path, size_t MaxBytes) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return "";
  std::string Out(MaxBytes, '\0');
  In.read(Out.data(), std::streamsize(MaxBytes));
  Out.resize(size_t(In.gcount()));
  return Out;
}

/// mkdtemp-backed scratch directory, removed on scope exit unless kept
/// (LIMPET_NATIVE_KEEP_TU=1). Removal walks the directory so stray
/// compiler droppings never leak into /tmp.
struct TempDir {
  std::string Path;
  bool Keep = false;

  Status create() {
    const char *Base = ::getenv("TMPDIR");
    std::string Tmpl = std::string(Base && *Base ? Base : "/tmp");
    Tmpl += "/limpet-native-XXXXXX";
    std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
    Buf.push_back('\0');
    if (!::mkdtemp(Buf.data()))
      return Status::error("native: mkdtemp(" + Tmpl +
                           ") failed: " + std::strerror(errno));
    Path = Buf.data();
    return Status::success();
  }

  ~TempDir() {
    if (Path.empty() || Keep)
      return;
    if (DIR *D = ::opendir(Path.c_str())) {
      while (dirent *E = ::readdir(D)) {
        std::string_view Name = E->d_name;
        if (Name == "." || Name == "..")
          continue;
        ::unlink((Path + "/" + std::string(Name)).c_str());
      }
      ::closedir(D);
    }
    ::rmdir(Path.c_str());
  }
};

bool keepTuRequested() {
  const char *Env = ::getenv("LIMPET_NATIVE_KEEP_TU");
  return Env && Env[0] == '1';
}

/// Moves Src to Dst, falling back to a copy when they live on different
/// filesystems (/tmp is often a separate tmpfs from the cache dir).
Status moveFile(const std::string &Src, const std::string &Dst) {
  if (::rename(Src.c_str(), Dst.c_str()) == 0)
    return Status::success();
  if (errno != EXDEV)
    return Status::error("native: rename to " + Dst +
                         " failed: " + std::strerror(errno));
  std::ifstream In(Src, std::ios::binary);
  std::ostringstream Bytes;
  Bytes << In.rdbuf();
  if (!In)
    return Status::error("native: reading " + Src + " failed");
  if (Status St = writeFileAtomic(Bytes.str(), Dst); !St)
    return St;
  ::unlink(Src.c_str());
  return Status::success();
}

std::mutex &registryMutex() {
  static std::mutex Mu;
  return Mu;
}

std::unordered_map<uint64_t, std::shared_ptr<exec::NativeKernel>> &registry() {
  static auto *Map =
      new std::unordered_map<uint64_t, std::shared_ptr<exec::NativeKernel>>();
  return *Map;
}

} // namespace

//===----------------------------------------------------------------------===//
// Toolchain probe + cache key
//===----------------------------------------------------------------------===//

Expected<NativeToolchain> compiler::nativeToolchain() {
  NativeToolchain TC;
  const char *EnvCc = ::getenv("LIMPET_NATIVE_CC");
  TC.Compiler = EnvCc && *EnvCc ? EnvCc : LIMPET_HOST_CXX;

  const char *EnvFlags = ::getenv("LIMPET_NATIVE_CXXFLAGS");
  std::string Base = EnvFlags ? EnvFlags : LIMPET_HOST_CXXFLAGS;
  std::string Flags;
  // Sanitizer instrumentation must never leak into kernels: the host
  // flags are reused for FP fidelity, not for instrumentation, and a
  // -fsanitize'd .so would need the runtime preloaded to even dlopen.
  for (const std::string &Tok : splitFlags(Base)) {
    if (isSanitizerFlag(Tok))
      continue;
    Flags += Tok;
    Flags += ' ';
  }
  Flags += "-std=c++20 -fPIC -shared -w";
  TC.Flags = std::move(Flags);

  // `cc --version` both proves the compiler is runnable and names the
  // exact version for the cache key, so a toolchain upgrade behind a
  // stable path (e.g. /usr/bin/c++) invalidates every cached kernel.
  struct ProbeResult {
    bool Ok = false;
    std::string IdentityOrError;
  };
  static std::mutex ProbeMu;
  static std::unordered_map<std::string, ProbeResult> Probes;
  {
    std::lock_guard<std::mutex> Lock(ProbeMu);
    auto It = Probes.find(TC.Compiler);
    if (It != Probes.end()) {
      if (!It->second.Ok)
        return Status::error(It->second.IdentityOrError);
      TC.Identity = It->second.IdentityOrError;
      return TC;
    }
  }

  ProbeResult Probe;
  TempDir Dir;
  if (Status St = Dir.create(); !St) {
    // Can't even make a scratch file: report without memoizing, the
    // condition (full /tmp) is transient in a way a missing cc is not.
    return Status::error(St.message());
  }
  std::string OutPath = Dir.Path + "/cc.version";
  int RC = runProcess({TC.Compiler, "--version"}, OutPath, "");
  std::string FirstLine = readFilePrefix(OutPath, 256);
  if (size_t NL = FirstLine.find('\n'); NL != std::string::npos)
    FirstLine.resize(NL);
  if (RC != 0 || FirstLine.empty()) {
    Probe.Ok = false;
    Probe.IdentityOrError = "native: compiler '" + TC.Compiler +
                            "' is not runnable (exit " + std::to_string(RC) +
                            "); set LIMPET_NATIVE_CC or use --engine=vm";
  } else {
    Probe.Ok = true;
    Probe.IdentityOrError = FirstLine;
  }
  {
    std::lock_guard<std::mutex> Lock(ProbeMu);
    Probes.emplace(TC.Compiler, Probe);
  }
  if (!Probe.Ok)
    return Status::error(Probe.IdentityOrError);
  TC.Identity = Probe.IdentityOrError;
  return TC;
}

uint64_t compiler::nativeKernelKey(uint64_t CompileKey, uint32_t EmitterVersion,
                                   const NativeToolchain &TC) {
  char Head[12];
  std::memcpy(Head, &CompileKey, 8);
  std::memcpy(Head + 8, &EmitterVersion, 4);
  uint64_t H = fnv1a64(std::string_view(Head, sizeof Head));
  H = fnv1a64(TC.Compiler, H);
  H = fnv1a64(TC.Identity, H);
  H = fnv1a64(TC.Flags, H);
  return H;
}

//===----------------------------------------------------------------------===//
// Source emission
//===----------------------------------------------------------------------===//

namespace {

/// Exact double literal: the bit pattern survives the round trip through
/// source text by construction (decimal literals would not).
std::string bitsLiteral(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, 8);
  char Buf[64];
  std::snprintf(Buf, sizeof Buf, "lbits(0x%016llxull) /* %.17g */",
                (unsigned long long)Bits, V);
  return Buf;
}

/// The lane expressions of the pure ops (exec/BcOps.def), stringized: the
/// scalar and vector engines' forms; null for the layout and table ops.
struct LaneForms {
  const char *Scalar;
  const char *Vector;
};
constexpr LaneForms kLaneForms[] = {
#define LANE(E) {#E, #E}
#define LANE2(Scalar, Vector) {#Scalar, #Vector}
#define BC_OP(...) {nullptr, nullptr},
#define BC_PURE(Name, Mnemonic, From, Shape, Flops, Class, Pin, Lane) Lane,
#include "exec/BcOps.def"
#undef LANE
#undef LANE2
};

/// \p Expr with its operand names a, b and c replaced by \p A, \p B and
/// \p C: an identifier token is replaced only when it is exactly one of
/// them, so `std::fmod(a, b)` keeps its `std::fmod`.
std::string laneExpr(std::string_view Expr, const std::string &A,
                     const std::string &B, const std::string &C) {
  auto IsWord = [](char Ch) {
    return std::isalnum((unsigned char)Ch) || Ch == '_' || Ch == '.';
  };
  std::string Out;
  for (size_t I = 0; I != Expr.size();) {
    if (!IsWord(Expr[I])) {
      Out += Expr[I++];
      continue;
    }
    size_t J = I;
    while (J != Expr.size() && IsWord(Expr[J]))
      ++J;
    std::string_view Tok = Expr.substr(I, J - I);
    Out += Tok == "a" ? A : Tok == "b" ? B : Tok == "c" ? C : std::string(Tok);
    I = J;
  }
  return Out;
}

struct EmitCtx {
  const BcProgram &P;
  bool Fast;
  /// Lanes of the flavour being emitted; 1 selects the scalar mirror.
  unsigned W;
  /// Column count of each LUT table, which fixes the batches' chunks.
  std::vector<int64_t> LutCols;
};

/// How the vector flavour emits one instruction's part in a LUT batch
/// (file header, point 3). A batched LutCoord declares \c Array and blends
/// one W-column chunk per entry of \c ChunkStarts; a batched LutInterp
/// reads the column array element \c Elem. Empty strings: no batch.
struct LutBatchSite {
  std::string Array;
  std::vector<int64_t> ChunkStarts;
  std::string Elem;
};

bool writesReg(const BcInstr &I, unsigned Reg) {
  if (I.Op == BcOp::StoreState || I.Op == BcOp::StoreExt)
    return false;
  return I.Dst == Reg || (I.Op == BcOp::LutCoord && I.C == Reg);
}

/// Plans the LUT batches of one instruction list; one site per instruction.
std::vector<LutBatchSite> planLutBatches(const std::vector<BcInstr> &List,
                                         const EmitCtx &C) {
  std::vector<LutBatchSite> Sites(List.size());
  const int64_t W = C.W;
  for (size_t I = 0; I != List.size(); ++I) {
    const BcInstr &Co = List[I];
    if (Co.Op != BcOp::LutCoord || size_t(Co.Aux) >= C.LutCols.size())
      continue;
    const int64_t Cols = C.LutCols[size_t(Co.Aux)];
    if (Cols < W) // a chunk of row Idx+1 could read past the table
      continue;
    const std::string Array = "lcol" + std::to_string(I);
    std::vector<int64_t> &Starts = Sites[I].ChunkStarts;
    for (size_t J = I + 1; J != List.size(); ++J) {
      const BcInstr &In = List[J];
      if (In.Op == BcOp::LutInterp && In.Aux == Co.Aux && In.A == Co.Dst &&
          In.B == Co.C && In.Aux2 >= 0 && In.Aux2 < Cols) {
        // Whole chunks from column 0; a column past the last whole chunk
        // reads the chunk that ends at the row's end.
        int64_t Start = std::min(In.Aux2 / W * W, Cols - W);
        size_t Slot = size_t(
            std::find(Starts.begin(), Starts.end(), Start) - Starts.begin());
        if (Slot == Starts.size())
          Starts.push_back(Start);
        Sites[J].Elem = Array + "[" + std::to_string(Slot) + "][" +
                        std::to_string(In.Aux2 - Start) + "]";
      }
      if (writesReg(In, Co.Dst) || writesReg(In, Co.C))
        break;
    }
    if (!Starts.empty())
      Sites[I].Array = Array;
  }
  return Sites;
}

std::string stateIndexExpr(const EmitCtx &C, const std::string &Cell,
                           int64_t Sv) {
  // Literal-folded stateIndex (codegen/KernelSpec.h) for this program's
  // layout; all arithmetic stays int64 exactly as in the inline original.
  std::ostringstream S;
  switch (C.P.Layout) {
  case codegen::StateLayout::AoS:
    S << "(" << Cell << ") * " << int64_t(C.P.NumSv) << "ll + " << Sv << "ll";
    break;
  case codegen::StateLayout::SoA:
    S << Sv << "ll * A.NumCells + (" << Cell << ")";
    break;
  case codegen::StateLayout::AoSoA: {
    int64_t W = C.P.AoSoAW;
    S << "((" << Cell << ") / " << W << "ll) * "
      << int64_t(C.P.NumSv) * W << "ll + " << Sv * W << "ll + (" << Cell
      << ") % " << W << "ll";
    break;
  }
  }
  return S.str();
}

/// One instruction of the scalar flavour: a single statement mirroring
/// execScalarInstr<Fast>, registers specialized to constant indices.
void emitScalarInstr(std::string &Out, const BcInstr &I, const EmitCtx &C,
                     const std::string &Cell) {
  auto R = [](unsigned Reg) { return "R[" + std::to_string(Reg) + "]"; };
  std::string D = R(I.Dst), Ra = R(I.A), Rb = R(I.B), Rc = R(I.C);
  std::ostringstream S;
  S << "    ";
  switch (I.Op) {
  case BcOp::ConstF:
    S << D << " = " << bitsLiteral(I.Imm) << ";";
    break;
  case BcOp::LoadState:
    S << D << " = A.State[" << stateIndexExpr(C, Cell, I.Aux) << "];";
    break;
  case BcOp::StoreState:
    S << "A.State[" << stateIndexExpr(C, Cell, I.Aux) << "] = " << Ra << ";";
    break;
  case BcOp::LoadExt:
    S << D << " = A.Exts[" << I.Aux << "][" << Cell << "];";
    break;
  case BcOp::StoreExt:
    S << "A.Exts[" << I.Aux << "][" << Cell << "] = " << Ra << ";";
    break;
  case BcOp::LoadParam:
    S << D << " = A.Params[" << I.Aux << "];";
    break;
  case BcOp::LutCoord:
    // Mirrors LutTable::coord: NaN clamps to 0 before the int64_t cast.
    S << "{\n      const NativeLutDesc &Lt = A.Luts[" << I.Aux << "];\n"
      << "      double Pos = (" << Ra << " - Lt.Lo) * Lt.InvStep;\n"
      << "      Pos = Pos > 0.0 ? (Pos < Lt.MaxPos ? Pos : Lt.MaxPos) : "
         "0.0;\n"
      << "      double Floor = double(int64_t(Pos));\n"
      << "      Floor = Floor > Lt.MaxIdx ? Lt.MaxIdx : Floor;\n"
      << "      " << D << " = Floor;\n"
      << "      " << Rc << " = Pos - Floor;\n"
      << "    }";
    break;
  case BcOp::LutInterp:
    // Mirrors LutTable::interp.
    S << "{\n      const NativeLutDesc &Lt = A.Luts[" << I.Aux << "];\n"
      << "      const double *Row = Lt.Data + size_t(int64_t(" << Ra
      << ")) * Lt.Cols + " << I.Aux2 << ";\n"
      << "      " << D
      << " = limpet::vecmath::lutBlend(Row[0], Row[size_t(Lt.Cols)], " << Rb
      << ");\n"
      << "    }";
    break;
  case BcOp::LutInterpCubic:
    // Mirrors LutTable::interpCubic.
    S << "{\n      const NativeLutDesc &Lt = A.Luts[" << I.Aux << "];\n"
      << "      int64_t Idx = int64_t(" << Ra << ");\n"
      << "      int64_t I0 = Idx > 0 ? Idx - 1 : 0;\n"
      << "      int64_t I3 = Idx + 2 < Lt.Rows ? Idx + 2 : Lt.Rows - 1;\n"
      << "      " << D << " = limpet::vecmath::lutCubic(Lt.Data[size_t(I0) * "
      << "Lt.Cols + " << I.Aux2 << "], Lt.Data[size_t(Idx) * Lt.Cols + "
      << I.Aux2 << "], Lt.Data[size_t(Idx + 1) * Lt.Cols + " << I.Aux2
      << "], Lt.Data[size_t(I3) * Lt.Cols + " << I.Aux2 << "], " << Rb
      << ");\n"
      << "    }";
    break;
  default:
    S << D << " = " << laneExpr(kLaneForms[size_t(I.Op)].Scalar, Ra, Rb, Rc)
      << ";";
    break;
  }
  Out += S.str();
  if (bcOpInfo(I.Op).pinned(C.Fast))
    Out += "\n    asm(\"\" : \"+m\"(" + D + "));";
  Out += "\n";
}

std::string vreg(unsigned Reg) { return "r" + std::to_string(Reg); }

/// A per-lane body the vector types cannot spell (libm and fast-math
/// calls, fmod, LUT gathers): the VM's lane loop, run over local arrays.
/// \p Ins pairs an array name with the register copied into it; \p Body
/// assigns `d[L]` from the inputs' lanes; the result is loaded back into
/// \p Dst as one vector.
void emitLaneLoop(std::ostringstream &S, unsigned W,
                  const std::vector<std::pair<const char *, unsigned>> &Ins,
                  unsigned Dst, const std::string &Body) {
  S << "      double d[" << W << "]";
  for (const auto &[Name, Reg] : Ins)
    S << ", " << Name << "[" << W << "]";
  S << ";\n";
  for (const auto &[Name, Reg] : Ins)
    S << "      __builtin_memcpy(" << Name << ", &" << vreg(Reg) << ", sizeof "
      << Name << ");\n";
  S << "      for (int L = 0; L != " << W << "; ++L)" << Body;
  S << "      __builtin_memcpy(&" << vreg(Dst) << ", d, sizeof d);\n";
}

/// One instruction of the vector flavour, mirroring execVectorInstr<W,
/// Fast>: each register is an `lv` value, so element-wise ops are single
/// vector expressions the host compiler keeps in SIMD registers. \p Site
/// is the instruction's part in a LUT batch, if any.
void emitVectorInstr(std::string &Out, const BcInstr &I, const EmitCtx &C,
                     const std::string &Cell, const LutBatchSite &Site) {
  const unsigned W = C.W;
  const std::string D = vreg(I.Dst), Ra = vreg(I.A), Rb = vreg(I.B),
                    Rc = vreg(I.C);
  const std::string Col = std::to_string(I.Aux2);
  std::ostringstream S;
  // A batch's column array outlives the coord's block: its interps follow.
  if (!Site.Array.empty())
    S << "    lv " << Site.Array << "[" << Site.ChunkStarts.size() << "]["
      << W << "];\n";
  S << "    { // " << bcOpName(I.Op) << "\n";
  // Unit-stride state and external blocks move as one unaligned vector.
  auto Contiguous = [&](bool Load, const std::string &Ptr) {
    S << "      __builtin_memcpy("
      << (Load ? "&" + D + ", " + Ptr : Ptr + ", &" + Ra) << ", sizeof(lv));\n";
  };
  auto StatePtr = [&] {
    std::ostringstream P;
    if (C.P.Layout == codegen::StateLayout::AoSoA)
      P << "A.State + size_t(" << Cell << ") * " << C.P.NumSv << " + "
        << size_t(I.Aux) * W;
    else
      P << "A.State + size_t(" << I.Aux << ") * A.NumCells + " << Cell;
    return P.str();
  };
  // AoS: one cell's struct per lane, a strided gather/scatter.
  auto AosElem = [&] {
    return "A.State[size_t(" + Cell + " + L) * " + std::to_string(C.P.NumSv) +
           " + " + std::to_string(size_t(I.Aux)) + "]";
  };

  switch (I.Op) {
  case BcOp::ConstF:
    S << "      " << D << " = lsplat(" << bitsLiteral(I.Imm) << ");\n";
    break;
  case BcOp::LoadState:
    if (C.P.Layout == codegen::StateLayout::AoS)
      emitLaneLoop(S, W, {}, I.Dst, "\n        d[L] = " + AosElem() + ";\n");
    else
      Contiguous(true, StatePtr());
    break;
  case BcOp::StoreState:
    if (C.P.Layout == codegen::StateLayout::AoS)
      S << "      double a[" << W << "];\n"
        << "      __builtin_memcpy(a, &" << Ra << ", sizeof a);\n"
        << "      for (int L = 0; L != " << W << "; ++L)\n        "
        << AosElem() << " = a[L];\n";
    else
      Contiguous(false, StatePtr());
    break;
  case BcOp::LoadExt:
    Contiguous(true, "A.Exts[" + std::to_string(I.Aux) + "] + " + Cell);
    break;
  case BcOp::StoreExt:
    Contiguous(false, "A.Exts[" + std::to_string(I.Aux) + "] + " + Cell);
    break;
  case BcOp::LoadParam:
    S << "      " << D << " = lsplat(A.Params[" << I.Aux << "]);\n";
    break;
  case BcOp::LutCoord:
    // LutTable::coord on whole vectors. As in the VM's lane loop, the
    // clamp sends a NaN lane to 0.0 before the truncating conversion.
    S << "      const NativeLutDesc &Lt = A.Luts[" << I.Aux << "];\n"
      << "      lv Pos = (" << Ra << " - lsplat(Lt.Lo)) * lsplat(Lt.InvStep);\n"
      << "      const lv MaxPos = lsplat(Lt.MaxPos), MaxIdx = "
         "lsplat(Lt.MaxIdx);\n"
      << "      Pos = Pos > lzero ? (Pos < MaxPos ? Pos : MaxPos) : lzero;\n"
      << "      lv Floor = __builtin_convertvector("
         "__builtin_convertvector(Pos, lvi), lv);\n"
      << "      Floor = Floor > MaxIdx ? MaxIdx : Floor;\n"
      << "      " << D << " = Floor;\n"
      << "      " << Rc << " = Pos - Floor;\n";
    if (!Site.Array.empty()) {
      const int64_t Cols = C.LutCols[size_t(I.Aux)];
      S << "      for (int L = 0; L != " << W << "; ++L) {\n"
        << "        const double *Row = Lt.Data + int64_t(" << D << "[L]) * "
        << Cols << ";\n"
        << "        const lv F = lsplat(" << Rc << "[L]);\n";
      for (size_t K = 0; K != Site.ChunkStarts.size(); ++K)
        S << "        " << Site.Array << "[" << K << "][L] = lblend(Row + "
          << Site.ChunkStarts[K] << ", Row + " << Cols + Site.ChunkStarts[K]
          << ", F);\n";
      S << "      }\n";
      for (size_t K = 0; K != Site.ChunkStarts.size(); ++K)
        S << "      ltranspose(" << Site.Array << "[" << K << "]);\n";
    }
    break;
  case BcOp::LutInterp:
    if (!Site.Elem.empty()) {
      S << "      " << D << " = " << Site.Elem << ";\n";
      break;
    }
    S << "      const double *Tab = A.Luts[" << I.Aux << "].Data;\n"
      << "      int64_t Cols = A.Luts[" << I.Aux << "].Cols;\n";
    emitLaneLoop(S, W, {{"a", I.A}, {"b", I.B}}, I.Dst,
                 " {\n"
                 "        int64_t Idx = int64_t(a[L]);\n"
                 "        d[L] = limpet::vecmath::lutBlend(Tab[Idx * Cols + " +
                     Col + "], Tab[Idx * Cols + Cols + " + Col + "], b[L]);\n"
                 "      }\n");
    break;
  case BcOp::LutInterpCubic:
    S << "      const double *Tab = A.Luts[" << I.Aux << "].Data;\n"
      << "      int64_t Cols = A.Luts[" << I.Aux << "].Cols;\n"
      << "      int64_t LastRow = A.Luts[" << I.Aux << "].Rows - 1;\n";
    emitLaneLoop(
        S, W, {{"a", I.A}, {"b", I.B}}, I.Dst,
        " {\n"
        "        int64_t Idx = int64_t(a[L]);\n"
        "        int64_t I0 = Idx > 0 ? Idx - 1 : 0;\n"
        "        int64_t I3 = Idx + 2 < LastRow + 1 ? Idx + 2 : LastRow;\n"
        "        d[L] = limpet::vecmath::lutCubic(Tab[I0 * Cols + " + Col +
            "], Tab[Idx * Cols + " + Col + "], Tab[(Idx + 1) * Cols + " + Col +
            "], Tab[I3 * Cols + " + Col + "], b[L]);\n"
        "      }\n");
    break;
  default: {
    // A pure op: one vector expression, or for library calls the VM's
    // lane loop over local arrays.
    const std::string_view Expr = kLaneForms[size_t(I.Op)].Vector;
    const exec::BcOpInfo &Info = bcOpInfo(I.Op);
    if (Info.Class != exec::BcClass::Call &&
        Info.Class != exec::BcClass::Math) {
      S << "      " << D << " = " << laneExpr(Expr, Ra, Rb, Rc) << ";\n";
      break;
    }
    std::vector<std::pair<const char *, unsigned>> Ins = {{"a", I.A}};
    if (Info.uses(exec::bcfield::B))
      Ins.push_back({"b", I.B});
    emitLaneLoop(S, W, Ins, I.Dst,
                 "\n        d[L] = " + laneExpr(Expr, "a[L]", "b[L]", "c[L]") +
                     ";\n");
    break;
  }
  }
  if (bcOpInfo(I.Op).pinned(C.Fast))
    S << "      LIMPET_PIN(" << D << ");\n";
  S << "    }\n";
  Out += S.str();
}

/// Emits one run function over [Begin, End): the scalar mirror when
/// C.W == 1, the W-block vector mirror otherwise.
void emitRunFunction(std::string &Out, const EmitCtx &C,
                     const std::string &FnName) {
  const BcProgram &P = C.P;
  const unsigned W = C.W;
  Out += "static void " + FnName +
         "(const NativeKernelArgs &A, int64_t Begin, int64_t End) {\n";
  if (W == 1) {
    Out += "  double R[" + std::to_string(P.NumRegs == 0 ? 1 : P.NumRegs) +
           "];\n";
    Out += "  for (size_t I = 0; I != " + std::to_string(P.NumRegs) +
           "; ++I)\n    R[I] = 0.0;\n";
    if (P.HasDt)
      Out += "  R[" + std::to_string(P.DtReg) + "] = A.Dt;\n";
    if (P.HasT)
      Out += "  R[" + std::to_string(P.TReg) + "] = A.T;\n";
  } else {
    // The VM's zeroed register file, one vector value per register.
    Out += "  const lv lzero = {};\n";
    for (unsigned Reg = 0; Reg != P.NumRegs; ++Reg)
      Out += (Reg % 8 == 0 ? "  lv " : " ") + vreg(Reg) + " = {}" +
             (Reg % 8 == 7 || Reg + 1 == P.NumRegs ? ";\n" : ",");
    if (P.HasDt)
      Out += "  " + vreg(P.DtReg) + " = lsplat(A.Dt);\n";
    if (P.HasT)
      Out += "  " + vreg(P.TReg) + " = lsplat(A.T);\n";
  }
  // Prologue cell convention mirrors the engines: the scalar flavour runs
  // it at cell 0, the vector flavour at the range start (lane-uniform
  // either way — it never touches per-cell storage).
  Out += "  {\n";
  Out += W == 1 ? "    const int64_t Cell = 0; (void)Cell;\n"
                : "    const int64_t Cell = Begin; (void)Cell;\n";
  auto EmitList = [&](const std::vector<BcInstr> &List) {
    if (W == 1) {
      for (const BcInstr &I : List)
        emitScalarInstr(Out, I, C, "Cell");
      return;
    }
    std::vector<LutBatchSite> Sites = planLutBatches(List, C);
    for (size_t I = 0; I != List.size(); ++I)
      emitVectorInstr(Out, List[I], C, "Cell", Sites[I]);
  };
  EmitList(P.Prologue);
  Out += "  }\n";
  if (W == 1)
    Out += "  for (int64_t Cell = Begin; Cell != End; ++Cell) {\n";
  else
    Out += "  for (int64_t Cell = Begin; Cell + " + std::to_string(W) +
           " <= End; Cell += " + std::to_string(W) + ") {\n";
  EmitList(P.Body);
  Out += "  }\n";
  Out += "}\n\n";
}

/// The vector flavour's types and helpers: `lv` holds one register's W
/// lanes, and LIMPET_PIN is the value barrier (file header, point 2),
/// held in a SIMD register whenever one is wide enough for `lv`.
std::string vectorPreamble(unsigned W) {
  std::string Bytes = std::to_string(8 * W);
  std::string S;
  S += "typedef double lv __attribute__((vector_size(" + Bytes + ")));\n";
  S += "typedef long long lvi __attribute__((vector_size(" + Bytes +
       ")));\n\n";
  S += "inline lv lsplat(double X) { return lv{";
  for (unsigned L = 0; L != W; ++L)
    S += L ? ", X" : "X";
  S += "}; }\n\n";
  S += "#if defined(__AVX512F__)\n"
       "#define LIMPET_VREG_BYTES 64\n"
       "#elif defined(__AVX__)\n"
       "#define LIMPET_VREG_BYTES 32\n"
       "#elif defined(__SSE2__) || defined(__aarch64__)\n"
       "#define LIMPET_VREG_BYTES 16\n"
       "#else\n"
       "#define LIMPET_VREG_BYTES 0\n"
       "#endif\n"
       "#if (defined(__x86_64__) || defined(__i386__)) && " +
       Bytes +
       " <= LIMPET_VREG_BYTES\n"
       "#define LIMPET_PIN(X) asm(\"\" : \"+v\"(X))\n"
       "#elif defined(__aarch64__) && " +
       Bytes +
       " <= LIMPET_VREG_BYTES\n"
       "#define LIMPET_PIN(X) asm(\"\" : \"+w\"(X))\n"
       "#else\n"
       "#define LIMPET_PIN(X) asm(\"\" : \"+m\"(X))\n"
       "#endif\n\n";
  // The LUT batch helpers (file header, point 3).
  S += "inline lv lblend(const double *Lo, const double *Hi, lv F) {\n"
       "  lv L, H;\n"
       "  __builtin_memcpy(&L, Lo, sizeof L);\n"
       "  __builtin_memcpy(&H, Hi, sizeof H);\n"
       "  return limpet::vecmath::lutBlend(L, H, F);\n"
       "}\n\n";
  // ltranspose: log2(W) perfect shuffles on local values. Each stage
  // rotates the (row, column) bits of an element's position by one, so
  // log2(W) of them swap row and column. GCC before 12 lacks
  // __builtin_shufflevector; its __builtin_shuffle takes the same indices
  // as a mask vector.
  S += "#if defined(__clang__) || __GNUC__ >= 12\n"
       "#define LIMPET_SHUFFLE(A, B, ...) "
       "__builtin_shufflevector(A, B, __VA_ARGS__)\n"
       "#else\n"
       "#define LIMPET_SHUFFLE(A, B, ...) "
       "__builtin_shuffle(A, B, lvi{__VA_ARGS__})\n"
       "#endif\n"
       "inline void ltranspose(lv *M) {\n"
       "  const lv ";
  for (unsigned K = 0; K != W; ++K)
    S += (K ? ", t0_" : "t0_") + std::to_string(K) + " = M[" +
         std::to_string(K) + "]";
  S += ";\n";
  std::string Lo, Hi;
  for (unsigned K = 0; K != W / 2; ++K) {
    Lo += ", " + std::to_string(K) + ", " + std::to_string(W + K);
    Hi += ", " + std::to_string(W / 2 + K) + ", " +
          std::to_string(W + W / 2 + K);
  }
  unsigned Stage = 0;
  for (unsigned Span = 1; Span < W; Span *= 2, ++Stage) {
    std::string Src = "t" + std::to_string(Stage) + "_",
                Dst = "t" + std::to_string(Stage + 1) + "_";
    for (unsigned K = 0; K != W / 2; ++K) {
      std::string Args = Src + std::to_string(K) + ", " + Src +
                         std::to_string(K + W / 2);
      S += "  const lv " + Dst + std::to_string(2 * K) +
           " = LIMPET_SHUFFLE(" + Args + Lo + ");\n";
      S += "  const lv " + Dst + std::to_string(2 * K + 1) +
           " = LIMPET_SHUFFLE(" + Args + Hi + ");\n";
    }
  }
  for (unsigned K = 0; K != W; ++K)
    S += "  M[" + std::to_string(K) + "] = t" + std::to_string(Stage) + "_" +
         std::to_string(K) + ";\n";
  S += "}\n\n";
  return S;
}

} // namespace

std::string compiler::emitKernelSource(const exec::CompiledModel &M,
                                       std::string_view ModelName,
                                       uint64_t Key) {
  const BcProgram &P = M.program();
  const exec::EngineConfig &Cfg = M.config();
  const unsigned W = Cfg.Width;
  const bool Fast = Cfg.FastMath;

  std::string S;
  S.reserve(64 * 1024);
  S += "// Generated by limpet KernelEmitter v" +
       std::to_string(kKernelEmitterVersion) + " — do not edit.\n";
  S += "// model: " + std::string(ModelName) + "\n";
  S += "// config: " + exec::engineConfigName(Cfg) + "\n";
  S += "// key: " + hex16(Key) + "\n";
  S += "#include <cmath>\n#include <cstdint>\n#include <cstring>\n\n";
  // Self-contained copy of the VecMath kernels and the arithmetic the VM
  // shares with kernels: the exact header the host was built with, so
  // inlining and contraction match.
  S += kVecMathSource;
  S += "\n";
  S += "namespace {\n\n";
  // C ABI mirror of exec::NativeKernel.h — bump the ABI version there if
  // these ever change.
  S += "struct NativeLutDesc {\n"
       "  const double *Data;\n"
       "  int64_t Rows;\n"
       "  int64_t Cols;\n"
       "  double Lo;\n"
       "  double InvStep;\n"
       "  double MaxPos;\n"
       "  double MaxIdx;\n"
       "};\n\n"
       "struct NativeKernelArgs {\n"
       "  double *State;\n"
       "  double *const *Exts;\n"
       "  const double *Params;\n"
       "  int64_t Start;\n"
       "  int64_t End;\n"
       "  int64_t NumCells;\n"
       "  double Dt;\n"
       "  double T;\n"
       "  const NativeLutDesc *Luts;\n"
       "};\n\n";
  S += std::string("using M = limpet::vecmath::MathOps<") +
       (Fast ? "true" : "false") + ">;\n\n";
  S += "inline double lbits(unsigned long long B) {\n"
       "  double D;\n"
       "  std::memcpy(&D, &B, 8);\n"
       "  return D;\n"
       "}\n\n";

  if (W > 1) {
    S += vectorPreamble(W);
    EmitCtx Main{P, Fast, W, {}};
    for (const runtime::LutTable &T : M.luts().Tables)
      Main.LutCols.push_back(T.cols());
    emitRunFunction(S, Main, "limpet_run_main");
  }
  EmitCtx Tail{P, Fast, 1, {}};
  emitRunFunction(S, Tail, "limpet_run_tail");
  S += "} // namespace\n\n";

  S += "extern \"C\" int32_t limpet_kernel_abi_version() { return " +
       std::to_string(exec::kNativeKernelAbiVersion) + "; }\n\n";
  S += "extern \"C\" const char *limpet_kernel_meta() {\n  return \"" +
       std::string(ModelName) + " " + exec::engineConfigName(Cfg) + " key=" +
       hex16(Key) + " emitter=v" + std::to_string(kKernelEmitterVersion) +
       "\";\n}\n\n";
  S += "extern \"C\" void limpet_kernel_step(const NativeKernelArgs "
       "*Args) {\n";
  S += "  const NativeKernelArgs &A = *Args;\n";
  if (W > 1) {
    // Mirrors Backend::dispatch: whole W-blocks through the vector
    // flavour, the ragged tail through the scalar flavour with its own
    // fresh register file and prologue run.
    S += "  int64_t Main = A.Start + (A.End - A.Start) / " +
         std::to_string(W) + " * " + std::to_string(W) + ";\n";
    S += "  if (Main > A.Start)\n    limpet_run_main(A, A.Start, Main);\n";
    S += "  if (Main < A.End)\n    limpet_run_tail(A, Main, A.End);\n";
  } else {
    S += "  limpet_run_tail(A, A.Start, A.End);\n";
  }
  S += "}\n";
  return S;
}

//===----------------------------------------------------------------------===//
// Cache + compile orchestration
//===----------------------------------------------------------------------===//

namespace {

std::string nativeDiskPath(uint64_t Key) {
  std::string Dir = CompileCache::global().diskDir();
  if (Dir.empty())
    return "";
  return Dir + "/" + hex16(Key) + ".native.so";
}

Status runCompiler(const NativeToolchain &TC, const std::string &TuPath,
                   const std::string &SoPath, const std::string &ErrPath) {
  std::vector<std::string> Argv;
  Argv.push_back(TC.Compiler);
  for (std::string &Tok : splitFlags(TC.Flags))
    Argv.push_back(std::move(Tok));
  Argv.push_back("-o");
  Argv.push_back(SoPath);
  Argv.push_back(TuPath);

  telemetry::counter("native.cc.count").add(1);
#if LIMPET_TELEMETRY_ENABLED
  auto T0 = telemetry::Clock::now();
#endif
  int RC = runProcess(Argv, "", ErrPath);
#if LIMPET_TELEMETRY_ENABLED
  telemetry::counter("native.cc.ns").add(telemetry::nanosecondsSince(T0));
#endif
  if (RC == 0)
    return Status::success();
  std::string Err = readFilePrefix(ErrPath, 2000);
  return Status::error("native: " + TC.Compiler + " exited " +
                       std::to_string(RC) +
                       (Err.empty() ? std::string() : ":\n" + Err));
}

} // namespace

NativeAttachResult compiler::getOrEmitNativeKernel(const exec::CompiledModel &M,
                                                   uint64_t CompileKey,
                                                   std::string_view ModelName) {
  NativeAttachResult Res;
  auto FailWith = [&Res](Status St) -> NativeAttachResult & {
    telemetry::counter("native.attach.fail").add(1);
    Res.Err = std::move(St);
    return Res;
  };

  Expected<NativeToolchain> TC = nativeToolchain();
  if (!TC)
    return FailWith(TC.status());

  const exec::EngineConfig &Cfg = M.config();
  uint64_t Key = nativeKernelKey(CompileKey, kKernelEmitterVersion, *TC);
  Res.Key = Key;
  std::string KernelName = "native/" + exec::engineConfigName(Cfg);

  // Tier 1: the in-process loaded-kernel registry.
  {
    std::lock_guard<std::mutex> Lock(registryMutex());
    auto It = registry().find(Key);
    if (It != registry().end()) {
      telemetry::counter("native.cache.hit").add(1);
      Res.Kernel = It->second;
      Res.MemoryHit = true;
      return Res;
    }
  }

  auto Publish = [&](std::shared_ptr<exec::NativeKernel> K) {
    std::lock_guard<std::mutex> Lock(registryMutex());
    // Two threads can race the same miss; the first insert wins and both
    // share its kernel.
    auto [It, Inserted] = registry().emplace(Key, std::move(K));
    Res.Kernel = It->second;
  };

  // Tier 2: the on-disk .so cache next to the artifact cache.
  std::string DiskPath = nativeDiskPath(Key);
  if (!DiskPath.empty() && ::access(DiskPath.c_str(), R_OK) == 0) {
    Expected<std::shared_ptr<exec::NativeKernel>> K =
        exec::NativeKernel::load(DiskPath, Cfg.Width, Cfg.FastMath,
                                 KernelName);
    if (K) {
      telemetry::counter("native.cache.disk_hit").add(1);
      Res.DiskHit = true;
      Publish(*K);
      return Res;
    }
    // Corrupt or truncated entry: count it, delete it, re-emit below —
    // the same discipline the artifact disk tier uses.
    telemetry::counter("native.cache.bad").add(1);
    ::unlink(DiskPath.c_str());
  }
  telemetry::counter("native.cache.miss").add(1);

  // Tier 3: emit the TU and shell out to the toolchain.
  TempDir Dir;
  Dir.Keep = keepTuRequested();
  if (Status St = Dir.create(); !St)
    return FailWith(St);
  std::string TuPath = Dir.Path + "/kernel.cpp";
  std::string SoPath = Dir.Path + "/kernel.so";
  std::string ErrPath = Dir.Path + "/cc.err";

  std::string Source = emitKernelSource(M, ModelName, Key);
  if (Status St = writeFileAtomic(Source, TuPath); !St)
    return FailWith(St);
  if (Status St = runCompiler(*TC, TuPath, SoPath, ErrPath); !St) {
    if (Dir.Keep)
      std::fprintf(stderr, "limpet: native TU kept at %s\n",
                   Dir.Path.c_str());
    return FailWith(St);
  }

  // Promote into the disk tier so the next process skips cc entirely;
  // when that fails (read-only dir, cross-device copy error) the kernel
  // still loads from the scratch dir — dlopen's mapping outlives the
  // file's unlink.
  std::string LoadPath = SoPath;
  if (!DiskPath.empty()) {
    if (moveFile(SoPath, DiskPath))
      LoadPath = DiskPath;
  }
  Expected<std::shared_ptr<exec::NativeKernel>> K =
      exec::NativeKernel::load(LoadPath, Cfg.Width, Cfg.FastMath, KernelName);
  if (!K)
    return FailWith(K.status());
  if (Dir.Keep)
    std::fprintf(stderr, "limpet: native TU kept at %s\n", Dir.Path.c_str());
  Publish(*K);
  return Res;
}

void compiler::clearNativeKernelRegistry() {
  std::lock_guard<std::mutex> Lock(registryMutex());
  registry().clear();
}
