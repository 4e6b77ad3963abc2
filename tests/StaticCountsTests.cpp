//===- StaticCountsTests.cpp - per-model static cost model ----------------===//
//
// Pins the static cost model (BcProgram::Counts, LutOpsPerCell,
// MathOpsPerCell) and the Body's opcode histogram of every registry model
// under the baseline and limpetMLIR(8) configurations. The fig6 roofline
// and the benchmark's exec.*_per_cell_step metrics are derived from these
// counts, so a change to an op's cost column, class column or IR mapping
// in exec/BcOps.def shows up here as a changed model. The values were
// recorded before the cost model moved into the op table.
//
//===----------------------------------------------------------------------===//

#include "easyml/Sema.h"
#include "exec/CompiledModel.h"
#include "models/Registry.h"

#include <gtest/gtest.h>

#include <string>

using namespace limpet;
using namespace limpet::exec;

namespace {

struct PinnedCounts {
  const char *Model;
  unsigned Width; ///< 1: EngineConfig::baseline(), 8: limpetMLIR(8)
  double Flops, LoadBytes, StoreBytes;
  unsigned LutOps, MathOps;
  /// Body opcode histogram: "mnemonic=count" in opcode order.
  const char *Histogram;
};

// clang-format off
const PinnedCounts kPinned[] = {
    {"DrouhardRoberge", 1, 261, 320, 48, 17, 5,
     "load.state=5 store.state=5 load.ext=1 store.ext=1 add=12 sub=12 mul=32 div=4 cmp.lt=4 select=4 expm1=4 log=1 lut.coord=1 lut.interp=17"},
    {"DrouhardRoberge", 8, 261, 320, 48, 17, 5,
     "load.state=5 store.state=5 load.ext=1 store.ext=1 add=12 sub=12 mul=32 div=4 cmp.lt=4 select=4 expm1=4 log=1 lut.coord=1 lut.interp=17"},
    {"MitchellSchaeffer", 1, 35, 16, 16, 0, 0,
     "load.state=1 store.state=1 load.ext=1 store.ext=1 add=2 sub=3 mul=5 div=5 neg=3 cmp.lt=1 select=1"},
    {"MitchellSchaeffer", 8, 35, 16, 16, 0, 0,
     "load.state=1 store.state=1 load.ext=1 store.ext=1 add=2 sub=3 mul=5 div=5 neg=3 cmp.lt=1 select=1"},
    {"AlievPanfilov", 1, 28, 16, 16, 0, 0,
     "load.state=1 store.state=1 load.ext=1 store.ext=1 add=5 sub=4 mul=10 div=2 neg=1"},
    {"AlievPanfilov", 8, 28, 16, 16, 0, 0,
     "load.state=1 store.state=1 load.ext=1 store.ext=1 add=5 sub=4 mul=10 div=2 neg=1"},
    {"Plonsey", 1, 9, 16, 16, 0, 0,
     "load.state=1 store.state=1 load.ext=1 store.ext=1 add=2 sub=2 mul=5"},
    {"Plonsey", 8, 9, 16, 16, 0, 0,
     "load.state=1 store.state=1 load.ext=1 store.ext=1 add=2 sub=2 mul=5"},
    {"Pathmanathan", 1, 28, 32, 32, 0, 0,
     "load.state=3 store.state=3 load.ext=1 store.ext=1 add=9 sub=3 mul=15 neg=1"},
    {"Pathmanathan", 8, 28, 32, 32, 0, 0,
     "load.state=3 store.state=3 load.ext=1 store.ext=1 add=9 sub=3 mul=15 neg=1"},
    {"ISAC_Hu", 1, 494, 24, 24, 0, 12,
     "load.state=2 store.state=2 load.ext=1 store.ext=1 add=17 sub=8 mul=32 div=11 neg=4 cmp.lt=1 select=1 exp=4 expm1=1 log=1 sinh=3 abs=2 pow=3"},
    {"ISAC_Hu", 8, 494, 24, 24, 0, 12,
     "load.state=2 store.state=2 load.ext=1 store.ext=1 add=17 sub=8 mul=32 div=11 neg=4 cmp.lt=1 select=1 exp=4 expm1=1 log=1 sinh=3 abs=2 pow=3"},
    {"IKChCheng", 1, 117, 152, 24, 8, 2,
     "load.state=2 store.state=2 load.ext=1 store.ext=1 add=5 sub=6 mul=18 div=2 cmp.lt=2 select=2 expm1=2 lut.coord=1 lut.interp=8"},
    {"IKChCheng", 8, 117, 152, 24, 8, 2,
     "load.state=2 store.state=2 load.ext=1 store.ext=1 add=5 sub=6 mul=18 div=2 cmp.lt=2 select=2 expm1=2 lut.coord=1 lut.interp=8"},
    {"Stress_Lumens", 1, 212, 40, 40, 0, 5,
     "load.state=4 store.state=4 load.ext=1 store.ext=1 add=15 sub=11 mul=23 div=11 neg=4 cmp.lt=1 select=1 exp=4 expm1=1 abs=1"},
    {"Stress_Lumens", 8, 212, 40, 40, 0, 5,
     "load.state=4 store.state=4 load.ext=1 store.ext=1 add=15 sub=11 mul=23 div=11 neg=4 cmp.lt=1 select=1 exp=4 expm1=1 abs=1"},
    {"HodgkinHuxley", 1, 173, 224, 32, 12, 3,
     "load.state=3 store.state=3 load.ext=1 store.ext=1 add=8 sub=9 mul=26 div=3 cmp.lt=3 select=3 expm1=3 lut.coord=1 lut.interp=12"},
    {"HodgkinHuxley", 8, 173, 224, 32, 12, 3,
     "load.state=3 store.state=3 load.ext=1 store.ext=1 add=8 sub=9 mul=26 div=3 cmp.lt=3 select=3 expm1=3 lut.coord=1 lut.interp=12"},
    {"BeelerReuter", 1, 378, 496, 64, 27, 7,
     "load.state=7 store.state=7 load.ext=1 store.ext=1 add=18 sub=16 mul=45 div=7 cmp.lt=6 select=6 expm1=6 log=1 lut.coord=1 lut.interp=27"},
    {"BeelerReuter", 8, 378, 496, 64, 27, 7,
     "load.state=7 store.state=7 load.ext=1 store.ext=1 add=18 sub=16 mul=45 div=7 cmp.lt=6 select=6 expm1=6 log=1 lut.coord=1 lut.interp=27"},
    {"LuoRudy91", 1, 379, 496, 64, 27, 7,
     "load.state=7 store.state=7 load.ext=1 store.ext=1 add=20 sub=17 mul=47 div=6 cmp.lt=6 select=6 expm1=6 log=1 lut.coord=1 lut.interp=27"},
    {"LuoRudy91", 8, 379, 496, 64, 27, 7,
     "load.state=7 store.state=7 load.ext=1 store.ext=1 add=20 sub=17 mul=47 div=6 cmp.lt=6 select=6 expm1=6 log=1 lut.coord=1 lut.interp=27"},
    {"Noble62", 1, 178, 240, 32, 13, 3,
     "load.state=3 store.state=3 load.ext=1 store.ext=1 add=11 sub=8 mul=26 div=3 cmp.lt=3 select=3 expm1=3 lut.coord=1 lut.interp=13"},
    {"Noble62", 8, 178, 240, 32, 13, 3,
     "load.state=3 store.state=3 load.ext=1 store.ext=1 add=11 sub=8 mul=26 div=3 cmp.lt=3 select=3 expm1=3 lut.coord=1 lut.interp=13"},
    {"FentonKarma", 1, 98, 24, 24, 0, 1,
     "load.state=2 store.state=2 load.ext=1 store.ext=1 add=8 sub=9 mul=16 div=8 neg=2 cmp.lt=2 select=2 tanh=1"},
    {"FentonKarma", 8, 98, 24, 24, 0, 1,
     "load.state=2 store.state=2 load.ext=1 store.ext=1 add=8 sub=9 mul=16 div=8 neg=2 cmp.lt=2 select=2 tanh=1"},
    {"Stress_Niederer", 1, 572, 72, 72, 0, 14,
     "load.state=8 store.state=8 load.ext=1 store.ext=1 add=33 sub=28 mul=59 div=25 neg=7 cmp.lt=7 select=7 exp=9 expm1=4 log=1 abs=7"},
    {"Stress_Niederer", 8, 572, 72, 72, 0, 14,
     "load.state=8 store.state=8 load.ext=1 store.ext=1 add=33 sub=28 mul=59 div=25 neg=7 cmp.lt=7 select=7 exp=9 expm1=4 log=1 abs=7"},
    {"MacCannell", 1, 277, 304, 48, 16, 5,
     "load.state=5 store.state=5 load.ext=1 store.ext=1 add=14 sub=14 mul=39 div=6 cmp.lt=4 select=4 expm1=4 log=1 lut.coord=1 lut.interp=16"},
    {"MacCannell", 8, 277, 304, 48, 16, 5,
     "load.state=5 store.state=5 load.ext=1 store.ext=1 add=14 sub=14 mul=39 div=6 cmp.lt=4 select=4 expm1=4 log=1 lut.coord=1 lut.interp=16"},
    {"Maleckar", 1, 591, 600, 88, 32, 11,
     "load.state=10 store.state=10 load.ext=1 store.ext=1 add=32 sub=31 mul=83 div=13 cmp.lt=8 select=9 expm1=9 log=2 lut.coord=1 lut.interp=32"},
    {"Maleckar", 8, 591, 600, 88, 32, 11,
     "load.state=10 store.state=10 load.ext=1 store.ext=1 add=32 sub=31 mul=83 div=13 cmp.lt=8 select=9 expm1=9 log=2 lut.coord=1 lut.interp=32"},
    {"Nygren", 1, 610, 680, 104, 36, 11,
     "load.state=12 store.state=12 load.ext=1 store.ext=1 add=35 sub=34 mul=84 div=14 cmp.lt=9 select=10 expm1=10 log=1 lut.coord=1 lut.interp=36"},
    {"Nygren", 8, 610, 680, 104, 36, 11,
     "load.state=12 store.state=12 load.ext=1 store.ext=1 add=35 sub=34 mul=84 div=14 cmp.lt=9 select=10 expm1=10 log=1 lut.coord=1 lut.interp=36"},
    {"Ramirez", 1, 602, 624, 96, 33, 11,
     "load.state=11 store.state=11 load.ext=1 store.ext=1 add=33 sub=32 mul=81 div=15 cmp.lt=8 select=9 expm1=9 log=2 lut.coord=1 lut.interp=33"},
    {"Ramirez", 8, 602, 624, 96, 33, 11,
     "load.state=11 store.state=11 load.ext=1 store.ext=1 add=33 sub=32 mul=81 div=15 cmp.lt=8 select=9 expm1=9 log=2 lut.coord=1 lut.interp=33"},
    {"Kurata", 1, 534, 528, 80, 28, 10,
     "load.state=9 store.state=9 load.ext=1 store.ext=1 add=29 sub=28 mul=74 div=12 cmp.lt=7 select=8 expm1=8 log=2 lut.coord=1 lut.interp=28"},
    {"Kurata", 8, 534, 528, 80, 28, 10,
     "load.state=9 store.state=9 load.ext=1 store.ext=1 add=29 sub=28 mul=74 div=12 cmp.lt=7 select=8 expm1=8 log=2 lut.coord=1 lut.interp=28"},
    {"HilgemannNoble", 1, 398, 392, 72, 20, 7,
     "load.state=8 store.state=8 load.ext=1 store.ext=1 add=25 sub=24 mul=60 div=10 cmp.lt=5 select=6 expm1=6 log=1 lut.coord=1 lut.interp=20"},
    {"HilgemannNoble", 8, 398, 392, 72, 20, 7,
     "load.state=8 store.state=8 load.ext=1 store.ext=1 add=25 sub=24 mul=60 div=10 cmp.lt=5 select=6 expm1=6 log=1 lut.coord=1 lut.interp=20"},
    {"DiFrancescoNoble", 1, 455, 464, 80, 24, 8,
     "load.state=9 store.state=9 load.ext=1 store.ext=1 add=28 sub=27 mul=69 div=11 cmp.lt=6 select=7 expm1=7 log=1 lut.coord=1 lut.interp=24"},
    {"DiFrancescoNoble", 8, 455, 464, 80, 24, 8,
     "load.state=9 store.state=9 load.ext=1 store.ext=1 add=28 sub=27 mul=69 div=11 cmp.lt=6 select=7 expm1=7 log=1 lut.coord=1 lut.interp=24"},
    {"FoxMcHargGilmour", 1, 593, 600, 88, 32, 11,
     "load.state=10 store.state=10 load.ext=1 store.ext=1 add=32 sub=31 mul=85 div=13 cmp.lt=8 select=9 expm1=9 log=2 lut.coord=1 lut.interp=32"},
    {"FoxMcHargGilmour", 8, 593, 600, 88, 32, 11,
     "load.state=10 store.state=10 load.ext=1 store.ext=1 add=32 sub=31 mul=85 div=13 cmp.lt=8 select=9 expm1=9 log=2 lut.coord=1 lut.interp=32"},
    {"Campbell", 1, 404, 408, 72, 21, 7,
     "load.state=8 store.state=8 load.ext=1 store.ext=1 add=24 sub=24 mul=60 div=11 cmp.lt=5 select=6 expm1=6 log=1 lut.coord=1 lut.interp=21"},
    {"Campbell", 8, 404, 408, 72, 21, 7,
     "load.state=8 store.state=8 load.ext=1 store.ext=1 add=24 sub=24 mul=60 div=11 cmp.lt=5 select=6 expm1=6 log=1 lut.coord=1 lut.interp=21"},
    {"Sachse", 1, 428, 432, 64, 23, 7,
     "load.state=7 store.state=7 load.ext=1 store.ext=1 add=20 sub=36 mul=66 div=11 cmp.lt=6 cmp.gt=1 select=8 expm1=6 log=1 lut.coord=1 lut.interp=23"},
    {"Sachse", 8, 428, 432, 64, 23, 7,
     "load.state=7 store.state=7 load.ext=1 store.ext=1 add=20 sub=36 mul=66 div=11 cmp.lt=6 cmp.gt=1 select=8 expm1=6 log=1 lut.coord=1 lut.interp=23"},
    {"Stewart", 1, 643, 672, 96, 36, 12,
     "load.state=11 store.state=11 load.ext=1 store.ext=1 add=34 sub=33 mul=89 div=14 cmp.lt=9 select=10 expm1=10 log=2 lut.coord=1 lut.interp=36"},
    {"Stewart", 8, 643, 672, 96, 36, 12,
     "load.state=11 store.state=11 load.ext=1 store.ext=1 add=34 sub=33 mul=89 div=14 cmp.lt=9 select=10 expm1=10 log=2 lut.coord=1 lut.interp=36"},
    {"LuoRudy94", 1, 567, 608, 96, 32, 10,
     "load.state=11 store.state=11 load.ext=1 store.ext=1 add=33 sub=32 mul=87 div=13 cmp.lt=8 select=9 expm1=9 log=1 lut.coord=1 lut.interp=32"},
    {"LuoRudy94", 8, 567, 608, 96, 32, 10,
     "load.state=11 store.state=11 load.ext=1 store.ext=1 add=33 sub=32 mul=87 div=13 cmp.lt=8 select=9 expm1=9 log=1 lut.coord=1 lut.interp=32"},
    {"Demir", 1, 506, 536, 88, 28, 9,
     "load.state=10 store.state=10 load.ext=1 store.ext=1 add=30 sub=29 mul=74 div=12 cmp.lt=7 select=8 expm1=8 log=1 lut.coord=1 lut.interp=28"},
    {"Demir", 8, 506, 536, 88, 28, 9,
     "load.state=10 store.state=10 load.ext=1 store.ext=1 add=30 sub=29 mul=74 div=12 cmp.lt=7 select=8 expm1=8 log=1 lut.coord=1 lut.interp=28"},
    {"Inada", 1, 549, 552, 88, 29, 10,
     "load.state=10 store.state=10 load.ext=1 store.ext=1 add=31 sub=30 mul=74 div=14 cmp.lt=7 select=8 expm1=8 log=2 lut.coord=1 lut.interp=29"},
    {"Inada", 8, 549, 552, 88, 29, 10,
     "load.state=10 store.state=10 load.ext=1 store.ext=1 add=31 sub=30 mul=74 div=14 cmp.lt=7 select=8 expm1=8 log=2 lut.coord=1 lut.interp=29"},
    {"Courtemanche", 1, 709, 752, 112, 40, 13,
     "load.state=13 store.state=13 load.ext=1 store.ext=1 add=41 sub=39 mul=101 div=16 cmp.lt=10 select=12 expm1=12 log=1 lut.coord=1 lut.interp=40"},
    {"Courtemanche", 8, 709, 752, 112, 40, 13,
     "load.state=13 store.state=13 load.ext=1 store.ext=1 add=41 sub=39 mul=101 div=16 cmp.lt=10 select=12 expm1=12 log=1 lut.coord=1 lut.interp=40"},
    {"ARPF", 1, 621, 624, 96, 33, 11,
     "load.state=11 store.state=11 load.ext=1 store.ext=1 add=38 sub=34 mul=85 div=17 cmp.lt=8 select=9 expm1=9 log=2 lut.coord=1 lut.interp=33"},
    {"ARPF", 8, 621, 624, 96, 33, 11,
     "load.state=11 store.state=11 load.ext=1 store.ext=1 add=38 sub=34 mul=85 div=17 cmp.lt=8 select=9 expm1=9 log=2 lut.coord=1 lut.interp=33"},
    {"OHara", 1, 1180, 1184, 176, 63, 20,
     "load.state=21 store.state=21 load.ext=1 store.ext=1 add=61 sub=90 mul=166 div=32 cmp.lt=16 cmp.gt=2 select=20 expm1=16 log=4 lut.coord=1 lut.interp=63"},
    {"OHara", 8, 1180, 1184, 176, 63, 20,
     "load.state=21 store.state=21 load.ext=1 store.ext=1 add=61 sub=90 mul=166 div=32 cmp.lt=16 cmp.gt=2 select=20 expm1=16 log=4 lut.coord=1 lut.interp=63"},
    {"GrandiPanditVoigt", 1, 2232, 1456, 176, 80, 38,
     "load.state=21 store.state=21 load.ext=1 store.ext=1 add=105 sub=83 mul=211 div=29 cmp.lt=16 cmp.gt=1 select=20 expm1=18 log=4 abs=4 pow=16 lut.coord=1 lut.interp=80"},
    {"GrandiPanditVoigt", 8, 2232, 1456, 176, 80, 38,
     "load.state=21 store.state=21 load.ext=1 store.ext=1 add=105 sub=83 mul=211 div=29 cmp.lt=16 cmp.gt=1 select=20 expm1=18 log=4 abs=4 pow=16 lut.coord=1 lut.interp=80"},
    {"GrandiPasqualiniBers", 1, 1972, 1328, 160, 73, 34,
     "load.state=19 store.state=19 load.ext=1 store.ext=1 add=87 sub=72 mul=186 div=23 cmp.lt=15 cmp.gt=1 select=18 expm1=16 log=4 abs=4 pow=14 lut.coord=1 lut.interp=73"},
    {"GrandiPasqualiniBers", 8, 1972, 1328, 160, 73, 34,
     "load.state=19 store.state=19 load.ext=1 store.ext=1 add=87 sub=72 mul=186 div=23 cmp.lt=15 cmp.gt=1 select=18 expm1=16 log=4 abs=4 pow=14 lut.coord=1 lut.interp=73"},
    {"WangSobie", 1, 929, 1008, 144, 54, 15,
     "load.state=17 store.state=17 load.ext=1 store.ext=1 add=48 sub=77 mul=142 div=24 cmp.lt=14 cmp.gt=2 select=18 expm1=14 log=1 lut.coord=1 lut.interp=54"},
    {"WangSobie", 8, 929, 1008, 144, 54, 15,
     "load.state=17 store.state=17 load.ext=1 store.ext=1 add=48 sub=77 mul=142 div=24 cmp.lt=14 cmp.gt=2 select=18 expm1=14 log=1 lut.coord=1 lut.interp=54"},
    {"TenTusscherPanfilov", 1, 967, 928, 144, 49, 18,
     "load.state=17 store.state=17 load.ext=1 store.ext=1 add=55 sub=52 mul=131 div=24 cmp.lt=12 select=14 expm1=14 log=4 lut.coord=1 lut.interp=49"},
    {"TenTusscherPanfilov", 8, 967, 928, 144, 49, 18,
     "load.state=17 store.state=17 load.ext=1 store.ext=1 add=55 sub=52 mul=131 div=24 cmp.lt=12 select=14 expm1=14 log=4 lut.coord=1 lut.interp=49"},
    {"IyerMazhariWinslow", 1, 1038, 1136, 160, 61, 16,
     "load.state=19 store.state=19 load.ext=1 store.ext=1 add=51 sub=96 mul=162 div=28 cmp.lt=16 cmp.gt=3 select=21 expm1=15 log=1 lut.coord=1 lut.interp=61"},
    {"IyerMazhariWinslow", 8, 1038, 1136, 160, 61, 16,
     "load.state=19 store.state=19 load.ext=1 store.ext=1 add=51 sub=96 mul=162 div=28 cmp.lt=16 cmp.gt=3 select=21 expm1=15 log=1 lut.coord=1 lut.interp=61"},
    {"Shannon", 1, 1062, 1032, 152, 55, 19,
     "load.state=18 store.state=18 load.ext=1 store.ext=1 add=56 sub=69 mul=152 div=26 cmp.lt=14 cmp.gt=1 select=17 expm1=15 log=4 lut.coord=1 lut.interp=55"},
    {"Shannon", 8, 1062, 1032, 152, 55, 19,
     "load.state=18 store.state=18 load.ext=1 store.ext=1 add=56 sub=69 mul=152 div=26 cmp.lt=14 cmp.gt=1 select=17 expm1=15 log=4 lut.coord=1 lut.interp=55"},
    {"UCLA_RAB", 1, 1015, 984, 152, 52, 18,
     "load.state=18 store.state=18 load.ext=1 store.ext=1 add=55 sub=68 mul=138 div=27 cmp.lt=13 cmp.gt=1 select=16 expm1=14 log=4 lut.coord=1 lut.interp=52"},
    {"UCLA_RAB", 8, 1015, 984, 152, 52, 18,
     "load.state=18 store.state=18 load.ext=1 store.ext=1 add=55 sub=68 mul=138 div=27 cmp.lt=13 cmp.gt=1 select=16 expm1=14 log=4 lut.coord=1 lut.interp=52"},
    {"Mahajan", 1, 880, 952, 136, 51, 15,
     "load.state=16 store.state=16 load.ext=1 store.ext=1 add=48 sub=61 mul=134 div=21 cmp.lt=13 cmp.gt=1 select=16 expm1=14 log=1 lut.coord=1 lut.interp=51"},
    {"Mahajan", 8, 880, 952, 136, 51, 15,
     "load.state=16 store.state=16 load.ext=1 store.ext=1 add=48 sub=61 mul=134 div=21 cmp.lt=13 cmp.gt=1 select=16 expm1=14 log=1 lut.coord=1 lut.interp=51"},
    {"PanditGiles", 1, 819, 880, 128, 47, 14,
     "load.state=15 store.state=15 load.ext=1 store.ext=1 add=45 sub=59 mul=120 div=20 cmp.lt=12 cmp.gt=1 select=15 expm1=13 log=1 lut.coord=1 lut.interp=47"},
    {"PanditGiles", 8, 819, 880, 128, 47, 14,
     "load.state=15 store.state=15 load.ext=1 store.ext=1 add=45 sub=59 mul=120 div=20 cmp.lt=12 cmp.gt=1 select=15 expm1=13 log=1 lut.coord=1 lut.interp=47"},
    {"HundRudy", 1, 997, 960, 144, 51, 18,
     "load.state=17 store.state=17 load.ext=1 store.ext=1 add=53 sub=66 mul=135 div=25 cmp.lt=13 cmp.gt=1 select=16 expm1=14 log=4 lut.coord=1 lut.interp=51"},
    {"HundRudy", 8, 997, 960, 144, 51, 18,
     "load.state=17 store.state=17 load.ext=1 store.ext=1 add=53 sub=66 mul=135 div=25 cmp.lt=13 cmp.gt=1 select=16 expm1=14 log=4 lut.coord=1 lut.interp=51"},
    {"LivshitzRudy", 1, 789, 848, 128, 45, 14,
     "load.state=15 store.state=15 load.ext=1 store.ext=1 add=47 sub=45 mul=116 div=19 cmp.lt=11 select=13 expm1=13 log=1 lut.coord=1 lut.interp=45"},
    {"LivshitzRudy", 8, 789, 848, 128, 45, 14,
     "load.state=15 store.state=15 load.ext=1 store.ext=1 add=47 sub=45 mul=116 div=19 cmp.lt=11 select=13 expm1=13 log=1 lut.coord=1 lut.interp=45"},
    {"ClancyRudy", 1, 934, 992, 144, 53, 14,
     "load.state=17 store.state=17 load.ext=1 store.ext=1 add=46 sub=91 mul=152 div=26 cmp.lt=14 cmp.gt=3 select=19 expm1=13 log=1 lut.coord=1 lut.interp=53"},
    {"ClancyRudy", 8, 934, 992, 144, 53, 14,
     "load.state=17 store.state=17 load.ext=1 store.ext=1 add=46 sub=91 mul=152 div=26 cmp.lt=14 cmp.gt=3 select=19 expm1=13 log=1 lut.coord=1 lut.interp=53"},
};
// clang-format on

std::string histogram(const BcProgram &P) {
  unsigned Count[kNumBcOps] = {};
  for (const BcInstr &I : P.Body)
    ++Count[size_t(I.Op)];
  std::string H;
  for (unsigned Op = 0; Op != kNumBcOps; ++Op)
    if (Count[Op])
      H += (H.empty() ? "" : " ") + std::string(bcOpName(BcOp(Op))) + "=" +
           std::to_string(Count[Op]);
  return H;
}

TEST(StaticCounts, EveryRegistryModelMatchesPinnedValues) {
  ASSERT_EQ(std::size(kPinned), 2 * models::modelRegistry().size());
  for (const PinnedCounts &Want : kPinned) {
    const models::ModelEntry *E = models::findModel(Want.Model);
    ASSERT_NE(E, nullptr) << Want.Model;
    DiagnosticEngine Diags;
    auto Info = easyml::compileModelInfo(E->Name, E->Source, Diags);
    ASSERT_TRUE(Info.has_value()) << Diags.str();
    EngineConfig Cfg = Want.Width == 1 ? EngineConfig::baseline()
                                       : EngineConfig::limpetMLIR(Want.Width);
    std::string Error;
    auto M = CompiledModel::compile(*Info, Cfg, &Error);
    ASSERT_TRUE(M.has_value()) << Want.Model << ": " << Error;
    const BcProgram &P = M->program();
    SCOPED_TRACE(std::string(Want.Model) + " " + engineConfigName(Cfg));
    EXPECT_EQ(P.Counts.FlopsPerCell, Want.Flops);
    EXPECT_EQ(P.Counts.LoadBytesPerCell, Want.LoadBytes);
    EXPECT_EQ(P.Counts.StoreBytesPerCell, Want.StoreBytes);
    EXPECT_EQ(P.LutOpsPerCell, Want.LutOps);
    EXPECT_EQ(P.MathOpsPerCell, Want.MathOps);
    EXPECT_EQ(histogram(P), Want.Histogram);
  }
}

} // namespace
