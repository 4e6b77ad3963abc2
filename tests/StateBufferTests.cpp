//===- StateBufferTests.cpp - sim/StateBuffer unit tests ------------------===//

#include "easyml/Sema.h"
#include "models/Registry.h"
#include "sim/Scheduler.h"
#include "sim/StateBuffer.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace limpet;
using namespace limpet::codegen;
using namespace limpet::exec;
using namespace limpet::sim;

namespace {

std::optional<CompiledModel> compileByName(const char *Name,
                                           EngineConfig Cfg) {
  const models::ModelEntry *M = models::findModel(Name);
  EXPECT_NE(M, nullptr);
  DiagnosticEngine Diags;
  auto Info = easyml::compileModelInfo(M->Name, M->Source, Diags);
  EXPECT_TRUE(Info.has_value()) << Diags.str();
  return CompiledModel::compile(*Info, Cfg);
}

/// A unique, order-revealing value per (cell, sv).
double tag(int64_t Cell, unsigned Sv) {
  return double(Cell) * 100.0 + double(Sv) + 0.25;
}

void fillTagged(StateBuffer &Buf) {
  for (int64_t C = 0; C != Buf.numCells(); ++C)
    for (unsigned Sv = 0; Sv != Buf.numSv(); ++Sv)
      Buf.writeState(C, Sv, tag(C, Sv));
  for (size_t J = 0; J != Buf.numExternals(); ++J)
    for (int64_t C = 0; C != Buf.numCells(); ++C)
      Buf.writeExt(J, C, -tag(C, unsigned(J)));
}

void expectTagged(const StateBuffer &Buf, const char *What) {
  for (int64_t C = 0; C != Buf.numCells(); ++C)
    for (unsigned Sv = 0; Sv != Buf.numSv(); ++Sv)
      EXPECT_DOUBLE_EQ(Buf.readState(C, Sv), tag(C, Sv))
          << What << " cell " << C << " sv " << Sv;
}

TEST(StateBuffer, ShapesFollowModelConfig) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  StateBuffer Buf(*M, 10);
  EXPECT_EQ(Buf.layout(), StateLayout::AoSoA);
  EXPECT_EQ(Buf.blockWidth(), 4u);
  EXPECT_EQ(Buf.numCells(), 10);
  EXPECT_EQ(Buf.paddedCells(), 12); // rounded up to whole blocks
  EXPECT_EQ(Buf.stateSize(), size_t(12) * Buf.numSv());

  auto Base = compileByName("HodgkinHuxley", EngineConfig::baseline());
  StateBuffer Flat(*Base, 10);
  EXPECT_EQ(Flat.layout(), StateLayout::AoS);
  EXPECT_EQ(Flat.paddedCells(), 10);
}

TEST(StateBuffer, InitializedToModelInits) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(8));
  StateBuffer Buf(*M, 13);
  // m/h/n gate inits (see SimulatorTests), uniform across cells — and
  // across the AoSoA pad lanes, so whole-array health scans stay clean.
  EXPECT_NEAR(Buf.readState(0, 0), 0.0529, 1e-12);
  EXPECT_NEAR(Buf.readState(12, 1), 0.5961, 1e-12);
  for (int64_t C = 0; C != Buf.paddedCells(); ++C)
    for (unsigned Sv = 0; Sv != Buf.numSv(); ++Sv)
      EXPECT_TRUE(std::isfinite(
          Buf.state()[size_t(stateIndex(Buf.layout(), C, Sv, Buf.numSv(),
                                        Buf.numCells(), Buf.blockWidth()))]));
}

// Pad is zeroed in place of padding: the ctest name is gtest's byte print
// of the parameter (see WidthLayoutCase in EngineTests.cpp).
struct RepackCase {
  StateLayout Layout;
  uint8_t Pad[3] = {};
  unsigned Width;
};

class StateBufferRepack
    : public ::testing::TestWithParam<std::tuple<RepackCase, int64_t>> {};

TEST_P(StateBufferRepack, RoundTripPreservesEveryCell) {
  auto [To, Cells] = GetParam();
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  StateBuffer Buf(*M, Cells);
  fillTagged(Buf);
  double Digest = Buf.checksum();

  Buf.repack(To.Layout, To.Width);
  EXPECT_EQ(Buf.layout(), To.Layout);
  expectTagged(Buf, "after repack");
  // The digest walks (cell, sv) logically, so it must not see the layout.
  EXPECT_DOUBLE_EQ(Buf.checksum(), Digest);

  Buf.repack(StateLayout::AoS, 1);
  expectTagged(Buf, "after round trip");
  EXPECT_DOUBLE_EQ(Buf.checksum(), Digest);
}

INSTANTIATE_TEST_SUITE_P(
    LayoutsWidthsAndRaggedTails, StateBufferRepack,
    ::testing::Combine(
        ::testing::Values(
            RepackCase{.Layout = StateLayout::SoA, .Width = 1},
            RepackCase{.Layout = StateLayout::AoSoA, .Width = 2},
            RepackCase{.Layout = StateLayout::AoSoA, .Width = 4},
            RepackCase{.Layout = StateLayout::AoSoA, .Width = 8}),
        // 33 and 7 leave ragged NumCells % W tails for every width.
        ::testing::Values(int64_t(32), int64_t(33), int64_t(7))));

TEST(StateBuffer, RepackResetsAoSoAPadLanesToInits) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::baseline());
  StateBuffer Buf(*M, 5);
  fillTagged(Buf);
  Buf.repack(StateLayout::AoSoA, 4); // pads cells 5..7
  StateBuffer Fresh(*compileByName("HodgkinHuxley",
                                   EngineConfig::limpetMLIR(4)),
                    5);
  for (int64_t Pad = 5; Pad != 8; ++Pad)
    for (unsigned Sv = 0; Sv != Buf.numSv(); ++Sv) {
      size_t I = size_t(stateIndex(StateLayout::AoSoA, Pad, Sv, Buf.numSv(),
                                   5, 4));
      EXPECT_DOUBLE_EQ(Buf.state()[I], Fresh.state()[I]) << Pad;
    }
}

TEST(StateBuffer, GatherScatterRoundTrip) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  StateBuffer Buf(*M, 9);
  fillTagged(Buf);
  std::vector<double> Sv(Buf.numSv()), Ext(Buf.numExternals());
  Buf.gatherCell(6, Sv.data(), Ext.data());
  for (unsigned S = 0; S != Buf.numSv(); ++S)
    EXPECT_DOUBLE_EQ(Sv[S], tag(6, S));
  for (size_t J = 0; J != Buf.numExternals(); ++J)
    EXPECT_DOUBLE_EQ(Ext[J], -tag(6, unsigned(J)));

  for (double &V : Sv)
    V += 1000.0;
  Buf.scatterCell(6, Sv.data(), Ext.data());
  EXPECT_DOUBLE_EQ(Buf.readState(6, 2), tag(6, 2) + 1000.0);
  EXPECT_DOUBLE_EQ(Buf.readState(5, 2), tag(5, 2)); // neighbours untouched
  EXPECT_DOUBLE_EQ(Buf.readState(7, 2), tag(7, 2));
}

TEST(StateBuffer, SnapshotSaveRestore) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(2));
  StateBuffer Buf(*M, 11);
  fillTagged(Buf);
  const double *StatePtr = Buf.state();

  StateBuffer::Snapshot Snap;
  Buf.save(Snap);
  EXPECT_DOUBLE_EQ(Buf.snapshotState(Snap, 10, 1), tag(10, 1));

  Buf.writeState(10, 1, 9e9);
  Buf.writeExt(0, 3, 9e9);
  Buf.restore(Snap);
  expectTagged(Buf, "after restore");
  EXPECT_DOUBLE_EQ(Buf.readExt(0, 3), -tag(3, 0));
  // Restore happens in place: kernel stages keep their pointers.
  EXPECT_EQ(Buf.state(), StatePtr);
}

TEST(StateBuffer, ShardedFirstTouchInitMatchesSerial) {
  auto M = compileByName("Courtemanche", EngineConfig::limpetMLIR(4));
  Scheduler Sched(131, 4, 4);
  ASSERT_GT(Sched.numShards(), 1u);
  StateBuffer Sharded(*M, 131, &Sched);
  StateBuffer Serial(*M, 131);
  ASSERT_EQ(Sharded.stateSize(), Serial.stateSize());
  for (size_t I = 0; I != Serial.stateSize(); ++I)
    EXPECT_DOUBLE_EQ(Sharded.state()[I], Serial.state()[I]) << I;
  for (size_t J = 0; J != Serial.numExternals(); ++J)
    for (int64_t C = 0; C != 131; ++C)
      EXPECT_DOUBLE_EQ(Sharded.readExt(J, C), Serial.readExt(J, C));
}

TEST(StateBuffer, IndexMatchesCanonicalFormula) {
  auto M = compileByName("HodgkinHuxley", EngineConfig::limpetMLIR(4));
  StateBuffer Buf(*M, 10);
  for (int64_t C = 0; C != 10; ++C)
    for (unsigned Sv = 0; Sv != Buf.numSv(); ++Sv)
      EXPECT_EQ(Buf.index(C, Sv),
                stateIndex(StateLayout::AoSoA, C, Sv, Buf.numSv(), 10, 4));
}

} // namespace
