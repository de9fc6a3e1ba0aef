// Unit tests: DW1000 register-file encoding (TX_FCTRL/CHAN_CTRL/TC_PGDELAY/
// DX_TIME bit layouts), materials presets, and CIR persistence.
#include <gtest/gtest.h>

#include <cstdio>

#include "common/expects.hpp"
#include "dw1000/cir_io.hpp"
#include "dw1000/registers.hpp"
#include "geom/materials.hpp"

namespace uwb::dw {
namespace {

TEST(RegisterEncodingTest, TxbrBitPatterns) {
  // User Manual: TXBR at bits 14:13 — 00=110k, 01=850k, 10=6.8M.
  EXPECT_EQ(encode_txbr(DataRate::k110), 0u);
  EXPECT_EQ(encode_txbr(DataRate::k850), 0x2000u);
  EXPECT_EQ(encode_txbr(DataRate::M6_8), 0x4000u);
  EXPECT_EQ(decode_txbr(0x4000u), DataRate::M6_8);
  EXPECT_THROW((void)decode_txbr(0x6000u), PreconditionError);  // reserved 11
}

TEST(RegisterEncodingTest, TxprfBitPatterns) {
  EXPECT_EQ(encode_txprf(Prf::Mhz16), 0x10000u);
  EXPECT_EQ(encode_txprf(Prf::Mhz64), 0x20000u);
  EXPECT_EQ(decode_txprf(0x20000u), Prf::Mhz64);
  EXPECT_THROW((void)decode_txprf(0x0u), PreconditionError);
}

TEST(RegisterEncodingTest, PsrRoundTripsAllLengths) {
  for (const int len : {64, 128, 256, 512, 1024, 1536, 2048, 4096})
    EXPECT_EQ(decode_psr(encode_psr(len)), len) << len;
  EXPECT_THROW((void)encode_psr(100), PreconditionError);
}

TEST(RegisterEncodingTest, Psr128IsTheDocumentedPattern) {
  // 128 symbols: TXPSR=01, PE=01 -> bits 21:18 = 0101.
  EXPECT_EQ(encode_psr(128), 0b0101u << 18);
}

TEST(RegisterFileTest, RawReadWrite) {
  RegisterFile regs;
  EXPECT_EQ(regs.read32(RegFile::TX_FCTRL), 0u);
  regs.write32(RegFile::TX_FCTRL, 0, 0xDEADBEEF);
  EXPECT_EQ(regs.read32(RegFile::TX_FCTRL), 0xDEADBEEFu);
  // Distinct sub-addresses are distinct words.
  regs.write32(RegFile::TX_CAL, kTcPgDelaySub, 0xC8);
  EXPECT_EQ(regs.read32(RegFile::TX_CAL, 0), 0u);
  EXPECT_EQ(regs.read32(RegFile::TX_CAL, kTcPgDelaySub), 0xC8u);
}

TEST(RegisterFileTest, PhyConfigRoundTrip) {
  PhyConfig cfg;
  cfg.channel = 7;
  cfg.prf = Prf::Mhz64;
  cfg.rate = DataRate::M6_8;
  cfg.preamble_symbols = 128;
  cfg.tc_pgdelay = 0xE6;
  RegisterFile regs;
  regs.apply_phy_config(cfg);
  const PhyConfig back = regs.decode_phy_config();
  EXPECT_EQ(back.channel, cfg.channel);
  EXPECT_EQ(back.prf, cfg.prf);
  EXPECT_EQ(back.rate, cfg.rate);
  EXPECT_EQ(back.preamble_symbols, cfg.preamble_symbols);
  EXPECT_EQ(back.tc_pgdelay, cfg.tc_pgdelay);
}

TEST(RegisterFileTest, AlternateConfigRoundTrip) {
  PhyConfig cfg;
  cfg.channel = 2;
  cfg.prf = Prf::Mhz16;
  cfg.rate = DataRate::k110;
  cfg.preamble_symbols = 2048;
  cfg.tc_pgdelay = 0x93;
  RegisterFile regs;
  regs.apply_phy_config(cfg);
  const PhyConfig back = regs.decode_phy_config();
  EXPECT_EQ(back.channel, 2);
  EXPECT_EQ(back.prf, Prf::Mhz16);
  EXPECT_EQ(back.rate, DataRate::k110);
  EXPECT_EQ(back.preamble_symbols, 2048);
}

TEST(RegisterFileTest, DxTimeTruncation) {
  RegisterFile regs;
  const DwTimestamp target(0x123456789AULL);
  regs.write_dx_time(target);
  // Read-back is verbatim; the effective TX time has the low 9 bits cleared.
  EXPECT_EQ(regs.read_dx_time(), target);
  EXPECT_EQ(regs.effective_tx_time().ticks() & 0x1FF, 0u);
  EXPECT_EQ(regs.effective_tx_time(), quantize_delayed_tx(target));
}

TEST(MaterialsTest, LossOrdering) {
  using namespace geom::material;
  EXPECT_LT(metal_db, concrete_db);
  EXPECT_LT(concrete_db, plasterboard_db);
  EXPECT_LT(plasterboard_db, wood_db);
}

TEST(MaterialsTest, FurnishedOfficeHasObstacles) {
  const geom::Room room = geom::make_furnished_office();
  EXPECT_EQ(room.walls().size(), 4u);
  EXPECT_EQ(room.obstacles().size(), 2u);
  EXPECT_THROW(geom::make_furnished_office(1.0, 1.0), PreconditionError);
}

TEST(MaterialsTest, CorridorUsesRequestedMaterial) {
  const geom::Room room = geom::make_corridor(30.0, 2.4, geom::material::glass_db);
  ASSERT_EQ(room.walls().size(), 2u);
  EXPECT_DOUBLE_EQ(room.walls()[0].reflection_loss_db, geom::material::glass_db);
}

TEST(CirIoTest, SaveLoadRoundTrip) {
  CirEstimate cir;
  cir.ts_s = k::cir_ts_s;
  cir.first_path_index = 64.25;
  Rng rng(1);
  cir.taps.resize(128);
  for (auto& t : cir.taps) t = rng.complex_normal(0.3);
  const std::string path = "/tmp/uwb_cir_io_test.csv";
  ASSERT_TRUE(save_cir_csv(cir, path));
  const auto loaded = load_cir_csv(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_DOUBLE_EQ(loaded->ts_s, cir.ts_s);
  EXPECT_DOUBLE_EQ(loaded->first_path_index, 64.25);
  ASSERT_EQ(loaded->taps.size(), cir.taps.size());
  for (std::size_t i = 0; i < cir.taps.size(); ++i)
    EXPECT_LT(std::abs(loaded->taps[i] - cir.taps[i]), 1e-9);
  std::remove(path.c_str());
}

TEST(CirIoTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/uwb_cir_io_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a cir file\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(load_cir_csv(path).has_value());
  EXPECT_FALSE(load_cir_csv("/nonexistent/nowhere.csv").has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace uwb::dw
