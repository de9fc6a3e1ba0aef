// Unit tests: PHY configuration, frame air-times (incl. the paper's 178.5 us
// minimum response delay), and MAC frame wire sizes.
#include <gtest/gtest.h>

#include "common/expects.hpp"
#include "dw1000/frame.hpp"
#include "dw1000/phy_config.hpp"

namespace uwb::dw {
namespace {

TEST(ChannelInfoTest, KnownChannels) {
  EXPECT_NEAR(channel_info(7).centre_hz, 6489.6e6, 1.0);
  EXPECT_NEAR(channel_info(7).bandwidth_hz, 900e6, 1.0);
  EXPECT_NEAR(channel_info(2).centre_hz, 3993.6e6, 1.0);
  EXPECT_NEAR(channel_info(5).bandwidth_hz, 499.2e6, 1.0);
  EXPECT_THROW(channel_info(6), PreconditionError);
  EXPECT_THROW(channel_info(0), PreconditionError);
}

TEST(PhyConfigTest, PreambleSymbolDurations) {
  PhyConfig cfg;
  cfg.prf = Prf::Mhz64;
  EXPECT_NEAR(cfg.preamble_symbol_s(), 1017.63e-9, 0.01e-9);
  cfg.prf = Prf::Mhz16;
  EXPECT_NEAR(cfg.preamble_symbol_s(), 993.59e-9, 0.01e-9);
}

TEST(PhyConfigTest, SfdLengthByRate) {
  PhyConfig cfg;
  cfg.rate = DataRate::k110;
  EXPECT_EQ(cfg.sfd_symbols(), 64);
  cfg.rate = DataRate::k850;
  EXPECT_EQ(cfg.sfd_symbols(), 8);
  cfg.rate = DataRate::M6_8;
  EXPECT_EQ(cfg.sfd_symbols(), 8);
}

TEST(PhyConfigTest, ShrDurationPaperConfig) {
  // PSR 128 + 8 SFD symbols at 1017.63 ns ~= 138.4 us.
  PhyConfig cfg;  // defaults: PRF64, 6.8 Mbps, PSR 128
  EXPECT_NEAR(cfg.shr_duration_s(), 138.4e-6, 0.1e-6);
}

TEST(PhyConfigTest, PayloadDurationIncludesReedSolomon) {
  PhyConfig cfg;
  // 12 bytes = 96 bits -> one RS block -> +48 parity bits at 128.21 ns.
  EXPECT_NEAR(cfg.payload_duration_s(12), (96 + 48) * 128.21e-9, 1e-9);
  // 42 bytes = 336 bits -> two RS blocks.
  EXPECT_NEAR(cfg.payload_duration_s(42), (336 + 96) * 128.21e-9, 1e-9);
  EXPECT_DOUBLE_EQ(cfg.payload_duration_s(0), 0.0);
  EXPECT_THROW(cfg.payload_duration_s(-1), PreconditionError);
  EXPECT_THROW(cfg.payload_duration_s(128), PreconditionError);
}

TEST(PhyConfigTest, MinResponseDelayMatchesPaper) {
  // Paper Sect. III: DR = 6.8 Mbps, PRF = 64 MHz, PSR = 128 and the INIT
  // payload give a minimum Delta_RESP of 178.5 us.
  PhyConfig cfg;
  MacFrame init;
  init.type = FrameType::Init;
  const double d = min_response_delay_s(cfg, init.payload_bytes());
  EXPECT_NEAR(d, 178.5e-6, 1.0e-6);
}

TEST(PhyConfigTest, ChosenDelayCoversMinPlusTurnaround) {
  // The paper's 290 us = minimum + <100 us RX/TX switch + safety gap.
  PhyConfig cfg;
  MacFrame init;
  init.type = FrameType::Init;
  EXPECT_GT(290e-6, min_response_delay_s(cfg, init.payload_bytes()) + 100e-6);
}

TEST(PhyConfigTest, FrameDurationIsSumOfParts) {
  PhyConfig cfg;
  const double total = cfg.frame_duration_s(20);
  EXPECT_NEAR(total,
              cfg.shr_duration_s() + cfg.phr_duration_s() +
                  cfg.payload_duration_s(20),
              1e-12);
  EXPECT_DOUBLE_EQ(cfg.rmarker_offset_s(), cfg.shr_duration_s());
}

TEST(PhyConfigTest, DataRatesOrdering) {
  PhyConfig slow;
  slow.rate = DataRate::k110;
  PhyConfig mid;
  mid.rate = DataRate::k850;
  PhyConfig fast;
  fast.rate = DataRate::M6_8;
  EXPECT_GT(slow.payload_duration_s(20), mid.payload_duration_s(20));
  EXPECT_GT(mid.payload_duration_s(20), fast.payload_duration_s(20));
}

TEST(PhyConfigTest, CirLengthByPrf) {
  PhyConfig cfg;
  cfg.prf = Prf::Mhz64;
  EXPECT_EQ(cfg.cir_length(), 1016);
  cfg.prf = Prf::Mhz16;
  EXPECT_EQ(cfg.cir_length(), 992);
}

TEST(PhyConfigTest, ValidationCatchesBadValues) {
  PhyConfig cfg;
  cfg.preamble_symbols = 32;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg = PhyConfig{};
  cfg.channel = 9;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  cfg = PhyConfig{};
  cfg.tc_pgdelay = 0x10;
  EXPECT_THROW(cfg.validate(), PreconditionError);
  EXPECT_NO_THROW(PhyConfig{}.validate());
}

TEST(MacFrameTest, PayloadSizes) {
  MacFrame init;
  init.type = FrameType::Init;
  EXPECT_EQ(init.payload_bytes(), 12);  // drives the 178.5 us figure
  MacFrame resp;
  resp.type = FrameType::Resp;
  EXPECT_EQ(resp.payload_bytes(), 23);  // + id + two 40-bit timestamps
  MacFrame final_frame;
  final_frame.type = FrameType::Final;
  EXPECT_EQ(final_frame.payload_bytes(), 27);  // + three 40-bit timestamps
  MacFrame data;
  data.type = FrameType::Data;
  EXPECT_EQ(data.payload_bytes(), 12);  // header + type + FCS only
}

}  // namespace
}  // namespace uwb::dw
