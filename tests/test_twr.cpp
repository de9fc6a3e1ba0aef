// Unit tests: SS-TWR distance computation (Eq. 2) with drift correction.
#include <gtest/gtest.h>

#include "common/constants.hpp"
#include "common/expects.hpp"
#include "ranging/twr.hpp"

namespace uwb::ranging {
namespace {

// Build a consistent timestamp quadruple for a given true ToF and reply
// time, with optional clock drift on the responder (relative to the
// initiator's clock, in ppm).
TwrTimestamps make_timestamps(double tof_s, double reply_s,
                              double responder_ppm = 0.0) {
  TwrTimestamps ts;
  ts.t_tx_init = dw::DwTimestamp(1'000'000'000);
  // Responder counters are an arbitrary epoch apart; only differences matter.
  const dw::DwTimestamp resp_epoch(42'424'242);
  ts.t_rx_resp = resp_epoch;
  ts.t_tx_resp =
      resp_epoch.plus_seconds(Seconds(reply_s * (1.0 + responder_ppm * 1e-6)));
  ts.t_rx_init = ts.t_tx_init.plus_seconds(Seconds(2.0 * tof_s + reply_s));
  return ts;
}

TEST(TwrTest, PerfectClocksExactDistance) {
  const double tof = 5.0 / k::c_air;
  const TwrTimestamps ts = make_timestamps(tof, 290e-6);
  EXPECT_NEAR(ss_twr_distance(ts).value(), 5.0, 0.005);
  EXPECT_NEAR(ss_twr_tof(ts).value(), tof, 1e-11);
}

TEST(TwrTest, ZeroDistanceIsZero) {
  const TwrTimestamps ts = make_timestamps(0.0, 290e-6);
  EXPECT_NEAR(ss_twr_distance(ts).value(), 0.0, 0.005);
}

TEST(TwrTest, DriftWithoutCorrectionBiasesDistance) {
  // +5 ppm responder drift over a 290 us reply inflates the reply interval
  // by 1.45 ns -> ~22 cm error if uncorrected (why drift compensation is
  // mandatory for SS-TWR).
  const double tof = 3.0 / k::c_air;
  const TwrTimestamps ts = make_timestamps(tof, 290e-6, +5.0);
  const double uncorrected = ss_twr_distance(ts, 0.0).value();
  EXPECT_LT(uncorrected, 3.0 - 0.15);
  EXPECT_NEAR(3.0 - uncorrected, k::c_air * 5e-6 * 290e-6 / 2.0, 0.02);
}

TEST(TwrTest, CfoCorrectionRemovesDriftBias) {
  const double tof = 3.0 / k::c_air;
  const TwrTimestamps ts = make_timestamps(tof, 290e-6, +5.0);
  EXPECT_NEAR(ss_twr_distance(ts, +5.0).value(), 3.0, 0.01);
}

TEST(TwrTest, NegativeDriftCorrectedSymmetrically) {
  const double tof = 10.0 / k::c_air;
  const TwrTimestamps ts = make_timestamps(tof, 400e-6, -8.0);
  EXPECT_NEAR(ss_twr_distance(ts, -8.0).value(), 10.0, 0.01);
}

TEST(TwrTest, WorksAcrossCounterWrap) {
  // Reply interval straddling the 40-bit wrap must still compute correctly.
  const double tof = 4.0 / k::c_air;
  const std::uint64_t wrap = std::uint64_t{1} << 40;
  TwrTimestamps ts;
  ts.t_tx_init = dw::DwTimestamp(wrap - 1000);
  ts.t_rx_resp = dw::DwTimestamp(wrap - 500);
  ts.t_tx_resp = ts.t_rx_resp.plus_seconds(Seconds(290e-6));
  ts.t_rx_init = ts.t_tx_init.plus_seconds(Seconds(2.0 * tof + 290e-6));
  EXPECT_NEAR(ss_twr_distance(ts).value(), 4.0, 0.01);
}

TEST(TwrTest, NonPositiveIntervalsThrow) {
  TwrTimestamps ts = make_timestamps(3.0 / k::c_air, 290e-6);
  std::swap(ts.t_tx_init, ts.t_rx_init);  // negative round time
  EXPECT_THROW(ss_twr_distance(ts), PreconditionError);
}

}  // namespace
}  // namespace uwb::ranging
