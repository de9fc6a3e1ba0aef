// Reproduces paper Fig. 3 / Sect. III: the SS-TWR vs concurrent-ranging
// message budget, the PHY frame-duration breakdown, and the response-delay
// budget (178.5 us minimum, 290 us chosen).
#include <cstdio>

#include "bench_util.hpp"
#include "dw1000/frame.hpp"
#include "dw1000/phy_config.hpp"
#include "ranging/capacity.hpp"

int main(int argc, char** argv) {
  using namespace uwb;
  const auto opts = bench::parse_options(argc, argv, 1);
  bench::JsonReport report("fig3_timing", opts.trials);
  bench::heading("Fig. 3 / Sect. III — frame timing and message counts");

  dw::PhyConfig phy;  // DR 6.8 Mbps, PRF 64 MHz, PSR 128 (paper config)
  dw::MacFrame init;
  init.type = dw::FrameType::Init;
  dw::MacFrame resp;
  resp.type = dw::FrameType::Resp;

  bench::subheading("UWB PHY frame structure durations (DR=6.8M, PRF=64, PSR=128)");
  std::printf("preamble          : %8.2f us (%d symbols)\n",
              phy.preamble_symbols * phy.preamble_symbol_s() * 1e6,
              phy.preamble_symbols);
  std::printf("SFD               : %8.2f us (%d symbols)\n",
              phy.sfd_symbols() * phy.preamble_symbol_s() * 1e6,
              phy.sfd_symbols());
  std::printf("PHR               : %8.2f us\n", phy.phr_duration_s() * 1e6);
  std::printf("INIT payload (%2dB): %8.2f us\n", init.payload_bytes(),
              phy.payload_duration_s(init.payload_bytes()) * 1e6);
  std::printf("RESP payload (%2dB): %8.2f us\n", resp.payload_bytes(),
              phy.payload_duration_s(resp.payload_bytes()) * 1e6);
  std::printf("INIT frame total  : %8.2f us\n",
              phy.frame_duration_s(init.payload_bytes()) * 1e6);
  std::printf("RESP frame total  : %8.2f us\n",
              phy.frame_duration_s(resp.payload_bytes()) * 1e6);

  bench::subheading("response delay budget");
  const double min_delay = dw::min_response_delay_s(phy, init.payload_bytes());
  std::printf("minimum Delta_RESP (PHR+payload of INIT + preamble+SFD of RESP)\n");
  std::printf("  computed : %.1f us   (paper: 178.5 us)\n", min_delay * 1e6);
  std::printf("  + RX/TX turnaround < 100 us, + safety gap\n");
  std::printf("  chosen   : 290.0 us  (paper Sect. III)\n");

  bench::subheading("messages to range between all N nodes (paper: N(N-1) vs N)");
  std::printf("%-6s %-16s %-16s %s\n", "N", "SS-TWR msgs", "concurrent msgs",
              "reduction");
  for (int n : {2, 3, 5, 10, 20, 30, 40, 50}) {
    const auto twr = ranging::twr_message_count(n);
    const auto conc = ranging::concurrent_message_count(n);
    std::printf("%-6d %-16lld %-16lld %.1fx\n", n,
                static_cast<long long>(twr), static_cast<long long>(conc),
                static_cast<double>(twr) / static_cast<double>(conc));
  }

  bench::subheading("initiator radio operations for one round (N-1 neighbours)");
  std::printf("%-6s %-14s %-14s %-18s %s\n", "N-1", "TWR ops", "conc. ops",
              "TWR init [mJ]", "conc. init [mJ]");
  for (int n : {1, 2, 4, 9, 19, 49}) {
    const auto twr = ranging::twr_round_cost(n, phy, 290e-6);
    const auto conc = ranging::concurrent_round_cost(n, phy, 290e-6);
    std::printf("%-6d %-14d %-14d %-18.3f %.3f\n", n, twr.initiator_messages,
                conc.initiator_messages, twr.initiator_j * 1e3,
                conc.initiator_j * 1e3);
  }
  report.metric("min_response_delay_us", min_delay * 1e6);
  report.metric("init_frame_us",
                phy.frame_duration_s(init.payload_bytes()) * 1e6);
  report.metric("resp_frame_us",
                phy.frame_duration_s(resp.payload_bytes()) * 1e6);
  report.metric("twr_msgs_n50",
                static_cast<double>(ranging::twr_message_count(50)));
  report.metric("concurrent_msgs_n50",
                static_cast<double>(ranging::concurrent_message_count(50)));
  std::printf(
      "\npaper check: the initiator sends/receives exactly one frame pair in\n"
      "the concurrent scheme regardless of N, and the minimum response delay\n"
      "reproduces the 178.5 us figure.\n");
  return report.write_if_requested(opts) ? 0 : 1;
}
