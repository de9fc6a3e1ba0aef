// Extension — building-scale concurrent ranging on the spatially-sharded
// medium (DESIGN.md Sect. 13; paper Sect. VIII argues concurrent ranging
// scales to hundreds of responders — this bench runs them).
//
// Two sweeps, both on generated multi-room floor plans with a steep
// through-building channel (exponent 3.5), where the derived interference
// radius is far smaller than the building:
//
// 1. Session sweep (headline): N concurrent responders run full
//    concurrent-ranging rounds on the Monte-Carlo engine. The culled
//    (sharded) runs are timed — mc_nN_sessions_per_sec and the headline
//    mc_sessions_per_sec — and every trial is re-run on the unculled O(N^2)
//    reference medium at the same seed: the round-outcome digests must
//    match bit for bit (nN_identity_ok; a mismatch fails the run).
//
// 2. Raw medium sweep: every node broadcasts one frame through the medium
//    (no protocol on top), isolating the transmit fan-out. Measures
//    frames/sec at node counts beyond session scale, the delivered-frame
//    digest identity against the reference where affordable, and the
//    scaling exponent d ln(wall) / d ln(N) (1 = linear fan-out, 2 =
//    all-pairs quadratic). Each N is timed as the fastest of three passes;
//    its counters and digest come from the first.
//
// Both scaling exponents are least-squares slopes of ln(time) on ln(N)
// over every N of their sweep.
//
// Extra flags on top of the standard bench set:
//   --sessions N      single session responder count instead of the sweep
//   --medium-nodes N  single raw-sweep node count instead of the sweep
//   --rounds R        rounds per representative per-cell scenario (default 3)
// Every flag is validated: an unknown flag, a missing value or one out of
// range prints the usage and exits 2.
//
// Wall-clock metrics (mc_sessions_per_sec, mc_*_frames_per_sec,
// mc_*_round_ms, the mc_ scaling exponents) vary run to run and carry the
// mc_ prefix that check_bench_regression.py --determinism skips; every
// other metric — identity flags, delivery/cull counters, digests — is
// deterministic at any --threads value.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "sim/floorplan.hpp"

namespace {

using namespace uwb;

/// Through-building propagation: steeper decay than the single-room
/// default, no image-source solve (hundreds of partition segments), diffuse
/// tail on. Matches test_spatial's scale channel.
channel::ChannelModelParams scale_channel() {
  channel::ChannelModelParams ch;
  ch.path_loss_exponent = 3.5;
  ch.max_reflection_order = 0;
  return ch;
}

/// One initiator at the building centre, N responders spread one-per-room.
ranging::ScenarioConfig building_scenario(std::uint64_t seed, int responders,
                                          bool culling) {
  const sim::FloorPlan plan =
      sim::make_floor_plan(sim::plan_for_nodes(responders + 1,
                                               /*nodes_per_room=*/1.0));
  const auto positions = sim::place_nodes(plan, responders + 1, seed);
  ranging::ScenarioConfig cfg;
  cfg.room = plan.room;
  cfg.channel = scale_channel();
  cfg.medium.culling_enabled = culling;
  // Short-range radio: detectable links span a few rooms, the derived
  // interference radius (~16 m) a few more — the building spans many.
  cfg.medium.detection_threshold_amp = 0.05;
  cfg.initiator_position = plan.center();
  for (int i = 0; i < responders; ++i)
    cfg.responders.push_back({i, positions[static_cast<std::size_t>(i)]});
  cfg.ranging.num_slots = 64;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xB8, 0xC8, 0xE0};  // 256 id capacity
  cfg.detect_max_responses = 12;
  cfg.slot_aware_selection = true;
  cfg.seed = seed;
  return cfg;
}

/// Everything observable about a round, folded to one word (same fields as
/// test_spatial's outcome digest).
std::uint64_t outcome_digest(const ranging::RoundOutcome& out) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = hash_combine(h, out.completed ? 1 : 0);
  h = hash_combine(h, out.payload_decoded ? 1 : 0);
  h = hash_combine(h, static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(out.sync_responder_id)));
  h = hash_combine(h, double_bits(out.d_twr_m));
  h = hash_combine(h, out.estimates.size());
  for (const auto& e : out.estimates)
    h = hash_combine(h, double_bits(e.distance_m));
  for (const auto& r : out.responder_reports)
    h = hash_combine(h, static_cast<std::uint64_t>(r.status));
  for (const auto& c : out.cir.taps) {
    h = hash_combine(h, double_bits(c.real()));
    h = hash_combine(h, double_bits(c.imag()));
  }
  return h;
}

/// Raw medium traffic: every node broadcasts once, 200 us apart.
struct TrafficResult {
  std::uint64_t digest = 0xcbf29ce484222325ull;
  double wall_ms = 0.0;
  sim::MediumStats stats;
};

TrafficResult run_traffic(bool culling, int node_count, std::uint64_t seed) {
  const sim::FloorPlan plan =
      sim::make_floor_plan(sim::plan_for_nodes(node_count));
  const auto positions = sim::place_nodes(plan, node_count, seed);

  sim::Simulator sim;
  sim.reserve_events(static_cast<std::size_t>(node_count));
  sim::MediumParams mp;
  mp.culling_enabled = culling;
  mp.detection_threshold_amp = 0.1;
  sim::Medium medium(sim, channel::ChannelModel(plan.room, scale_channel()),
                     mp, Rng(seed));
  TrafficResult result;
  medium.set_delivery_probe([&](int rx_id, const sim::AirFrame& af) {
    std::uint64_t& h = result.digest;
    h = hash_combine(h, static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(rx_id)));
    h = hash_combine(h, static_cast<std::uint64_t>(
                            static_cast<std::uint32_t>(af.tx_node_id)));
    h = hash_combine(
        h, static_cast<std::uint64_t>(af.preamble_start_arrival.ps()));
    h = hash_combine(h, static_cast<std::uint64_t>(af.rmarker_arrival.ps()));
    h = hash_combine(h, double_bits(af.first_path_amplitude));
    h = hash_combine(h, double_bits(af.first_detectable_delay.value()));
    h = hash_combine(h, af.preamble_missed ? 1 : 0);
    for (const channel::Tap& t : af.taps) {
      h = hash_combine(h, double_bits(t.delay_s));
      h = hash_combine(h, double_bits(t.amplitude.real()));
      h = hash_combine(h, double_bits(t.amplitude.imag()));
    }
  });

  std::vector<std::unique_ptr<sim::Node>> nodes;
  for (int i = 0; i < node_count; ++i) {
    sim::NodeConfig nc;
    nc.id = i;
    nc.position = positions[static_cast<std::size_t>(i)];
    nodes.push_back(std::make_unique<sim::Node>(sim, medium, nc,
                                                Rng(sim::node_seed(seed, i))));
  }

  dw::MacFrame f;
  f.type = dw::FrameType::Init;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < node_count; ++i) {
    sim.after(SimTime::from_micros(200.0 * i + 5.0),
              [&, i] { nodes[static_cast<std::size_t>(i)]->transmit_now(f); });
    sim.run();
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  result.stats = medium.stats();
  return result;
}

/// Least-squares slope of ln(time) on ln(N) over every point of a sweep:
/// 1 = linear, 2 = quadratic.
double scaling_exponent(const std::vector<int>& counts,
                        const std::vector<double>& times) {
  const auto n = static_cast<double>(counts.size());
  double mean_x = 0.0;
  double mean_y = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    mean_x += std::log(static_cast<double>(counts[i])) / n;
    mean_y += std::log(times[i]) / n;
  }
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double dx = std::log(static_cast<double>(counts[i])) - mean_x;
    sxy += dx * (std::log(times[i]) - mean_y);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

/// Raw-sweep timing passes per N; the fastest one is reported.
constexpr int kTimingPasses = 3;

bool same_samples(const runner::TrialResult& a, const runner::TrialResult& b,
                  const std::string& name) {
  const RVec& xs = a.samples(name);
  const RVec& ys = b.samples(name);
  if (xs.size() != ys.size()) return false;
  for (std::size_t i = 0; i < xs.size(); ++i)
    if (xs[i] != ys[i]) return false;
  return true;
}

constexpr const char* kExtraUsage =
    "\n       [--sessions 1..10000] [--medium-nodes 2..100000] "
    "[--rounds 1..10000]";

}  // namespace

int main(int argc, char** argv) {
  using namespace uwb;
  bench::BenchOptions opts;
  opts.trials = 8;
  std::vector<int> session_counts = {10, 50, 200};
  std::vector<int> medium_counts = {50, 200, 500};
  int rounds = 3;
  examples::FlagParser p(argc, argv,
                         std::string("bench_ext_scale ") +
                             bench::kStandardUsage + kExtraUsage);
  while (p.next()) {
    if (bench::parse_standard_flag(p, opts)) continue;
    if (p.is("--sessions")) {
      session_counts = {static_cast<int>(p.int_value(1, 10000))};
    } else if (p.is("--medium-nodes")) {
      medium_counts = {static_cast<int>(p.int_value(2, 100000))};
    } else if (p.is("--rounds")) {
      rounds = static_cast<int>(p.int_value(1, 10000));
    } else {
      p.unknown();
    }
  }

  bench::JsonReport report("ext_scale", opts.trials);
  bench::heading("Extension — building-scale ranging on the sharded medium");

  // -------------------------------------------------------------------
  // 1. Session sweep: timed culled runs, each verified bit-for-bit
  //    against the unculled reference at the same seeds.
  bench::subheading("concurrent-ranging sessions vs responder count");
  std::printf("(%d rounds per count; culled timed, reference for identity)\n",
              opts.trials);
  std::printf("%-8s %-10s %-16s %-12s %-12s %-10s %s\n", "N", "rooms",
              "sessions/sec", "round [ms]", "realized", "culled",
              "identity");

  bool identity_ok = true;
  double headline_sessions_per_sec = 0.0;
  std::vector<double> session_round_ms;
  for (const int n : session_counts) {
    const std::string cell = "n" + std::to_string(n);
    const std::uint64_t base_seed = 8200 + static_cast<std::uint64_t>(n);
    const auto record = [&cell](
                            const ranging::ConcurrentRangingScenario& scenario,
                            const ranging::RoundOutcome& out,
                            runner::TrialRecorder& rec) {
      // >> 11 keeps the digest inside a double's 53 exact integer bits.
      rec.sample(cell + "_digest",
                 static_cast<double>(outcome_digest(out) >> 11));
      const auto& stats = scenario.medium().stats();
      rec.count(cell + "_delivered",
                static_cast<std::int64_t>(stats.frames_delivered));
      rec.count(cell + "_realized",
                static_cast<std::int64_t>(stats.channels_realized));
      rec.count(cell + "_culled",
                static_cast<std::int64_t>(stats.receivers_culled));
      for (const auto& rep : out.responder_reports)
        if (rep.status == ranging::RangingStatus::kOk)
          rec.count(cell + "_status_ok");
    };
    const auto culled = bench::run_rounds(
        opts, base_seed, opts.trials,
        [&](std::uint64_t seed) { return building_scenario(seed, n, true); },
        record);
    const auto reference = bench::run_rounds(
        opts, base_seed, opts.trials,
        [&](std::uint64_t seed) { return building_scenario(seed, n, false); },
        record);

    const bool ok = same_samples(culled, reference, cell + "_digest");
    identity_ok = identity_ok && ok;
    const double round_ms = culled.wall_ms() / opts.trials;
    const double per_sec =
        culled.wall_ms() > 0.0 ? 1000.0 * opts.trials / culled.wall_ms() : 0.0;
    session_round_ms.push_back(round_ms);
    headline_sessions_per_sec = per_sec;  // largest N wins (ascending sweep)

    const int room_count = sim::plan_for_nodes(n + 1, 1.0).rooms_x *
                           sim::plan_for_nodes(n + 1, 1.0).rooms_y;
    std::printf("%-8d %-10d %-16.1f %-12.2f %-12lld %-10lld %s\n", n,
                room_count, per_sec, round_ms,
                static_cast<long long>(culled.counter(cell + "_realized")),
                static_cast<long long>(culled.counter(cell + "_culled")),
                ok ? "ok" : "MISMATCH");

    report.metric("mc_" + cell + "_sessions_per_sec", per_sec);
    report.metric("mc_" + cell + "_round_ms", round_ms);
    report.metric(cell + "_identity_ok", ok ? 1.0 : 0.0);
    report.metric(cell + "_status_ok",
                  static_cast<double>(culled.counter(cell + "_status_ok")));
    report.metric(cell + "_frames_delivered",
                  static_cast<double>(culled.counter(cell + "_delivered")));
    report.metric(cell + "_channels_realized",
                  static_cast<double>(culled.counter(cell + "_realized")));
    report.metric(cell + "_receivers_culled",
                  static_cast<double>(culled.counter(cell + "_culled")));
    report.metric(
        cell + "_channels_realized_reference",
        static_cast<double>(reference.counter(cell + "_realized")));
  }
  report.metric("mc_sessions_per_sec", headline_sessions_per_sec);
  if (session_counts.size() >= 2) {
    // The culled medium keeps per-round work at O(k).
    const double expo = scaling_exponent(session_counts, session_round_ms);
    report.metric("mc_session_scaling_exponent", expo);
    std::printf("session scaling exponent (round time vs N): %.2f "
                "(1 = linear, 2 = quadratic)\n", expo);
  }

  // -------------------------------------------------------------------
  // Representative per-cell traffic of the largest session scenario.
  {
    const int n = session_counts.back();
    ranging::ConcurrentRangingScenario scenario(
        building_scenario(4242, n, true));
    for (int r = 0; r < rounds; ++r) scenario.run_round();
    auto& medium = scenario.medium();
    bench::subheading("per-cell traffic (N = " + std::to_string(n) +
                      ", seed 4242, " + std::to_string(rounds) + " rounds)");
    std::printf("interference radius: %.1f m, grid cells occupied: %zu\n",
                medium.interference_radius_m(), medium.cell_traffic().size());
    std::printf("%-12s %-12s %s\n", "cell", "delivered", "culled");
    std::uint64_t delivered_total = 0;
    std::uint64_t culled_total = 0;
    int shown = 0;
    for (const sim::CellTraffic& c : medium.cell_traffic()) {
      delivered_total += c.delivered;
      culled_total += c.culled;
      if (shown++ < 10)
        std::printf("(%3d,%3d)    %-12llu %llu\n",
                    geom::UniformGrid::cell_ix(c.key),
                    geom::UniformGrid::cell_iy(c.key),
                    static_cast<unsigned long long>(c.delivered),
                    static_cast<unsigned long long>(c.culled));
    }
    if (shown > 10) std::printf("... (%d more cells)\n", shown - 10);
    std::printf("totals: delivered %llu, culled %llu\n",
                static_cast<unsigned long long>(delivered_total),
                static_cast<unsigned long long>(culled_total));
    report.metric("cells_occupied",
                  static_cast<double>(medium.cell_traffic().size()));
    report.metric("cell_delivered_total",
                  static_cast<double>(delivered_total));
    report.metric("cell_culled_total", static_cast<double>(culled_total));
    report.metric("interference_radius_m", medium.interference_radius_m());
  }

  // -------------------------------------------------------------------
  // 2. Raw medium sweep: fan-out throughput beyond session scale.
  bench::subheading("raw frame fan-out vs node count");
  std::printf("%-8s %-14s %-14s %-12s %-10s %s\n", "N", "frames/sec",
              "ref frames/sec", "realized", "culled", "identity");
  std::vector<double> medium_wall_ms;
  for (const int n : medium_counts) {
    const std::string cell = "m" + std::to_string(n);
    const std::uint64_t seed = 9100 + static_cast<std::uint64_t>(n);
    TrafficResult culled = run_traffic(true, n, seed);
    for (int pass = 1; pass < kTimingPasses; ++pass)
      culled.wall_ms =
          std::min(culled.wall_ms, run_traffic(true, n, seed).wall_ms);
    medium_wall_ms.push_back(culled.wall_ms);
    const double fps =
        culled.wall_ms > 0.0 ? 1000.0 * n / culled.wall_ms : 0.0;
    report.metric("mc_" + cell + "_frames_per_sec", fps);
    report.metric(cell + "_channels_realized",
                  static_cast<double>(culled.stats.channels_realized));
    report.metric(cell + "_receivers_culled",
                  static_cast<double>(culled.stats.receivers_culled));

    // The quadratic reference is only affordable at moderate N; beyond
    // that the unit tests carry the identity contract.
    std::string identity = "skipped";
    double ref_fps = 0.0;
    if (n <= 200) {
      const TrafficResult full = run_traffic(false, n, seed);
      ref_fps = full.wall_ms > 0.0 ? 1000.0 * n / full.wall_ms : 0.0;
      const bool ok = culled.digest == full.digest &&
                      culled.stats.frames_delivered ==
                          full.stats.frames_delivered;
      identity = ok ? "ok" : "MISMATCH";
      identity_ok = identity_ok && ok;
      report.metric(cell + "_identity_ok", ok ? 1.0 : 0.0);
      report.metric("mc_" + cell + "_ref_frames_per_sec", ref_fps);
    }
    std::printf("%-8d %-14.1f %-14.1f %-12llu %-10llu %s\n", n, fps, ref_fps,
                static_cast<unsigned long long>(culled.stats.channels_realized),
                static_cast<unsigned long long>(culled.stats.receivers_culled),
                identity.c_str());
  }
  if (medium_counts.size() >= 2) {
    const double expo = scaling_exponent(medium_counts, medium_wall_ms);
    report.metric("mc_medium_scaling_exponent", expo);
    std::printf("medium scaling exponent (wall vs N): %.2f "
                "(1 = linear, 2 = quadratic)\n", expo);
  }

  std::printf(
      "\ncheck: identity columns all 'ok' — the sharded medium skips\n"
      "out-of-range receivers without perturbing a single delivered frame —\n"
      "and both scaling exponents stay well below 2.\n");
  if (!identity_ok)
    std::fprintf(stderr, "FAIL: culled run diverged from reference\n");
  const bool wrote = report.write_if_requested(opts);
  return (identity_ok && wrote) ? 0 : 1;
}
