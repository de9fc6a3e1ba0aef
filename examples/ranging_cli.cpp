// Command-line concurrent-ranging scenario runner.
//
//   ranging_cli [--responders N] [--slots S] [--shapes P] [--rounds R]
//               [--room WxH] [--seed X] [--ideal-tx] [--csv FILE]
//               [--loss P] [--retries K]
//
// Places N responders on a ring around the initiator, runs R rounds, and
// prints per-responder statistics; optionally exports per-round estimates
// as CSV for plotting. --loss enables the fault injector (preamble miss /
// CRC / late-TX / dropout at probability P) and --retries bounded retry
// with deterministic backoff, demonstrating graceful degradation.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <numbers>
#include <string>

#include "common/csv.hpp"
#include "dsp/stats.hpp"
#include "example_util.hpp"
#include "ranging/session.hpp"

namespace {

using namespace uwb;

constexpr const char* kUsage =
    "ranging_cli [--responders N] [--slots S] [--shapes P] [--rounds R]\n"
    "            [--room WxH] [--seed X] [--ideal-tx] [--csv FILE]\n"
    "            [--loss P] [--retries K]";

struct Options {
  int responders = 6;
  int slots = 4;
  int shapes = 3;
  int rounds = 50;
  double room_w = 20.0;
  double room_h = 12.0;
  std::uint64_t seed = 1;
  bool ideal_tx = false;
  std::string csv_path;
  double loss = 0.0;
  int retries = 0;
};

Options parse(int argc, char** argv) {
  Options opt;
  examples::FlagParser p(argc, argv, kUsage);
  while (p.next()) {
    if (p.is("--responders")) opt.responders = static_cast<int>(p.int_value(1, 256));
    else if (p.is("--slots")) opt.slots = static_cast<int>(p.int_value(1, 64));
    else if (p.is("--shapes")) opt.shapes = static_cast<int>(p.int_value(1, 3));
    else if (p.is("--rounds")) opt.rounds = static_cast<int>(p.int_value(1, 1000000));
    else if (p.is("--seed")) opt.seed = p.seed_value();
    else if (p.is("--ideal-tx")) opt.ideal_tx = true;
    else if (p.is("--csv")) opt.csv_path = p.value();
    else if (p.is("--loss")) opt.loss = p.double_value(0.0, 1.0);
    else if (p.is("--retries")) opt.retries = static_cast<int>(p.int_value(0, 16));
    else if (p.is("--room")) {
      const std::string v = p.value();
      const auto x = v.find('x');
      if (x == std::string::npos)
        p.fail("--room expects WxH, e.g. 20x12, got '%s'", v.c_str());
      char* end = nullptr;
      opt.room_w = std::strtod(v.c_str(), &end);
      if (end != v.c_str() + x)
        p.fail("--room width is not a number: '%s'", v.c_str());
      opt.room_h = std::strtod(v.c_str() + x + 1, &end);
      if (*end != '\0')
        p.fail("--room height is not a number: '%s'", v.c_str());
      if (opt.room_w <= 2.0 || opt.room_h <= 2.0)
        p.fail("--room sides must exceed 2 m, got %gx%g", opt.room_w, opt.room_h);
    } else {
      p.unknown();
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  ranging::ScenarioConfig cfg;
  cfg.room = geom::Room::rectangular(opt.room_w, opt.room_h, 10.0);
  cfg.initiator_position = {opt.room_w / 2.0, opt.room_h / 2.0};
  cfg.seed = opt.seed;
  cfg.delayed_tx_truncation = !opt.ideal_tx;
  cfg.ranging.num_slots = opt.slots;
  if (opt.slots > 1) cfg.ranging.slot_spacing_s = 150e-9;
  // Extract generously and collapse per identity (slot-aware extension).
  cfg.detect_max_responses = 2 * opt.responders;
  cfg.slot_aware_selection = true;
  const std::vector<std::uint8_t> all_shapes{0x93, 0xC8, 0xE6};
  cfg.ranging.shape_registers.assign(all_shapes.begin(),
                                     all_shapes.begin() + opt.shapes);
  if (opt.loss > 0.0) {
    cfg.fault.preamble_miss_prob = opt.loss;
    cfg.fault.crc_error_prob = opt.loss / 4.0;
    cfg.fault.late_tx_abort_prob = opt.loss / 4.0;
    cfg.fault.dropout_prob = opt.loss / 8.0;
  }
  cfg.resilience.max_retries = opt.retries;

  // Ring placement, radius bounded by the room.
  const double radius =
      0.35 * std::min(opt.room_w, opt.room_h);
  for (int i = 0; i < opt.responders; ++i) {
    const double ang =
        2.0 * std::numbers::pi * i / opt.responders + 0.3;
    cfg.responders.push_back(
        {i, {cfg.initiator_position.x + radius * (1.0 + 0.5 * (i % 3) / 2.0) *
                                            std::cos(ang) * 0.8,
             cfg.initiator_position.y + radius * std::sin(ang) * 0.8}});
  }

  // The Status path reports bad configurations (e.g. more responders than
  // the slot/shape plan can address) as a clear message, not an abort.
  auto created = ranging::ConcurrentRangingScenario::create(std::move(cfg));
  if (!created.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 created.status().message().c_str());
    return 2;
  }
  ranging::ConcurrentRangingScenario& scenario = *created.value();

  std::unique_ptr<CsvWriter> csv;
  if (!opt.csv_path.empty()) {
    csv = std::make_unique<CsvWriter>(opt.csv_path);
    if (!csv->ok()) {
      std::fprintf(stderr, "cannot write %s\n", opt.csv_path.c_str());
      return 1;
    }
    csv->header({"round", "responder_id", "estimated_m", "true_m"});
  }

  std::map<int, RVec> errors;
  std::map<int, int> status_ok;
  int decoded_rounds = 0;
  for (int r = 0; r < opt.rounds; ++r) {
    const auto out = scenario.run_round();
    for (const auto& rep : out.responder_reports)
      if (rep.status == ranging::RangingStatus::kOk) ++status_ok[rep.id];
    if (!out.payload_decoded) continue;
    ++decoded_rounds;
    for (const auto& est : out.estimates) {
      if (est.responder_id < 0 || est.responder_id >= opt.responders) continue;
      const double truth = scenario.true_distance(est.responder_id).value();
      if (std::abs(est.distance_m - truth) < 2.0)
        errors[est.responder_id].push_back(est.distance_m - truth);
      if (csv)
        csv->row({static_cast<double>(r), static_cast<double>(est.responder_id),
                  est.distance_m, truth});
    }
  }

  std::printf("rounds decoded: %d / %d\n\n", decoded_rounds, opt.rounds);
  std::printf("%-6s %-12s %-10s %-12s %s\n", "ID", "true [m]", "seen",
              "bias [m]", "sigma [m]");
  for (int i = 0; i < opt.responders; ++i) {
    const double truth = scenario.true_distance(i).value();
    const auto it = errors.find(i);
    if (it == errors.end() || it->second.empty()) {
      std::printf("%-6d %-12.2f 0\n", i, truth);
      continue;
    }
    std::printf("%-6d %-12.2f %-10zu %-12.3f %.3f\n", i, truth,
                it->second.size(), dsp::mean(it->second),
                dsp::stddev(it->second));
  }

  const auto& stats = scenario.stats();
  if (scenario.fault_injector() != nullptr) {
    const auto& fc = scenario.fault_injector()->counters();
    std::printf("\nresilience: %llu retries, %llu degraded rounds, "
                "%llu failed rounds\n",
                static_cast<unsigned long long>(stats.retry_attempts),
                static_cast<unsigned long long>(stats.degraded_rounds),
                static_cast<unsigned long long>(stats.failed_rounds));
    std::printf("injected faults: %llu preamble, %llu crc, %llu late-tx, "
                "%llu dropout rounds\n",
                static_cast<unsigned long long>(fc.preamble_miss),
                static_cast<unsigned long long>(fc.crc_error),
                static_cast<unsigned long long>(fc.late_tx_abort),
                static_cast<unsigned long long>(fc.dropout_rounds));
    std::printf("per-responder ok rate:");
    for (int i = 0; i < opt.responders; ++i)
      std::printf(" %d:%d/%d", i, status_ok[i], opt.rounds);
    std::printf("\n");
  }

  if (csv)
    std::printf("\nwrote %zu rows to %s\n", csv->rows_written(),
                opt.csv_path.c_str());
  return 0;
}
