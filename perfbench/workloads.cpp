// The three benchmark workloads. README.md gives the reasons for each.
#include <ctime>
#include <utility>

#include "bench_util.hpp"
#include "common/hash.hpp"
#include "dsp/fft.hpp"
#include "loc/anchor_system.hpp"
#include "perfbench.hpp"
#include "runner/worker_context.hpp"
#include "sim/floorplan.hpp"

namespace perfbench {

using namespace uwb;

double thread_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

/// Seed of the warm-up rounds' inputs. Fixed rather than drawn from the
/// workload seed, so set-up does the same work on every seed.
constexpr std::uint64_t kWarmupSeed = 0x5E7A9u;
/// Warm-up rounds per set-up: the first fills every cache, the second runs
/// on warm caches.
constexpr int kWarmupRounds = 2;

void clear_thread_caches() {
  runner::WorkerContext::current().clear();  // pulse, path, bank
  dsp::clear_fft_plan_cache();
}

/// Record every AirFrame the medium schedules into `out`.
void capture_deliveries(sim::Medium& medium, std::vector<Delivery>& out) {
  medium.set_delivery_probe([&out](int rx, const sim::AirFrame& af) {
    out.push_back({af.chain, rx, af.tx_node_id, af.taps});
  });
}

// --- fig4_hallway ----------------------------------------------------------

ranging::ScenarioConfig hallway_config(std::uint64_t seed, bool /*traced*/,
                                       bool /*culling*/) {
  ranging::ScenarioConfig cfg = bench::hallway_scenario(seed);
  cfg.responders = {{0, bench::hallway_at(3.0)},
                    {1, bench::hallway_at(6.0)},
                    {2, bench::hallway_at(10.0)}};
  return cfg;
}

// --- building_n200 ---------------------------------------------------------

constexpr int kBuildingResponders = 200;

/// bench_ext_scale's session scene: one initiator at the building centre,
/// one responder per room, a steep through-building channel without
/// reflections, 64 RPM slots x 4 pulse shapes.
ranging::ScenarioConfig building_config(std::uint64_t seed, bool traced,
                                        bool culling) {
  ranging::ScenarioConfig cfg;
  std::vector<geom::Vec2> positions;
  {
    TraceSpan span(traced, "perfbench.floorplan");
    const sim::FloorPlan plan = sim::make_floor_plan(
        sim::plan_for_nodes(kBuildingResponders + 1, /*nodes_per_room=*/1.0));
    positions = sim::place_nodes(plan, kBuildingResponders + 1, seed);
    cfg.room = plan.room;
    cfg.initiator_position = plan.center();
  }
  cfg.channel.path_loss_exponent = 3.5;
  cfg.channel.max_reflection_order = 0;
  cfg.medium.culling_enabled = culling;
  cfg.medium.detection_threshold_amp = 0.05;
  for (int i = 0; i < kBuildingResponders; ++i)
    cfg.responders.push_back({i, positions[static_cast<std::size_t>(i)]});
  cfg.ranging.num_slots = 64;
  cfg.ranging.slot_spacing_s = 150e-9;
  cfg.ranging.shape_registers = {0x93, 0xB8, 0xC8, 0xE0};
  cfg.detect_max_responses = 12;
  cfg.slot_aware_selection = true;
  cfg.seed = seed;
  return cfg;
}

/// A fresh scenario per round on runner::MonteCarlo (one thread, inline),
/// the pattern behind every paper figure. Trial j of batch b uses the seed
/// derive_seed(derive_seed(seed, b), j).
class MonteCarloWorkload final : public Workload {
 public:
  using MakeConfig = ranging::ScenarioConfig (*)(std::uint64_t seed,
                                                 bool traced, bool culling);

  /// `reference_every` > 0 re-runs every that-many-th round unculled.
  MonteCarloWorkload(std::uint64_t seed, MakeConfig make, int batch,
                     std::uint64_t scored_rounds, int reference_every)
      : seed_(seed), make_(make), batch_(batch), scored_rounds_(scored_rounds),
        reference_every_(reference_every),
        responders_(make(seed, false, true).responders.size()) {}

  void set_up() override {
    clear_thread_caches();
    std::vector<Round> warm(kWarmupRounds);
    run_batch(kWarmupSeed, false, warm.data(), kWarmupRounds);
  }

  double run(bool traced, std::vector<Round>& rounds) override {
    const std::size_t first = rounds.size();
    rounds.resize(first + static_cast<std::size_t>(batch_));
    return run_batch(derive_seed(seed_, next_batch_++), traced,
                     rounds.data() + first, batch_);
  }

  ranging::ScenarioConfig replay_config(const Round& round) const override {
    return make_(round.seed, false, true);
  }

  std::size_t responders() const override { return responders_; }
  std::uint64_t scored_rounds() const override { return scored_rounds_; }

  bool uses_runner() const override { return true; }

  std::optional<ranging::RoundOutcome> unculled_rerun(
      const Round& round, std::uint64_t index) const override {
    if (reference_every_ <= 0 ||
        index % static_cast<std::uint64_t>(reference_every_) != 0)
      return std::nullopt;
    ranging::ConcurrentRangingScenario reference(
        make_(round.seed, false, /*culling=*/false));
    return reference.run_round();
  }

 private:
  double run_batch(std::uint64_t base_seed, bool traced, Round* rounds,
                   int n) const {
    runner::MonteCarlo::Config mc;
    mc.threads = 1;
    mc.base_seed = base_seed;
    const double t0 = thread_seconds();
    runner::MonteCarlo(mc).run(
        n, [&](const runner::TrialContext& ctx, runner::TrialRecorder&) {
          run_round(ctx.seed, traced,
                    rounds[static_cast<std::size_t>(ctx.trial_index)]);
        });
    return thread_seconds() - t0;
  }

  void run_round(std::uint64_t seed, bool traced, Round& r) const {
    r.seed = seed;
    r.paths_before = geom::path_cache_stats();
    const double t0 = thread_seconds();
    {
      ranging::ScenarioConfig cfg = make_(seed, traced, true);
      std::unique_ptr<ranging::ConcurrentRangingScenario> scenario;
      {
        TraceSpan span(traced, "perfbench.construct");
        scenario =
            std::make_unique<ranging::ConcurrentRangingScenario>(std::move(cfg));
      }
      if (traced) capture_deliveries(scenario->medium(), r.deliveries);
      r.out = scenario->run_round();
      r.medium = scenario->medium().stats();
    }  // the scenario's teardown is part of the round
    r.cpu_s = thread_seconds() - t0;
    r.paths_after = geom::path_cache_stats();
    r.has_result = r.out.payload_decoded;
  }

  std::uint64_t seed_;
  MakeConfig make_;
  int batch_;
  std::uint64_t scored_rounds_;
  int reference_every_;
  std::size_t responders_;
  std::uint64_t next_batch_ = 0;
};

// --- office_walk -------------------------------------------------------------

constexpr double kOfficeW = 12.0, kOfficeH = 8.0;

/// A 12 x 8 m office with four corner anchors in four RPM slots; the
/// localizer extracts up to 2 x 4 = 8 detections per round.
loc::AnchorSystemConfig office_config(std::uint64_t seed) {
  loc::AnchorSystemConfig cfg;
  cfg.scenario = bench::office_scenario(seed);
  cfg.scenario.ranging.num_slots = 4;
  cfg.scenario.ranging.slot_spacing_s = 120e-9;
  cfg.scenario.responders = {{0, {0.5, 0.5}},
                             {1, {kOfficeW - 0.5, 0.5}},
                             {2, {kOfficeW - 0.5, kOfficeH - 0.5}},
                             {3, {0.5, kOfficeH - 0.5}}};
  return cfg;
}

/// The tag's positions: independent seeded draws, uniform over the office
/// 1.5 m inside the walls (so at least 1.4 m from every anchor).
/// Independent draws keep the fix-failure rate of a run close to the
/// office's average, where a random walk would linger in bad spots.
class TagPositions {
 public:
  explicit TagPositions(std::uint64_t seed) : rng_(seed) {}

  geom::Vec2 next() {
    return {rng_.uniform(kMargin, kOfficeW - kMargin),
            rng_.uniform(kMargin, kOfficeH - kMargin)};
  }

 private:
  static constexpr double kMargin = 1.5;
  Rng rng_;
};

/// One long-lived AnchorLocalizer; one round is one locate() of a tag that
/// moves to a new position on every fix.
class OfficeWalkWorkload final : public Workload {
 public:
  explicit OfficeWalkWorkload(std::uint64_t seed)
      : seed_(seed), tags_(derive_seed(seed, 1)) {}

  void set_up() override {
    clear_thread_caches();
    localizer_ = std::make_unique<loc::AnchorLocalizer>(office_config(seed_));
    TagPositions warm(kWarmupSeed);
    for (int i = 0; i < kWarmupRounds; ++i) localizer_->locate(warm.next());
  }

  double run(bool traced, std::vector<Round>& rounds) override {
    Round& r = rounds.emplace_back();
    r.seed = seed_;
    r.tag = tags_.next();
    sim::Medium& medium = localizer_->scenario().medium();
    const sim::MediumStats before = medium.stats();
    if (traced) capture_deliveries(medium, r.deliveries);
    r.paths_before = geom::path_cache_stats();
    const double t0 = thread_seconds();
    loc::Fix fix = localizer_->locate(r.tag);
    r.cpu_s = thread_seconds() - t0;
    r.paths_after = geom::path_cache_stats();
    medium.set_delivery_probe(nullptr);
    const sim::MediumStats& after = medium.stats();
    r.medium.frames_transmitted =
        after.frames_transmitted - before.frames_transmitted;
    r.medium.frames_delivered = after.frames_delivered - before.frames_delivered;
    r.medium.receivers_culled = after.receivers_culled - before.receivers_culled;
    r.medium.channels_realized =
        after.channels_realized - before.channels_realized;
    r.medium.below_threshold = after.below_threshold - before.below_threshold;
    r.out = std::move(fix.round);
    r.solver_fix = fix.solver_fix;
    r.has_result = fix.ok;
    return r.cpu_s;
  }

  ranging::ScenarioConfig replay_config(const Round& round) const override {
    ranging::ScenarioConfig cfg = localizer_->scenario().config();
    cfg.initiator_position = round.tag;
    return cfg;
  }

  std::size_t responders() const override { return 4; }
  std::uint64_t scored_rounds() const override { return 1600; }
  bool uses_runner() const override { return false; }

  std::optional<loc::SolverOptions> solver() const override {
    return office_config(seed_).solver;
  }

 private:
  std::uint64_t seed_;
  TagPositions tags_;
  std::unique_ptr<loc::AnchorLocalizer> localizer_;
};

/// Rounds per MonteCarlo::run call: enough that per-run bookkeeping is
/// amortised as in a figure sweep, few enough that a run stops close to its
/// deadline.
constexpr int kHallwayBatch = 16;
constexpr int kBuildingBatch = 4;
/// building_n200 re-runs every 32nd round on the unculled medium.
constexpr int kBuildingReferenceEvery = 32;

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fig4_hallway",
                                                 "building_n200", "office_walk"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fig4_hallway")
    return std::make_unique<MonteCarloWorkload>(seed, hallway_config,
                                                kHallwayBatch, 2560, 0);
  if (name == "building_n200")
    return std::make_unique<MonteCarloWorkload>(
        seed, building_config, kBuildingBatch, 320, kBuildingReferenceEvery);
  if (name == "office_walk") return std::make_unique<OfficeWalkWorkload>(seed);
  return nullptr;
}

std::uint64_t outcome_digest(const ranging::RoundOutcome& out) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = hash_combine(h, out.completed ? 1 : 0);
  h = hash_combine(h, out.payload_decoded ? 1 : 0);
  h = hash_combine(h, static_cast<std::uint64_t>(
                          static_cast<std::uint32_t>(out.sync_responder_id)));
  h = hash_combine(h, double_bits(out.d_twr_m));
  h = hash_combine(h, out.estimates.size());
  for (const auto& e : out.estimates) h = hash_combine(h, double_bits(e.distance_m));
  for (const auto& r : out.responder_reports)
    h = hash_combine(h, static_cast<std::uint64_t>(r.status));
  for (const auto& c : out.cir.taps) {
    h = hash_combine(h, double_bits(c.real()));
    h = hash_combine(h, double_bits(c.imag()));
  }
  return h;
}

}  // namespace perfbench
