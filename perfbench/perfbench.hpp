// Shared types of the repository benchmark (see README.md in this
// directory): the workloads, the record of one timed round, and the traced
// per-layer replay.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "channel/channel_model.hpp"
#include "geom/image_source.hpp"
#include "loc/multilateration.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"
#include "ranging/session.hpp"

namespace perfbench {

/// The clock of every timed interval (rounds, batches, set-ups): CPU time
/// of the calling thread [s]. The workloads are single-threaded and never
/// wait, so it differs from wall time only by the time the hypervisor or
/// the scheduler gave the core to someone else, which on a shared host
/// comes in bursts of up to 10% of a run.
double thread_seconds();

/// An obs::Span that exists only in traced runs, so untraced runs carry no
/// benchmark instrumentation. `name` must be a string literal.
class TraceSpan {
 public:
  TraceSpan(bool traced, const char* name) {
    if (traced) span_.emplace(name);
  }

 private:
  std::optional<uwb::obs::Span> span_;
};

/// One AirFrame as Medium::set_delivery_probe saw it.
struct Delivery {
  std::uint64_t chain = 0;
  int rx = 0;
  int tx = 0;
  std::vector<uwb::channel::Tap> taps;
};

/// Everything recorded about one timed round.
struct Round {
  /// Seed of the round's scenario (also its flight-recorder session id).
  std::uint64_t seed = 0;
  /// Thread CPU time of the round [s] (thread_seconds()).
  double cpu_s = 0.0;
  uwb::ranging::RoundOutcome out;
  /// Radio traffic of this round alone.
  uwb::sim::MediumStats medium;
  /// The calling thread's path cache just before and after the round.
  uwb::geom::PathCacheStats paths_before, paths_after;
  /// A ranging result exists: the sync payload decoded (office_walk: the
  /// localizer produced a fix).
  bool has_result = false;
  /// office_walk: the tag position of this fix and the solver's answer.
  uwb::geom::Vec2 tag;
  uwb::loc::PositionFix solver_fix;
  /// Traced rounds: every AirFrame the medium scheduled.
  std::vector<Delivery> deliveries;
};

/// A named closed-loop workload: one client, one thread, the next round
/// starts when the previous one returns.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Drop every cache of the calling thread, then do what the workload pays
  /// once before its first timed round: construction plus warm-up rounds
  /// that fill the pulse, template-bank, FFT-plan and path caches.
  virtual void set_up() = 0;

  /// Run the next rounds (a batch for the Monte-Carlo workloads, one fix
  /// for office_walk), appending one Round each. `traced` installs the
  /// delivery probe and the benchmark's in-round spans. Returns the thread
  /// CPU time of the whole call [s], runner included.
  virtual double run(bool traced, std::vector<Round>& rounds) = 0;

  /// The configuration a round's scenario ran with, rebuilt for replay.
  virtual uwb::ranging::ScenarioConfig replay_config(const Round& round) const = 0;

  /// Responders configured in every round (ids 0 .. n-1).
  virtual std::size_t responders() const = 0;

  /// Rounds whose accuracy, work counts and outcome digest an untraced run
  /// reports: a fixed prefix, so those figures repeat exactly at one seed
  /// however many rounds fit into the run. A multiple of 8 x the batch, so
  /// the repeated set-ups fall between batches.
  virtual std::uint64_t scored_rounds() const = 0;

  /// True when rounds go through runner::MonteCarlo.
  virtual bool uses_runner() const = 0;

  /// The localizer's solver options when rounds end in a position fix.
  virtual std::optional<uwb::loc::SolverOptions> solver() const {
    return std::nullopt;
  }

  /// The round `index` (0-based, in run order) re-run on the unculled
  /// reference medium, for the rounds this workload samples for the
  /// culling-identity check; nullopt for every other round.
  virtual std::optional<uwb::ranging::RoundOutcome> unculled_rerun(
      const Round& /*round*/, std::uint64_t /*index*/) const {
    return std::nullopt;
  }
};

/// The workload names, in the order the usage text lists them.
const std::vector<std::string>& workload_names();

/// Workload `name` (one of workload_names()) with inputs drawn from `seed`.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

/// Everything observable about a round folded to one word (the fields
/// bench_ext_scale's culling-identity digest covers).
std::uint64_t outcome_digest(const uwb::ranging::RoundOutcome& out);

/// Totals of the spans and counters the benchmark reads, at one instant
/// (taken between rounds, never inside a timed interval).
struct ObsMark {
  struct SpanTally {
    std::uint64_t count = 0;
    double ms = 0.0;
  };
  std::map<std::string, SpanTally> spans;
  std::map<std::string, std::uint64_t> counters;

  static ObsMark now();
  /// Element-wise this - earlier.
  ObsMark since(const ObsMark& earlier) const;
  void add(const ObsMark& other);
  SpanTally span(const std::string& name) const;
  std::uint64_t counter(const std::string& name) const;
};

/// Per-layer totals over the traced rounds.
struct LayerTally {
  int rounds = 0;
  std::vector<double> round_s;
  /// Σ over Monte-Carlo batches of (batch time − Σ its round times) [s].
  double runner_s = 0.0;
  std::uint64_t lookups = 0, hits = 0, misses = 0;
  double entries_sum = 0.0;
  std::uint64_t frames_tx = 0, delivered = 0, culled = 0, below = 0;
  std::uint64_t realized = 0;
  /// Replayed realizations, their taps, and the uncached solves.
  std::uint64_t replayed = 0, replayed_taps = 0, solves = 0;
  /// Frames that led or joined an RX batch, and the taps of the frames
  /// whose batch was turned into a CIR.
  std::uint64_t useful = 0, arrivals = 0;
  /// Spans and counters inside the rounds, and those of the replay.
  ObsMark in_round, replay;
};

/// Replay one traced round's geom, channel, detector, interpretation and
/// (with `solver`) multilateration calls with the round's own inputs, under
/// the benchmark's spans. `events` are the round's flight-recorder records.
/// Appends one message per failed check to `errors`.
void replay_round(const Round& round, const uwb::ranging::ScenarioConfig& cfg,
                  const std::optional<uwb::loc::SolverOptions>& solver,
                  const std::vector<uwb::obs::FrRecord>& events,
                  LayerTally& tally, std::vector<std::string>& errors);

}  // namespace perfbench
