// Traced per-layer replay: after a traced round (outside its timed interval)
// the round's geom, channel, detector, interpretation and multilateration
// calls run again with the round's own inputs under the benchmark's spans,
// and every replayed output is checked against what the round produced.
#include <cstring>
#include <map>

#include "channel/saleh_valenzuela.hpp"
#include "common/random.hpp"
#include "obs/flight_recorder.hpp"
#include "perfbench.hpp"
#include "ranging/protocol.hpp"
#include "ranging/search_subtract.hpp"

namespace perfbench {

using namespace uwb;

namespace {

/// Node id of the initiator in ranging::ConcurrentRangingScenario.
constexpr int kInitiatorId = -1;

/// The per-(link, frame) stream index sim::Medium draws a channel from:
/// tx and rx ids packed into disjoint 32-bit lanes.
std::uint64_t link_stream(int tx, int rx) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(tx)) << 32) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(rx));
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_complex(Complex a, Complex b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

bool same_taps(const std::vector<channel::Tap>& a,
               const std::vector<channel::Tap>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].delay_s, b[i].delay_s) ||
        !same_complex(a[i].amplitude, b[i].amplitude) ||
        a[i].deterministic != b[i].deterministic || a[i].order != b[i].order)
      return false;
  return true;
}

bool same_detections(const std::vector<ranging::DetectedResponse>& a,
                     const std::vector<ranging::DetectedResponse>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].tau_s, b[i].tau_s) ||
        !same_bits(a[i].index_upsampled, b[i].index_upsampled) ||
        !same_complex(a[i].amplitude, b[i].amplitude) ||
        a[i].shape_index != b[i].shape_index)
      return false;
  return true;
}

bool same_estimates(const std::vector<ranging::ResponderEstimate>& a,
                    const std::vector<ranging::ResponderEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].distance_m, b[i].distance_m) ||
        a[i].slot != b[i].slot || a[i].shape_index != b[i].shape_index ||
        a[i].responder_id != b[i].responder_id ||
        !same_bits(a[i].amplitude, b[i].amplitude) ||
        !same_bits(a[i].tau_rel_s, b[i].tau_rel_s))
      return false;
  return true;
}

/// One realized channel of the round: the frame's chain id and its link.
struct Link {
  std::uint64_t chain = 0;
  int tx = 0;
  int rx = 0;
  geom::Vec2 tx_pos, rx_pos;
};

bool named(const obs::FrRecord& e, obs::FrKind kind, const char* name) {
  return e.kind == kind && std::strcmp(e.name, name) == 0;
}

/// The anchor observations AnchorLocalizer::locate() solves from: the
/// strongest estimate per decoded anchor id.
std::vector<loc::RangeObservation> anchor_observations(
    const ranging::RoundOutcome& out, const ranging::ScenarioConfig& cfg) {
  std::map<int, const ranging::ResponderEstimate*> best;
  for (const ranging::ResponderEstimate& est : out.estimates) {
    if (est.responder_id < 0 || est.distance_m <= 0.0) continue;
    const auto it = best.find(est.responder_id);
    if (it == best.end() || est.amplitude > it->second->amplitude)
      best[est.responder_id] = &est;
  }
  std::vector<loc::RangeObservation> observations;
  for (const auto& [id, est] : best)
    for (const ranging::ResponderSpec& spec : cfg.responders)
      if (spec.id == id) {
        observations.push_back({spec.position, est->distance_m});
        break;
      }
  return observations;
}

/// Keeps replayed results observable, so no call can be dropped as dead.
volatile std::size_t g_sink = 0;

}  // namespace

void replay_round(const Round& round, const ranging::ScenarioConfig& cfg,
                  const std::optional<loc::SolverOptions>& solver,
                  const std::vector<obs::FrRecord>& events, LayerTally& tally,
                  std::vector<std::string>& errors) {
  // Links the medium realized (delivered or below threshold), and the
  // frames that reached an RX batch, from the flight recorder.
  std::vector<Link> links;
  std::map<std::pair<std::uint64_t, int>, int> batched;  // (chain, rx) -> +1/-1
  for (const obs::FrRecord& e : events) {
    if (named(e, obs::FrKind::kChannel, "delivered") ||
        named(e, obs::FrKind::kChannel, "below_threshold")) {
      links.push_back({e.chain, e.peer, e.node, {}, {}});
    } else if (named(e, obs::FrKind::kRx, "rx_batch_lead") ||
               named(e, obs::FrKind::kRx, "rx_batch_join")) {
      ++tally.useful;
      batched[{e.chain, e.node}] += 1;
    } else if (named(e, obs::FrKind::kRx, "rx_abandoned")) {
      batched[{e.chain, e.node}] -= 1;
    }
  }
  if (links.size() != round.medium.channels_realized)
    errors.push_back("replayed " + std::to_string(links.size()) +
                     " realizations, medium realized " +
                     std::to_string(round.medium.channels_realized));
  if (round.deliveries.size() != round.medium.frames_delivered)
    errors.push_back("delivery probe saw " +
                     std::to_string(round.deliveries.size()) +
                     " frames, medium delivered " +
                     std::to_string(round.medium.frames_delivered));

  std::map<int, geom::Vec2> position{{kInitiatorId, cfg.initiator_position}};
  for (const ranging::ResponderSpec& spec : cfg.responders)
    position[spec.id] = spec.position;
  for (Link& l : links) {
    const auto tx = position.find(l.tx), rx = position.find(l.rx);
    if (tx == position.end() || rx == position.end()) {
      errors.push_back("flight recorder names an unknown node");
      return;
    }
    l.tx_pos = tx->second;
    l.rx_pos = rx->second;
  }

  // --- geom: cached lookups (what realize() pays) and uncached solves.
  const channel::ChannelModel model(cfg.room, cfg.channel);
  const int order = cfg.channel.max_reflection_order;
  std::size_t sink = 0;
  {
    obs::Span span("perfbench.geom_lookup");
    for (const Link& l : links)
      sink += geom::compute_paths_cached(model.room(), l.tx_pos, l.rx_pos, order)
                  .size();
  }
  {
    obs::Span span("perfbench.geom_solve");
    for (const Link& l : links)
      sink += geom::compute_paths(model.room(), l.tx_pos, l.rx_pos, order).size();
  }
  tally.solves += links.size();

  // --- channel: every realization on its own per-(link, frame) stream.
  std::vector<channel::ChannelRealization> realized(links.size());
  {
    obs::Span span("perfbench.realize");
    for (std::size_t i = 0; i < links.size(); ++i) {
      const Link& l = links[i];
      Rng rng(derive_seed(l.chain, link_stream(l.tx, l.rx)));
      realized[i] = model.realize(l.tx_pos, l.rx_pos, rng);
    }
  }
  if (cfg.channel.enable_diffuse) {
    obs::Span span("perfbench.diffuse");
    for (const Link& l : links) {
      Rng rng(derive_seed(l.chain, link_stream(l.tx, l.rx)));
      sink += channel::draw_diffuse_tail(cfg.channel.diffuse, rng).size();
    }
  }
  tally.replayed += links.size();
  for (const channel::ChannelRealization& ch : realized)
    tally.replayed_taps += ch.taps.size();

  // Every delivered frame carries exactly the replayed taps; the batched
  // ones are the CIR synthesizer's arrivals.
  std::map<std::pair<std::uint64_t, int>, std::size_t> link_index;
  for (std::size_t i = 0; i < links.size(); ++i)
    link_index[{links[i].chain, links[i].rx}] = i;
  for (const Delivery& d : round.deliveries) {
    const auto it = link_index.find({d.chain, d.rx});
    if (it == link_index.end() || links[it->second].tx != d.tx ||
        !same_taps(realized[it->second].taps, d.taps)) {
      errors.push_back("replayed taps differ from the delivered frame " +
                       std::to_string(d.tx) + " -> " + std::to_string(d.rx));
      continue;
    }
    const auto b = batched.find({d.chain, d.rx});
    if (b != batched.end() && b->second > 0) tally.arrivals += d.taps.size();
  }

  // --- ranging: detection and interpretation of the initiator's CIR, which
  // the round ran only when the sync payload decoded.
  if (round.out.payload_decoded) {
    ranging::DetectorConfig det = cfg.ranging.detector;
    det.shape_registers = cfg.ranging.shape_registers;
    const ranging::SearchSubtractDetector detector(det);
    const int max_responses = cfg.detect_max_responses > 0
                                  ? cfg.detect_max_responses
                                  : static_cast<int>(cfg.responders.size());
    std::vector<ranging::DetectedResponse> detections;
    {
      obs::Span span("perfbench.detect");
      detections = detector.detect(round.out.cir.taps, round.out.cir.ts_s,
                                   max_responses);
    }
    if (!same_detections(detections, round.out.detections))
      errors.push_back("replayed detections differ from the round's");

    const int sync_slot =
        ranging::assign_responder(round.out.sync_responder_id, cfg.ranging).slot;
    std::vector<ranging::ResponderEstimate> estimates;
    {
      obs::Span span("perfbench.interpret");
      estimates = ranging::interpret_responses(round.out.detections, cfg.ranging,
                                               round.out.d_twr_m, sync_slot);
      if (cfg.slot_aware_selection)
        estimates = ranging::select_slot_responses(estimates, cfg.ranging);
    }
    if (!same_estimates(estimates, round.out.estimates))
      errors.push_back("replayed estimates differ from the round's");
  }

  // --- loc: the position fix.
  if (solver && round.has_result) {
    const std::vector<loc::RangeObservation> observations =
        anchor_observations(round.out, cfg);
    loc::PositionFix fix;
    {
      obs::Span span("perfbench.multilaterate");
      fix = loc::multilaterate(observations, *solver);
    }
    if (!same_bits(fix.position.x, round.solver_fix.position.x) ||
        !same_bits(fix.position.y, round.solver_fix.position.y))
      errors.push_back("replayed fix differs from the localizer's");
  }
  g_sink = sink;
}

}  // namespace perfbench
