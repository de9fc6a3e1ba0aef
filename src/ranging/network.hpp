// Network-wide concurrent ranging (extension of Sect. III's motivation).
//
// The paper counts N(N-1) scheduled messages for all-pairs distances vs N
// concurrent-ranging broadcasts. This module actually runs that sweep on
// the simulated radios: every node takes the initiator role once, all
// others respond concurrently, and the result is the full distance matrix
// plus the measured (not analytic) radio energy — the building block of the
// cooperative localisation the paper names as future work.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "channel/channel_model.hpp"
#include "geom/room.hpp"
#include "ranging/protocol.hpp"
#include "ranging/search_subtract.hpp"
#include "sim/medium.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace uwb::ranging {

struct NetworkConfig {
  geom::Room room = geom::Room::rectangular(20.0, 12.0, 10.0);
  channel::ChannelModelParams channel;
  sim::MediumParams medium;
  /// One entry per node; the vector index is the node's network address.
  std::vector<geom::Vec2> node_positions;
  /// Slot/shape plan applied to the responders of each round. Responder IDs
  /// are assigned per round by ascending node index (the initiator knows
  /// the mapping because membership is static).
  ConcurrentRangingConfig ranging;
  dw::PhyConfig phy;
  dw::CirParams cir;
  double clock_drift_sigma_ppm = 1.0;
  bool delayed_tx_truncation = true;
  bool slot_aware_selection = true;
  std::uint64_t seed = 1;
};

/// One initiator's view after its round.
struct NetworkRound {
  int initiator = -1;
  bool completed = false;
  /// distances[j]: estimated distance to node j (nullopt if that node's
  /// response was not decoded this round; entry `initiator` is nullopt).
  std::vector<std::optional<double>> distances;
  int frames_in_batch = 0;
};

/// Result of a full sweep (every node initiating once).
struct NetworkSweep {
  /// matrix[i][j]: distance node i measured to node j (nullopt if missed).
  std::vector<std::vector<std::optional<double>>> matrix;
  /// Total radio energy across all nodes for the whole sweep [J].
  double total_energy_j = 0.0;
  /// Simulated wall-clock duration of the sweep [s].
  double duration_s = 0.0;
  /// Rounds whose payload decoded.
  int completed_rounds = 0;
};

class NetworkRangingSession {
 public:
  /// Precondition (UWB_EXPECTS): a valid ranging config, at least 2 nodes,
  /// and no more responders per round than the slot/shape plan addresses.
  explicit NetworkRangingSession(NetworkConfig config);
  ~NetworkRangingSession();

  NetworkRangingSession(const NetworkRangingSession&) = delete;
  NetworkRangingSession& operator=(const NetworkRangingSession&) = delete;

  /// One concurrent-ranging round with node `initiator_index` initiating.
  NetworkRound run_round(int initiator_index);

  /// Every node initiates once, in index order.
  NetworkSweep run_full_sweep();

  int node_count() const { return static_cast<int>(nodes_.size()); }
  Meters true_distance(int i, int j) const;
  sim::Node& node(int index);

 private:
  /// Responder ID of node `node_index` in a round initiated by
  /// `initiator_index` (ascending node index, skipping the initiator).
  int responder_id_of(int node_index, int initiator_index) const;
  /// Inverse of responder_id_of.
  int node_of_responder(int responder_id, int initiator_index) const;

  NetworkConfig config_;
  Rng rng_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Medium> medium_;
  std::vector<std::unique_ptr<sim::Node>> nodes_;
  SearchSubtractDetector detector_;

  // Per-round state.
  int current_initiator_ = -1;
  std::optional<sim::RxResult> initiator_result_;
  dw::DwTimestamp t_tx_init_;
};

}  // namespace uwb::ranging
