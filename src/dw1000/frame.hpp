// MAC frames exchanged by the ranging protocols.
//
// The wire format models a compact IEEE 802.15.4 data frame: 9 header bytes
// (FC 2, seq 1, PAN 2, dst 2, src 2), a 1-byte message type, type-specific
// fields, and a 2-byte FCS. Frames travel through the simulator as structs;
// only their wire size is modelled, and it feeds the PHY air-time
// calculator: a 12-byte INIT reproduces the paper's 178.5 us minimum
// response delay.
#pragma once

#include <cstdint>

#include "dw1000/clock.hpp"

namespace uwb::dw {

enum class FrameType : std::uint8_t { Init = 1, Resp = 2, Data = 3, Final = 4 };

/// Broadcast address.
inline constexpr std::uint16_t kBroadcast = 0xFFFF;

struct MacFrame {
  FrameType type = FrameType::Data;
  std::uint16_t src = 0;
  std::uint16_t dst = kBroadcast;
  std::uint8_t seq = 0;

  /// RESP only: responder identity.
  std::uint8_t responder_id = 0;
  /// RESP: INIT reception timestamp at the responder (t_rx,i).
  /// FINAL (DS-TWR): RESP reception timestamp at the initiator.
  DwTimestamp rx_timestamp;
  /// RESP: RESP transmission timestamp at the responder (t_tx,i).
  /// FINAL (DS-TWR): FINAL transmission timestamp at the initiator.
  DwTimestamp tx_timestamp;
  /// FINAL (DS-TWR) only: POLL transmission timestamp at the initiator.
  DwTimestamp aux_timestamp;

  /// Wire size in bytes (drives the air-time model).
  int payload_bytes() const;
};

}  // namespace uwb::dw
