// Frame-level flight recorder: a deterministic, bounded, per-thread event
// log that makes every final RangingStatus reconstructible from its causal
// chain (DESIGN.md Sect. 14).
//
// One causal chain id is minted per transmitted frame at
// sim::Medium::transmit (the frame's channel seed — already unique and
// deterministic across thread counts) and propagated through channel
// realization/culling, RX delivery, fault injection, detection, and the
// ranging math. Events record *simulated* time, never the host clock, so
// two runs with the same seed produce byte-identical JSONL exports at any
// Monte-Carlo worker-thread count (as long as no shard overflowed — see
// dropped_events()).
//
// Sharding mirrors MetricsRegistry: every thread records into its own
// bounded ring buffer with plain non-atomic writes; collect()/to_jsonl()
// merge all shards under the same quiescence contract (no aggregation
// concurrent with instrumentation). The merge sorts by (session, shard
// sequence): one session — one Monte-Carlo trial — runs entirely on one
// worker, so its events carry consecutive sequence numbers from a single
// shard and the merged order is independent of how trials were scheduled.
//
// Instrumented code uses only the UWB_FR_* macros below; tests and tools
// drive the classes directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "obs/obs.hpp"

namespace uwb::obs {

/// Pipeline stage an event belongs to. The JSONL "kind" field uses
/// to_string(); tools/check_trace.py validates against the same vocabulary.
enum class FrKind : std::uint8_t {
  kTx,       ///< a frame left an antenna (chain root)
  kChannel,  ///< per-receiver channel outcome (delivered/culled/below thr.)
  kRx,       ///< receiver-side frame handling (lock, batch, decode)
  kFault,    ///< injected fault, tagged with the chain it killed
  kDetect,   ///< search&subtract peak decisions
  kTwr,      ///< ranging math (timestamps consumed, distance produced)
  kStatus,   ///< session-level outcome (attempts, per-responder status)
  kAttack,   ///< injected adversarial manipulation (src/fault/attack.hpp)
  kVerdict,  ///< attack-detector decision (ranging::AttackDetector)
};

const char* to_string(FrKind kind);

/// Sentinel node id for "no node attached" (real ids include the
/// initiator's -1, so 0/-1 cannot be the sentinel).
inline constexpr std::int32_t kFrNoNode =
    std::numeric_limits<std::int32_t>::min();

/// Sentinel for FrEvent::t_ps: take the thread-local context time (kept
/// current by the simulator's dispatch loop).
inline constexpr std::int64_t kFrTimeFromContext =
    std::numeric_limits<std::int64_t>::min();

/// One optional named numeric payload field of an event.
struct FrValue {
  const char* key = nullptr;  // string literal; nullptr = slot unused
  double value = 0.0;
};

/// An event as written at a record site (designated initializers; field
/// order is part of the API). `name`, `detail`, and value keys must be
/// string literals — the recorder stores the pointers (enforced by the
/// uwb_lint obs-event-literal rule).
struct FrEvent {
  FrKind kind = FrKind::kStatus;
  const char* name = nullptr;
  /// Causal chain id; 0 = inherit the thread-local context chain.
  std::uint64_t chain = 0;
  /// Simulated time [ps]; kFrTimeFromContext = inherit the context time.
  std::int64_t t_ps = kFrTimeFromContext;
  std::int32_t node = kFrNoNode;
  std::int32_t peer = kFrNoNode;
  const char* detail = nullptr;
  FrValue v0, v1, v2, v3;
};

/// A recorded event: the FrEvent fields resolved against the thread-local
/// context plus the shard-local sequence number.
struct FrRecord {
  std::uint64_t session = 0;
  std::uint64_t chain = 0;
  std::uint64_t seq = 0;  // shard-local, monotone; not exported
  std::int64_t t_ps = 0;
  std::uint32_t round = 0;
  FrKind kind = FrKind::kStatus;
  std::int32_t node = kFrNoNode;
  std::int32_t peer = kFrNoNode;
  const char* name = nullptr;
  const char* detail = nullptr;
  FrValue v0, v1, v2, v3;
};

/// Thread-local propagation state. Sessions set session/round (and refresh
/// the time at attempt boundaries); the simulator keeps t_ps current per
/// dispatched event; receive paths scope the chain around their handlers.
struct FrContext {
  std::uint64_t session = 0;
  std::uint32_t round = 0;
  std::uint64_t chain = 0;
  std::int64_t t_ps = 0;
};

FrContext& fr_context();

/// RAII session/round scope (saves and restores the previous values, so
/// nested scenarios — e.g. a scenario driven from inside a test — unwind
/// correctly).
class FrSessionScope {
 public:
  FrSessionScope(std::uint64_t session, std::uint32_t round)
      : saved_(fr_context()) {
    FrContext& ctx = fr_context();
    ctx.session = session;
    ctx.round = round;
  }
  ~FrSessionScope() { fr_context() = saved_; }
  FrSessionScope(const FrSessionScope&) = delete;
  FrSessionScope& operator=(const FrSessionScope&) = delete;

 private:
  FrContext saved_;
};

/// RAII causal-chain scope for code that handles one frame (RX callbacks,
/// post-round ranging math on the sync frame).
class FrChainScope {
 public:
  explicit FrChainScope(std::uint64_t chain) : saved_(fr_context().chain) {
    fr_context().chain = chain;
  }
  ~FrChainScope() { fr_context().chain = saved_; }
  FrChainScope(const FrChainScope&) = delete;
  FrChainScope& operator=(const FrChainScope&) = delete;

 private:
  std::uint64_t saved_;
};

/// Per-thread bounded ring buffer of records. Overflow keeps the *newest*
/// events and counts the casualties in dropped().
class FrShard {
 public:
  FrShard(int id, std::size_t capacity);
  FrShard(const FrShard&) = delete;
  FrShard& operator=(const FrShard&) = delete;

  int id() const { return id_; }
  std::size_t capacity() const { return ring_.size(); }

  /// Resolve `event` against the thread-local context and append it.
  void record(const FrEvent& event);

  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t recorded() const { return seq_; }
  std::size_t size() const { return size_; }

  /// Oldest-first copy of the retained records (quiescence contract).
  void append_to(std::vector<FrRecord>& out) const;

  /// Drop all records and zero the counters (capacity unchanged).
  void clear();
  /// Clear and replace the ring capacity (quiescence contract).
  void set_capacity(std::size_t capacity);

 private:
  int id_ = 0;
  std::vector<FrRecord> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;  // records retained (<= capacity)
  std::uint64_t seq_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Process-wide registry of per-thread shards, mirroring MetricsRegistry.
/// Recording is off by default (enabled() gates every macro) so untraced
/// runs never touch the rings.
class FlightRecorder {
 public:
  /// Default per-shard ring capacity (events). ~96 bytes/record, so the
  /// default bounds a shard at ~24 MB fully loaded.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 18;

  static FlightRecorder& instance();

  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// The calling thread's shard (created on first use, retained after
  /// thread exit so recordings survive worker churn).
  FrShard& local_shard();

  /// Replace every shard's ring capacity and clear them (quiescence
  /// contract; applies to shards created later too).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const { return capacity_; }

  /// All retained records merged over every shard, sorted by
  /// (session, shard sequence) — deterministic at any thread count when
  /// each session ran on a single thread (the Monte-Carlo contract) and no
  /// shard dropped events. Quiescence contract applies.
  std::vector<FrRecord> collect() const;

  /// Total events dropped to ring overflow, over all shards.
  std::uint64_t dropped_events() const;
  /// Total events recorded (including later-overwritten ones).
  std::uint64_t recorded_events() const;

  /// JSONL export of collect(): one event object per line plus a trailing
  /// meta line carrying events/dropped_events. Byte-identical across
  /// thread counts under the collect() conditions.
  std::string to_jsonl() const;
  /// Write to_jsonl() to `path`; false on I/O failure.
  bool write_jsonl(const std::string& path) const;

  /// Clear every shard's records and counters (capacity kept).
  void reset();

 private:
  FlightRecorder() = default;
  FrShard& register_shard();

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<FrShard>> shards_;
  std::size_t capacity_ = kDefaultCapacity;
};

}  // namespace uwb::obs

// --- record-site macros ----------------------------------------------------
// Variadic so call sites can use designated initializers with commas:
//   UWB_FR_EVENT(.kind = obs::FrKind::kTx, .name = "frame_tx",
//                .chain = seed, .node = tx_id);

/// True when the recorder is enabled at runtime. Use to guard loops that
/// exist only to record (e.g. per-culled-receiver distance events).
#define UWB_FR_ACTIVE() (::uwb::obs::FlightRecorder::enabled())

// The diagnostic pragmas silence -Wmissing-field-initializers for the
// designated-initializer aggregate: every FrEvent member carries a default
// member initializer, so partially-listed events are the intended idiom.
#define UWB_FR_EVENT(...)                                              \
  do {                                                                 \
    _Pragma("GCC diagnostic push")                                     \
    _Pragma("GCC diagnostic ignored \"-Wmissing-field-initializers\"") \
    if (::uwb::obs::FlightRecorder::enabled())                         \
      ::uwb::obs::FlightRecorder::instance().local_shard().record(     \
          ::uwb::obs::FrEvent{__VA_ARGS__});                           \
    _Pragma("GCC diagnostic pop")                                      \
  } while (false)

/// Refresh the context's simulated time (a SimTime expression).
#define UWB_FR_SET_TIME(t)                                             \
  do {                                                                 \
    if (::uwb::obs::FlightRecorder::enabled())                         \
      ::uwb::obs::fr_context().t_ps = (t).ps();                        \
  } while (false)

#define UWB_FR_SESSION_SCOPE(session, round)            \
  ::uwb::obs::FrSessionScope UWB_OBS_CONCAT(            \
      uwb_fr_session_, __LINE__)(session, round)

#define UWB_FR_CHAIN_SCOPE(chain) \
  ::uwb::obs::FrChainScope UWB_OBS_CONCAT(uwb_fr_chain_, __LINE__)(chain)
