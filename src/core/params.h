// System parameters of Coolstreaming (Table I of the paper), the few
// deployment settings a bench or workload varies, and the fixed behaviour
// the paper describes in prose, as named constants.  A setting that every
// run leaves at one value is a constant here (or next to its one reader),
// not a field.
//
//   R    bit rate of the live video stream
//   K    number of sub-streams
//   B    length of a peer's buffer in units of time
//   T_s  out-of-synchronization threshold (max deviation between
//        sub-streams)
//   T_p  maximum allowable latency for a partner behind others; also the
//        initial-offset parameter of the join process (§IV-A)
//   T_a  cool-down period between peer adaptations
//   M    upper bound on the number of partners (§IV-B)
//
// Sequence-number bookkeeping: each sub-stream carries its own block
// sequence 0,1,2,...; the global playback order interleaves sub-streams
// round-robin (global block g lives in sub-stream g mod K with sub-stream
// sequence g / K).  The stream produces `block_rate` blocks per second in
// global order, so each sub-stream advances at block_rate / K blocks/s and
// one block carries R / block_rate bits of video.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/units.h"

namespace coolstream::core {

// --- client playout constants (seconds) --------------------------------------

/// Player stall semantics: when the next block is missing at its
/// deadline the player freezes (all later deadlines shift) and waits up
/// to this long before skipping the block and counting it missed.
/// Blocks that arrive during a stall played late but did play; the
/// continuity index — "blocks that arrive before playback deadlines" —
/// charges only the skipped ones, as a real player-side meter does.
inline constexpr double kStallSkipAfter = 1.5;

/// After a stall, the player resumes only once this much contiguous
/// video is buffered beyond the stalled position (rebuffering).  Without
/// it a zero-slack player micro-stalls on every delivery batch.
inline constexpr double kStallRebufferSeconds = 2.0;

/// When a window skip jumps a sub-stream forward by at least this much
/// video, the client *resyncs*: it restarts its playout timeline at the
/// new position instead of charging every jumped block as missed — the
/// behaviour of a live client that fell behind and re-anchors (the
/// paper's NAT users that "simply depart and re-enter the overlay",
/// whose catch-up gap never reaches the log).
inline constexpr double kResyncSkipSeconds = 20.0;

/// A client knows the broadcast clock from block timestamps; when its
/// freshest sub-stream falls this far behind the live edge it starts
/// exploring for fresher partners even if its current partners look
/// mutually consistent (a collectively stale neighbourhood).
inline constexpr double kStaleThresholdSeconds = 30.0;

/// Upper bound on playback latency behind the live edge.  A live client
/// that drifts beyond this jumps forward (re-anchoring at the freshest
/// partner position minus T_p) instead of downloading minutes of stale
/// video — catch-up work per episode stays bounded by ~T_p instead of
/// growing with the backlog.  Params::validate() keeps T_p below it.
inline constexpr double kMaxPlaybackLagSeconds = 60.0;
/// Minimum spacing between forward resyncs.
inline constexpr double kResyncCooldownSeconds = 15.0;

// --- protocol timers and the join process (prose of §III/§IV) ---------------

/// Buffer-map exchange period, seconds (§III-C).
inline constexpr double kBmExchangePeriod = 1.0;
/// Membership gossip period, seconds (§III-B).
inline constexpr double kGossipPeriod = 2.0;
/// Period of the Ineq. (1)/(2) monitor, seconds (§IV-B).
inline constexpr double kAdaptationCheckPeriod = 1.0;
/// Period of the attempt to restore the partner count, seconds.
inline constexpr double kPartnerRefillPeriod = 2.0;
/// Partnerships a node attempts on join (§IV-A), and the partner count it
/// refills toward.  Params::validate() keeps M above it.
inline constexpr int kInitialPartnerTarget = 4;
/// Seconds of contiguous video buffered ahead of the playhead before the
/// media player starts (the 10-20 s wait of Fig. 6).
inline constexpr double kMediaReadyBufferSeconds = 10.0;

/// The settable protocol and measurement parameters of one broadcast.
struct Params {
  // --- Table I -----------------------------------------------------------
  double stream_rate_bps = 768'000.0;  ///< R: 768 kbps, "TV-quality" (§V-A)
  int substream_count = 4;             ///< K
  double buffer_seconds = 120.0;       ///< B: cache-buffer span
  double ts_seconds = 10.0;            ///< T_s expressed in seconds of video
  double tp_seconds = 15.0;            ///< T_p expressed in seconds of video
  double ta_seconds = 10.0;            ///< T_a cool-down
  /// M: partner upper bound.  Table I does not give the deployed value;
  /// feasibility pins it: with ~70% of peers unreachable, every
  /// partnership needs at least one reachable endpoint, so reachable
  /// peers must hold ~ kInitialPartnerTarget * weak_share / capable_share
  /// (~9-10) inbound partnerships on top of their own outgoing ones —
  /// consistent with §V-B's "the degree of a direct-connect/UPnP peers
  /// often reaches the maximum allowed by the system".
  int max_partners = 16;

  // --- block clock ---------------------------------------------------------
  double block_rate = 8.0;  ///< total blocks per second across sub-streams

  // --- robustness (fault-tolerance knobs; defaults preserve the clean
  // protocol behaviour bit-for-bit) -----------------------------------------
  /// When > 0: a partner whose buffer map has not been refreshed for this
  /// many seconds is presumed dead or unreachable and the partnership is
  /// dropped.  Under message loss this is what clears phantom partnerships
  /// left by a dropped establishment confirm.  0 disables the timeout.
  /// Clean runs leave one-sided partnerships too: a confirm that arrives
  /// after the callee broke the partnership is still applied, and with the
  /// timeout off nothing removes it (ROADMAP item 1 fixes the confirm).
  double partner_silence_timeout = 0.0;
  /// Ablation switches for the two adaptation triggers (§IV-B).  Disabling
  /// one models a protocol bug; the property harness uses these to prove
  /// it catches such bugs.
  bool adaptation_ineq1 = true;  ///< Ineq. (1): own sub-streams diverge
  bool adaptation_ineq2 = true;  ///< Ineq. (2): parent lags other partners

  // --- measurement (§V-A) --------------------------------------------------
  double status_report_period = 300.0;  ///< 5-minute status reports

  // --- data plane -----------------------------------------------------------
  /// Fluid-flow integration step for the data plane, in seconds.
  double flow_tick = 0.5;
  /// A child in catch-up may receive at most this multiple of the
  /// sub-stream rate on one connection (TCP ramp / receiver limits).
  double max_catchup_factor = 4.0;

  // --- derived quantities ---------------------------------------------------
  /// Bits per block: R / block_rate.
  double block_size_bits() const noexcept {
    return stream_rate_bps / block_rate;
  }
  /// Blocks per second of one sub-stream.
  double substream_block_rate() const noexcept {
    return block_rate / static_cast<double>(substream_count);
  }
  /// Sub-stream bit rate R/K.
  double substream_rate_bps() const noexcept {
    return stream_rate_bps / static_cast<double>(substream_count);
  }
  /// T_s in sub-stream sequence numbers.
  double ts_blocks() const noexcept {
    return ts_seconds * substream_block_rate();
  }
  /// T_p in sub-stream sequence numbers.
  double tp_blocks() const noexcept {
    return tp_seconds * substream_block_rate();
  }
  /// Buffer length B in sub-stream sequence numbers.
  double buffer_blocks() const noexcept {
    return buffer_seconds * substream_block_rate();
  }

  // --- typed derived quantities (the config boundary: raw doubles above
  // are converted to strong domain types exactly once, here) ---------------
  /// T_s as a whole-block sequence span (truncated like the protocol does).
  units::BlockCount ts_block_count() const noexcept {
    return units::BlockCount(static_cast<std::int64_t>(ts_blocks()));
  }
  /// T_p as a whole-block sequence span.
  units::BlockCount tp_block_count() const noexcept {
    return units::BlockCount(static_cast<std::int64_t>(tp_blocks()));
  }
  /// Cache-buffer window B as a per-sub-stream block span (>= 1).
  units::BlockCount buffer_block_count() const noexcept {
    const auto b = static_cast<std::int64_t>(buffer_blocks());
    return units::BlockCount(b < 1 ? 1 : b);
  }
  /// Blocks (global) that must be contiguous beyond the playhead before
  /// the media player starts.
  units::BlockCount media_ready_block_count() const noexcept {
    return units::BlockCount(
        static_cast<std::int64_t>(kMediaReadyBufferSeconds * block_rate));
  }
  /// One sub-stream's sustained rate R/K in blocks per second.
  units::BlockRate substream_block_rate_typed() const noexcept {
    return units::BlockRate(substream_block_rate());
  }
  /// The stream rate R as a bit rate.
  units::BitRate stream_rate() const noexcept {
    return units::BitRate(stream_rate_bps);
  }
  /// Whole-block payload size in bytes (matches the fluid data plane).
  units::Bytes block_bytes() const noexcept {
    return units::Bytes(static_cast<std::uint64_t>(block_size_bits() / 8.0));
  }
  /// Fluid-flow integration step as a time span.
  units::Duration flow_dt() const noexcept {
    return units::Duration(flow_tick);
  }

  /// Throws std::invalid_argument when a parameter combination is
  /// inconsistent (non-positive rates, K < 1, thresholds out of order...).
  void validate() const;

  /// Multi-line human-readable dump (printed by every bench header).
  std::string describe() const;
};

}  // namespace coolstream::core
