#include "core/params.h"

#include <cstdio>

#include "core/stream_types.h"

namespace coolstream::core {

void Params::validate() const {
  auto fail = [](const char* what) {
    throw std::invalid_argument(std::string("Params: ") + what);
  };
  if (stream_rate_bps <= 0.0) fail("stream_rate_bps must be positive");
  if (substream_count < 1) fail("substream_count must be >= 1");
  if (substream_count > kMaxSubstreams) {
    fail("substream_count exceeds kMaxSubstreams (the buffer-map lane "
         "capacity)");
  }
  if (buffer_seconds <= kMediaReadyBufferSeconds) {
    fail("buffer_seconds must exceed kMediaReadyBufferSeconds");
  }
  if (ts_seconds <= 0.0) fail("ts_seconds must be positive");
  if (tp_seconds <= 0.0) fail("tp_seconds must be positive");
  if (tp_seconds < ts_seconds) {
    fail("tp_seconds must be >= ts_seconds (a parent is allowed to lag "
         "partners by more than the intra-node sub-stream spread)");
  }
  if (ta_seconds <= 0.0) fail("ta_seconds must be positive");
  if (max_partners <= kInitialPartnerTarget) {
    fail("max_partners must exceed kInitialPartnerTarget (a viewer's "
         "partner budget is clamped to [target + 1, M])");
  }
  if (block_rate <= 0.0) fail("block_rate must be positive");
  if (block_rate < static_cast<double>(substream_count)) {
    fail("block_rate must be >= substream_count (every sub-stream needs a "
         "positive block rate)");
  }
  if (tp_seconds >= buffer_seconds) {
    fail("tp_seconds must be smaller than buffer_seconds (the join offset "
         "must land inside partners' buffers)");
  }
  if (tp_seconds >= kMaxPlaybackLagSeconds) {
    fail("tp_seconds must be smaller than kMaxPlaybackLagSeconds (the "
         "resync target is T_p behind the freshest partner)");
  }
  if (partner_silence_timeout < 0.0) {
    fail("partner_silence_timeout must be non-negative (0 disables it)");
  }
  if (partner_silence_timeout > 0.0 &&
      partner_silence_timeout <= kBmExchangePeriod) {
    fail("partner_silence_timeout must exceed kBmExchangePeriod (a healthy "
         "partner refreshes its BM once per exchange period)");
  }
  if (status_report_period <= 0.0) fail("status_report_period must be positive");
  if (flow_tick <= 0.0) fail("flow_tick must be positive");
  if (max_catchup_factor < 1.0) fail("max_catchup_factor must be >= 1");
}

std::string Params::describe() const {
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "Coolstreaming parameters (Table I)\n"
      "  R   stream rate            %.0f kbps\n"
      "  K   sub-streams            %d\n"
      "  B   buffer length          %.0f s (%.0f blocks/sub-stream)\n"
      "  T_s out-of-sync threshold  %.1f s (%.1f blocks)\n"
      "  T_p partner-lag threshold  %.1f s (%.1f blocks)\n"
      "  T_a adaptation cool-down   %.1f s\n"
      "  M   max partners           %d\n"
      "  block rate %.1f blk/s, block size %.0f bytes, media-ready %.1f s\n",
      stream_rate_bps / 1000.0, substream_count, buffer_seconds,
      buffer_blocks(), ts_seconds, ts_blocks(), tp_seconds, tp_blocks(),
      ta_seconds, max_partners, block_rate, block_size_bits() / 8.0,
      kMediaReadyBufferSeconds);
  return buf;
}

}  // namespace coolstream::core
