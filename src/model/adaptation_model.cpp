#include "model/adaptation_model.h"

#include <algorithm>
#include <cassert>

namespace coolstream::model {

using units::BlockRate;
using units::Duration;

units::Duration catch_up_time(double deficit_blocks, BlockRate upload_rate,
                              const StreamRates& rates) noexcept {
  assert(deficit_blocks >= 0.0);
  const BlockRate margin = upload_rate - rates.substream_rate();
  if (margin <= BlockRate::zero()) return Duration::infinity();
  // blocks over blocks/s: seconds.
  return Duration(deficit_blocks /
                  margin.value());
}

units::Duration abandon_time(double slack_blocks, BlockRate download_rate,
                             const StreamRates& rates) noexcept {
  assert(slack_blocks >= 0.0);
  const BlockRate shortfall = rates.substream_rate() - download_rate;
  if (shortfall <= BlockRate::zero()) return Duration::infinity();
  return Duration(slack_blocks /
                  shortfall.value());
}

units::BlockRate competition_rate(int parent_degree,
                                  const StreamRates& rates) noexcept {
  assert(parent_degree >= 1);
  return rates.substream_rate() *
         (static_cast<double>(parent_degree) /
          static_cast<double>(parent_degree + 1));
}

units::Duration lose_time(int parent_degree, double ts_blocks,
                          double t_delta_blocks,
                          const StreamRates& rates) noexcept {
  assert(ts_blocks >= t_delta_blocks);
  // (T_s - t_delta) = R/K * t - D/(D+1) * R/K * t  =>
  // t = (D+1)(T_s - t_delta) / (R/K).
  return Duration(
      static_cast<double>(parent_degree + 1) * (ts_blocks - t_delta_blocks) /
      rates.substream_rate().value());
}

double lose_slack_threshold(int parent_degree, double ts_blocks,
                            units::Duration ta,
                            const StreamRates& rates) noexcept {
  // BlockRate * Duration is a (fractional) block count.
  return ts_blocks - rates.substream_rate() * ta /
                         static_cast<double>(parent_degree + 1);
}

double lose_probability_uniform_slack(int parent_degree, double ts_blocks,
                                      units::Duration ta,
                                      const StreamRates& rates) noexcept {
  assert(ts_blocks > 0.0);
  const double threshold =
      lose_slack_threshold(parent_degree, ts_blocks, ta, rates);
  // P(t_delta >= threshold) with initial lag t_delta ~ U[0, T_s].
  if (threshold <= 0.0) return 1.0;
  if (threshold >= ts_blocks) return 0.0;
  return 1.0 - threshold / ts_blocks;
}

}  // namespace coolstream::model
