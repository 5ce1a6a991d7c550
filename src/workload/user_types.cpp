#include "workload/user_types.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/address.h"

namespace coolstream::workload {
namespace {

constexpr std::size_t idx(net::ConnectionType t) {
  return static_cast<std::size_t>(t);
}

}  // namespace

UserTypeModel UserTypeModel::coolstreaming_2006() {
  UserTypeModel m;
  // share, lognormal mu/sigma of upload bps, floor, cap.
  m.profiles[idx(net::ConnectionType::kDirect)] =
      TypeProfile{0.16, std::log(3.0e6), 0.9, 128e3, 20e6};
  m.profiles[idx(net::ConnectionType::kUpnp)] =
      TypeProfile{0.14, std::log(1.5e6), 0.7, 128e3, 20e6};
  m.profiles[idx(net::ConnectionType::kNat)] =
      TypeProfile{0.45, std::log(320e3), 0.5, 64e3, 4e6};
  m.profiles[idx(net::ConnectionType::kFirewall)] =
      TypeProfile{0.25, std::log(448e3), 0.6, 64e3, 8e6};
  return m;
}

net::ConnectionType UserTypeModel::draw_type(sim::Rng& rng) const {
  const std::array<double, net::kConnectionTypeCount> weights = {
      profiles[0].share, profiles[1].share, profiles[2].share,
      profiles[3].share};
  return static_cast<net::ConnectionType>(rng.weighted(weights));
}

double UserTypeModel::draw_capacity(net::ConnectionType type,
                                    sim::Rng& rng) const {
  const TypeProfile& p = profiles[idx(type)];
  const double raw = rng.lognormal(p.capacity_mu, p.capacity_sigma);
  return std::clamp(raw, p.min_bps, p.max_bps);
}

core::PeerSpec UserTypeModel::make_spec(std::uint64_t user_id,
                                        sim::Rng& rng) const {
  core::PeerSpec spec;
  spec.user_id = user_id;
  spec.kind = core::PeerKind::kViewer;
  spec.type = draw_type(rng);
  spec.address = net::uses_private_address(spec.type)
                     ? net::random_private_address(rng)
                     : net::random_public_address(rng);
  spec.upload_capacity = units::BitRate(draw_capacity(spec.type, rng));
  return spec;
}

double UserTypeModel::mean_capacity_bps() const {
  double mean = 0.0;
  for (const auto& p : profiles) {
    mean += p.share *
            std::exp(p.capacity_mu + 0.5 * p.capacity_sigma * p.capacity_sigma);
  }
  return mean;
}

}  // namespace coolstream::workload
