#include "workload/user_types.h"

#include <gtest/gtest.h>

#include <array>

namespace coolstream::workload {
namespace {

TEST(UserTypeModelTest, SharesSumToOne) {
  const auto m = UserTypeModel::coolstreaming_2006();
  double total = 0.0;
  for (const auto& p : m.profiles) total += p.share;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(UserTypeModelTest, DrawTypeMatchesShares) {
  const auto m = UserTypeModel::coolstreaming_2006();
  sim::Rng rng(1);
  std::array<int, net::kConnectionTypeCount> counts{};
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(m.draw_type(rng))];
  }
  for (int t = 0; t < net::kConnectionTypeCount; ++t) {
    const double expected =
        m.profiles[static_cast<std::size_t>(t)].share * kDraws;
    EXPECT_NEAR(counts[static_cast<std::size_t>(t)], expected,
                expected * 0.1 + 100);
  }
}

TEST(UserTypeModelTest, CapacitiesWithinBounds) {
  const auto m = UserTypeModel::coolstreaming_2006();
  sim::Rng rng(2);
  for (int t = 0; t < net::kConnectionTypeCount; ++t) {
    const auto type = static_cast<net::ConnectionType>(t);
    const auto& p = m.profiles[static_cast<std::size_t>(t)];
    for (int i = 0; i < 2000; ++i) {
      const double c = m.draw_capacity(type, rng);
      ASSERT_GE(c, p.min_bps);
      ASSERT_LE(c, p.max_bps);
    }
  }
}

TEST(UserTypeModelTest, CapableTypesUploadMoreOnAverage) {
  const auto m = UserTypeModel::coolstreaming_2006();
  sim::Rng rng(3);
  auto mean_for = [&](net::ConnectionType type) {
    double sum = 0.0;
    for (int i = 0; i < 5000; ++i) sum += m.draw_capacity(type, rng);
    return sum / 5000.0;
  };
  const double direct = mean_for(net::ConnectionType::kDirect);
  const double upnp = mean_for(net::ConnectionType::kUpnp);
  const double nat = mean_for(net::ConnectionType::kNat);
  const double firewall = mean_for(net::ConnectionType::kFirewall);
  EXPECT_GT(direct, upnp);
  EXPECT_GT(upnp, firewall);
  EXPECT_GT(firewall, nat);
}

TEST(UserTypeModelTest, SpecAddressClassMatchesType) {
  // A spec's address is private exactly for the private-address connection
  // types, and every type is drawn, so both directions are exercised.
  const auto m = UserTypeModel::coolstreaming_2006();
  sim::Rng rng(4);
  std::array<int, net::kConnectionTypeCount> drawn{};
  for (std::uint64_t user = 1; user <= 2000; ++user) {
    const auto spec = m.make_spec(user, rng);
    EXPECT_EQ(spec.user_id, user);
    EXPECT_EQ(spec.kind, core::PeerKind::kViewer);
    EXPECT_EQ(spec.address.is_private(),
              net::uses_private_address(spec.type));
    EXPECT_GT(spec.upload_capacity, units::BitRate::zero());
    ++drawn[static_cast<std::size_t>(spec.type)];
  }
  for (const int n : drawn) EXPECT_GT(n, 0);
}

TEST(UserTypeModelTest, CapableShareRoughly30Percent) {
  // §V-B: direct + UPnP are "30% or so" of the population.
  const auto m = UserTypeModel::coolstreaming_2006();
  const double capable =
      m.profiles[static_cast<std::size_t>(net::ConnectionType::kDirect)].share +
      m.profiles[static_cast<std::size_t>(net::ConnectionType::kUpnp)].share;
  EXPECT_NEAR(capable, 0.30, 0.05);
}

TEST(UserTypeModelTest, MeanCapacityExceedsStreamRate) {
  // The deployment was viable: mean upload capacity above 768 kbps.
  const auto m = UserTypeModel::coolstreaming_2006();
  EXPECT_GT(m.mean_capacity_bps(), 768e3);
}

TEST(UserTypeModelTest, AllDirectPreset) {
  const auto m = UserTypeModel::all_direct(1.5e6);
  sim::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(m.draw_type(rng), net::ConnectionType::kDirect);
  }
}

}  // namespace
}  // namespace coolstream::workload
