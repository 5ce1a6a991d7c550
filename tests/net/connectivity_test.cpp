#include "net/connectivity.h"

#include <gtest/gtest.h>

namespace coolstream::net {
namespace {

TEST(ConnectivityTest, ToStringNames) {
  EXPECT_EQ(to_string(ConnectionType::kDirect), "direct");
  EXPECT_EQ(to_string(ConnectionType::kUpnp), "upnp");
  EXPECT_EQ(to_string(ConnectionType::kNat), "nat");
  EXPECT_EQ(to_string(ConnectionType::kFirewall), "firewall");
}

TEST(ConnectivityTest, InboundReachability) {
  EXPECT_TRUE(accepts_inbound(ConnectionType::kDirect));
  EXPECT_TRUE(accepts_inbound(ConnectionType::kUpnp));
  EXPECT_FALSE(accepts_inbound(ConnectionType::kNat));
  EXPECT_FALSE(accepts_inbound(ConnectionType::kFirewall));
}

TEST(ConnectivityTest, AddressClass) {
  EXPECT_FALSE(uses_private_address(ConnectionType::kDirect));
  EXPECT_TRUE(uses_private_address(ConnectionType::kUpnp));
  EXPECT_TRUE(uses_private_address(ConnectionType::kNat));
  EXPECT_FALSE(uses_private_address(ConnectionType::kFirewall));
}

// The §V-B observed classification table:
//   private + incoming -> UPnP        private + no incoming -> NAT
//   public  + incoming -> direct      public  + no incoming -> firewall
struct ClassifyCase {
  bool private_addr;
  bool had_in;
  bool had_out;
  ConnectionType expected;
};

class ClassifyTest : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(ClassifyTest, MatchesPaperTable) {
  const auto& c = GetParam();
  EXPECT_EQ(classify_observed(c.private_addr, c.had_in, c.had_out),
            c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Table, ClassifyTest,
    ::testing::Values(
        ClassifyCase{true, true, true, ConnectionType::kUpnp},
        ClassifyCase{true, false, true, ConnectionType::kNat},
        ClassifyCase{true, false, false, ConnectionType::kNat},
        ClassifyCase{false, true, true, ConnectionType::kDirect},
        ClassifyCase{false, false, true, ConnectionType::kFirewall},
        ClassifyCase{false, false, false, ConnectionType::kFirewall}));

TEST(ConnectivityTest, GroundTruthIsRecoverableWhenFullyObserved) {
  // A peer whose true type is T, observed with complete information
  // (reachable peers eventually receive an inbound partnership), classifies
  // back to T.
  EXPECT_EQ(classify_observed(uses_private_address(ConnectionType::kDirect),
                              true, true),
            ConnectionType::kDirect);
  EXPECT_EQ(classify_observed(uses_private_address(ConnectionType::kUpnp),
                              true, true),
            ConnectionType::kUpnp);
  EXPECT_EQ(classify_observed(uses_private_address(ConnectionType::kNat),
                              false, true),
            ConnectionType::kNat);
  EXPECT_EQ(classify_observed(
                uses_private_address(ConnectionType::kFirewall), false, true),
            ConnectionType::kFirewall);
}

}  // namespace
}  // namespace coolstream::net
