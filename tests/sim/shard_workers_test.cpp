#include "sim/shard_workers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace coolstream::sim {
namespace {

TEST(ShardWorkersTest, RunsEveryShardExactlyOncePerRun) {
  for (const std::size_t shards : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "shards=" << shards);
    ShardWorkers workers(shards);
    EXPECT_EQ(workers.shard_count(), shards);
    std::vector<std::atomic<int>> hits(shards);
    workers.run([&hits](std::size_t s) { hits[s].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ShardWorkersTest, ShardZeroRunsOnTheCallingThread) {
  ShardWorkers workers(4);
  std::vector<std::thread::id> ran_on(4);
  workers.run([&ran_on](std::size_t s) { ran_on[s] = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  for (std::size_t s = 1; s < ran_on.size(); ++s) {
    EXPECT_NE(ran_on[s], std::this_thread::get_id()) << "shard " << s;
  }
}

TEST(ShardWorkersTest, OneShardStartsNoThread) {
  ShardWorkers workers(1);
  std::thread::id ran_on;
  workers.run([&ran_on](std::size_t s) {
    EXPECT_EQ(s, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  // A plain call: the exception reaches the caller unwrapped.
  EXPECT_THROW(workers.run([](std::size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
}

TEST(ShardWorkersTest, ZeroShardsIsRejected) {
  EXPECT_THROW(ShardWorkers(0), std::invalid_argument);
}

TEST(ShardWorkersTest, ReusableOverManyRuns) {
  ShardWorkers workers(3);
  std::vector<int> hits(3, 0);  // plain ints: each shard writes its own slot
  constexpr int kRuns = 1000;
  for (int run = 0; run < kRuns; ++run) {
    workers.run([&hits](std::size_t s) { ++hits[s]; });
  }
  for (const int h : hits) EXPECT_EQ(h, kRuns);
}

TEST(ShardWorkersTest, ThrowInOneShardIsRethrownAndLaterRunsAreClean) {
  ShardWorkers workers(4);
  std::vector<std::atomic<int>> hits(4);
  try {
    workers.run([&hits](std::size_t s) {
      hits[s].fetch_add(1);
      if (s == 2) throw std::runtime_error("shard 2");
    });
    FAIL() << "run() swallowed the shard's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "shard 2");
  }
  // The other shards still ran to completion.
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  workers.run([&hits](std::size_t s) { hits[s].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ShardWorkersTest, LowestThrowingShardWins) {
  ShardWorkers workers(8);
  for (int round = 0; round < 50; ++round) {
    // Alternate between a worker shard and the caller's own shard 0.
    const std::size_t lowest = round % 2 == 0 ? 3 : 0;
    try {
      workers.run([lowest](std::size_t s) {
        if (s == lowest || s >= 5) {
          throw std::runtime_error("shard " + std::to_string(s));
        }
      });
      FAIL() << "run() swallowed the shards' exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "shard " + std::to_string(lowest));
    }
  }
  workers.run([](std::size_t) {});  // every captured error was consumed
}

}  // namespace
}  // namespace coolstream::sim
