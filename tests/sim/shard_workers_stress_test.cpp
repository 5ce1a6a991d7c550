// ShardWorkers handoff stress: thousands of run() waves whose shards write
// plain, non-atomic per-shard slots that the calling thread reads and
// rewrites between waves, with a planted throw every few waves.  The
// assertions are ordinary, but the real consumer is TSan —
// tools/run_sanitized_tests.sh SAN=thread --quick runs this suite, and any
// gap in the std::barrier happens-before edge (the one the sharded tick's
// scratch and outboxes rely on) is reported as a data race on the slots.
#include "sim/shard_workers.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace coolstream::sim {
namespace {

TEST(ShardWorkersStressTest, PlainSlotsPublishedAcrossWaves) {
  constexpr std::size_t kShards = 4;
  constexpr int kWaves = 4000;
  constexpr int kThrowEvery = 97;
  ShardWorkers workers(kShards);
  // Per shard: a value the caller seeds before each wave and the shard
  // advances during it.
  std::vector<std::uint64_t> slots(kShards, 0);
  int rethrown = 0;
  for (int wave = 1; wave <= kWaves; ++wave) {
    for (std::size_t s = 0; s < kShards; ++s) {
      slots[s] = static_cast<std::uint64_t>(wave) * 16 + s;
    }
    const bool planted = wave % kThrowEvery == 0;
    try {
      workers.run([&slots, planted](std::size_t s) {
        slots[s] = slots[s] * 3 + 1;
        if (planted && s == kShards - 1) throw std::runtime_error("planted");
      });
    } catch (const std::runtime_error&) {
      ++rethrown;
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(slots[s], (static_cast<std::uint64_t>(wave) * 16 + s) * 3 + 1)
          << "wave " << wave << " shard " << s;
    }
  }
  EXPECT_EQ(rethrown, kWaves / kThrowEvery);
}

}  // namespace
}  // namespace coolstream::sim
