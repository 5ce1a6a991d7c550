// Shard-purity scope fixture: mutable-global and static-local-state apply
// to every module under src/, the simulation engine included.  A sharded
// run ticks one System's shards on several workers, and any of the
// constructs below would be one instance that all of them share.
//
// This file is lint-test data only — it is never compiled.

namespace coolstream::sim {

long g_events_fired = 0;  // lint:expect(mutable-global)

// Immutable namespace-scope objects are fine: shards may share constants.
constexpr int kArity = 4;

long next_handle() {
  static long handle = 0;  // lint:expect(static-local-state)
  return ++handle;
}

}  // namespace coolstream::sim
