// cross-shard-call fixtures.  The file name matters: "core/peer.cpp" is in
// the linter's parallel-phase set, where direct System::peer() lookups must
// go through the shard outbox.
//
// This file is lint-test data only — it is never compiled.

namespace coolstream::core {

struct Peer;
struct System {
  const Peer* peer(int id) const;
};

int racy(const System& sys, const System* sysp, int id) {
  const Peer* a = sys.peer(id);   // lint:expect(cross-shard-call)
  const Peer* b = sysp->peer(id);  // lint:expect(cross-shard-call)
  return (a != nullptr) + (b != nullptr);
}

const Peer* immutable_read(const System& sys, int id) {
  // Reads only construction-time fields of the target; provably serial.
  return sys.peer(id);  // lint:allow(cross-shard-call)
}

}  // namespace coolstream::core
