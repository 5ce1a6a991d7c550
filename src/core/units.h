// Strong domain types for the protocol's dimensioned quantities.
//
// The paper's dynamics (Ineq. 1-2 buffer-lag triggers, Eq. 3 catch-up,
// Eq. 4 abandon, Eq. 5-6 competition) mix simulated time, block sequence
// numbers, sub-stream indices and bandwidth.  Representing all of them as
// bare `double` / `std::int64_t` lets a ticks/blocks or bits/bytes mix-up
// compile silently and surface only as a wrong Figure-3..10 curve.  This
// header makes such states unrepresentable: each quantity is a distinct
// type offering exactly the dimensionally meaningful operators
//
//   Tick      - Tick      -> Duration        (time points vs. spans)
//   Tick      +- Duration -> Tick
//   BlockIndex - BlockIndex -> BlockCount    (sequence points vs. spans)
//   BlockIndex +- BlockCount -> BlockIndex
//   BitRate   * Duration  -> Bytes           (and Bytes / Duration -> BitRate)
//   BlockRate * Duration  -> double blocks   (fluid data plane; fractional)
//
// and *no* cross-type comparison or implicit construction.  `value()` is
// the single escape hatch, and nothing converts implicitly (the
// compile-fail tier in tests/static pins that), so every unwrap — config
// parsing, CSV/log emission, the slab event engine's bucket math — is an
// explicit, greppable call.
//
// Zero overhead: every type is a trivially copyable standard-layout wrapper
// the size of its representation (static_assert-verified below), all
// operators are constexpr, so codegen is identical to raw integers and
// doubles.  This is the ns3::Time discipline scaled down to exactly the
// dimensions this reproduction needs.
//
// This header is layer-0 vocabulary: it includes nothing from the project
// and may be included from any layer (sim, net, core, model, ...).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <type_traits>

namespace coolstream::units {

// ---------------------------------------------------------------------------
// Time: Duration (span, seconds) and Tick (absolute simulation time point)
// ---------------------------------------------------------------------------

/// A span of simulated time, in seconds.
class Duration {
 public:
  Duration() = default;
  explicit constexpr Duration(double seconds) noexcept : v_(seconds) {}
  static constexpr Duration seconds(double s) noexcept { return Duration(s); }
  static constexpr Duration minutes(double m) noexcept {
    return Duration(m * 60.0);
  }
  static constexpr Duration hours(double h) noexcept {
    return Duration(h * 3600.0);
  }
  static constexpr Duration zero() noexcept { return Duration(0.0); }
  static constexpr Duration infinity() noexcept {
    return Duration(std::numeric_limits<double>::infinity());
  }
  /// Escape hatch: the raw number of seconds.
  constexpr double value() const noexcept { return v_; }

  friend constexpr bool operator==(Duration, Duration) noexcept = default;
  friend constexpr auto operator<=>(Duration, Duration) noexcept = default;

  constexpr Duration operator-() const noexcept { return Duration(-v_); }
  constexpr Duration& operator+=(Duration d) noexcept {
    v_ += d.v_;
    return *this;
  }
  constexpr Duration& operator-=(Duration d) noexcept {
    v_ -= d.v_;
    return *this;
  }
  constexpr Duration& operator*=(double k) noexcept {
    v_ *= k;
    return *this;
  }
  constexpr Duration& operator/=(double k) noexcept {
    v_ /= k;
    return *this;
  }

  friend constexpr Duration operator+(Duration a, Duration b) noexcept {
    return Duration(a.v_ + b.v_);
  }
  friend constexpr Duration operator-(Duration a, Duration b) noexcept {
    return Duration(a.v_ - b.v_);
  }
  friend constexpr Duration operator*(Duration d, double k) noexcept {
    return Duration(d.v_ * k);
  }
  friend constexpr Duration operator*(double k, Duration d) noexcept {
    return Duration(k * d.v_);
  }
  friend constexpr Duration operator/(Duration d, double k) noexcept {
    return Duration(d.v_ / k);
  }
  /// Ratio of two spans is dimensionless.
  friend constexpr double operator/(Duration a, Duration b) noexcept {
    return a.v_ / b.v_;
  }
  friend std::ostream& operator<<(std::ostream& os, Duration d) {
    return os << d.v_;
  }

 private:
  double v_ = 0.0;
};

/// An absolute point on the simulation clock, in seconds since time zero.
class Tick {
 public:
  Tick() = default;
  explicit constexpr Tick(double seconds) noexcept : v_(seconds) {}
  static constexpr Tick zero() noexcept { return Tick(0.0); }
  static constexpr Tick max() noexcept {
    return Tick(std::numeric_limits<double>::infinity());
  }
  /// Escape hatch: seconds since simulation start.
  constexpr double value() const noexcept { return v_; }

  friend constexpr bool operator==(Tick, Tick) noexcept = default;
  friend constexpr auto operator<=>(Tick, Tick) noexcept = default;

  constexpr Tick& operator+=(Duration d) noexcept {
    v_ += d.value();
    return *this;
  }
  constexpr Tick& operator-=(Duration d) noexcept {
    v_ -= d.value();
    return *this;
  }
  friend constexpr Tick operator+(Tick t, Duration d) noexcept {
    return Tick(t.v_ + d.value());
  }
  friend constexpr Tick operator+(Duration d, Tick t) noexcept {
    return Tick(t.v_ + d.value());
  }
  friend constexpr Tick operator-(Tick t, Duration d) noexcept {
    return Tick(t.v_ - d.value());
  }
  /// Distance between two time points.
  friend constexpr Duration operator-(Tick a, Tick b) noexcept {
    return Duration(a.v_ - b.v_);
  }
  friend std::ostream& operator<<(std::ostream& os, Tick t) {
    return os << t.v_;
  }

 private:
  double v_ = 0.0;
};

/// A Tick that may be absent, in the space of one Tick.  std::optional<Tick>
/// spends a flag byte plus 7 bytes of padding on presence; this one marks
/// "no value" with -infinity, which no simulated time can take (assigning
/// a Tick checks it).  It offers the subset the protocol uses: assign a
/// Tick, test presence, read the Tick.
class OptionalTick {
 public:
  OptionalTick() = default;
  /// Implicit, like std::optional's converting constructor, so a Tick
  /// assigns directly.
  constexpr OptionalTick(Tick t) noexcept : t_(t) {
    assert(t > kNone && "simulated time is finite");
  }

  constexpr bool has_value() const noexcept { return t_ != kNone; }
  explicit constexpr operator bool() const noexcept { return has_value(); }
  constexpr Tick operator*() const noexcept {
    assert(has_value());
    return t_;
  }

 private:
  static constexpr Tick kNone = Tick(-std::numeric_limits<double>::infinity());
  Tick t_ = kNone;
};

// ---------------------------------------------------------------------------
// Block sequence space: BlockCount (span) and BlockIndex (point)
// ---------------------------------------------------------------------------

/// A number of blocks (a span in sequence space).
class BlockCount {
 public:
  BlockCount() = default;
  explicit constexpr BlockCount(std::int64_t n) noexcept : v_(n) {}
  static constexpr BlockCount zero() noexcept { return BlockCount(0); }
  /// Escape hatch: the raw block count.
  constexpr std::int64_t value() const noexcept { return v_; }

  friend constexpr bool operator==(BlockCount, BlockCount) noexcept = default;
  friend constexpr auto operator<=>(BlockCount, BlockCount) noexcept = default;

  constexpr BlockCount operator-() const noexcept { return BlockCount(-v_); }
  constexpr BlockCount& operator+=(BlockCount c) noexcept {
    v_ += c.v_;
    return *this;
  }
  constexpr BlockCount& operator-=(BlockCount c) noexcept {
    v_ -= c.v_;
    return *this;
  }
  friend constexpr BlockCount operator+(BlockCount a, BlockCount b) noexcept {
    return BlockCount(a.v_ + b.v_);
  }
  friend constexpr BlockCount operator-(BlockCount a, BlockCount b) noexcept {
    return BlockCount(a.v_ - b.v_);
  }
  friend constexpr BlockCount operator*(BlockCount c, std::int64_t k) noexcept {
    return BlockCount(c.v_ * k);
  }
  friend constexpr BlockCount operator*(std::int64_t k, BlockCount c) noexcept {
    return BlockCount(k * c.v_);
  }
  friend constexpr BlockCount operator/(BlockCount c, std::int64_t k) noexcept {
    return BlockCount(c.v_ / k);
  }
  friend std::ostream& operator<<(std::ostream& os, BlockCount c) {
    return os << c.v_;
  }

 private:
  std::int64_t v_ = 0;
};

/// A position in a block sequence (per-sub-stream or interleaved global).
/// -1 is the protocol's "nothing yet" sentinel.
class BlockIndex {
 public:
  BlockIndex() = default;
  explicit constexpr BlockIndex(std::int64_t seq) noexcept : v_(seq) {}
  /// The protocol-wide "nothing received / not playing" sentinel.
  static constexpr BlockIndex none() noexcept { return BlockIndex(-1); }
  /// Escape hatch: the raw sequence number.
  constexpr std::int64_t value() const noexcept { return v_; }

  friend constexpr bool operator==(BlockIndex, BlockIndex) noexcept = default;
  friend constexpr auto operator<=>(BlockIndex, BlockIndex) noexcept = default;

  constexpr BlockIndex& operator+=(BlockCount c) noexcept {
    v_ += c.value();
    return *this;
  }
  constexpr BlockIndex& operator-=(BlockCount c) noexcept {
    v_ -= c.value();
    return *this;
  }
  constexpr BlockIndex& operator++() noexcept {
    ++v_;
    return *this;
  }
  constexpr BlockIndex& operator--() noexcept {
    --v_;
    return *this;
  }
  friend constexpr BlockIndex operator+(BlockIndex i, BlockCount c) noexcept {
    return BlockIndex(i.v_ + c.value());
  }
  friend constexpr BlockIndex operator-(BlockIndex i, BlockCount c) noexcept {
    return BlockIndex(i.v_ - c.value());
  }
  /// Distance between two sequence positions.
  friend constexpr BlockCount operator-(BlockIndex a, BlockIndex b) noexcept {
    return BlockCount(a.v_ - b.v_);
  }
  friend std::ostream& operator<<(std::ostream& os, BlockIndex i) {
    return os << i.v_;
  }

 private:
  std::int64_t v_ = 0;
};

// ---------------------------------------------------------------------------
// Identifiers: SubStreamId, PeerId, SessionId (no arithmetic at all)
// ---------------------------------------------------------------------------

/// Index of one of the K sub-streams, in [0, K).
class SubStreamId {
 public:
  SubStreamId() = default;
  explicit constexpr SubStreamId(int i) noexcept : v_(i) {}
  /// Escape hatch: the raw index.
  constexpr int value() const noexcept { return v_; }
  /// Container subscript for per-sub-stream arrays (dimensionally an
  /// identifier -> slot conversion, so not an escape hatch).
  constexpr std::size_t index() const noexcept {
    return static_cast<std::size_t>(v_);
  }

  friend constexpr bool operator==(SubStreamId, SubStreamId) noexcept =
      default;
  friend constexpr auto operator<=>(SubStreamId, SubStreamId) noexcept =
      default;
  /// Round-robin successor, used only by range iteration helpers.
  constexpr SubStreamId& operator++() noexcept {
    ++v_;
    return *this;
  }
  friend std::ostream& operator<<(std::ostream& os, SubStreamId i) {
    return os << i.v_;
  }

 private:
  int v_ = 0;
};

/// Dense node identifier (id 0 is the source by convention).
class PeerId {
 public:
  PeerId() = default;
  explicit constexpr PeerId(std::uint32_t id) noexcept : v_(id) {}
  static constexpr PeerId invalid() noexcept {
    return PeerId(std::numeric_limits<std::uint32_t>::max());
  }
  /// Escape hatch: the raw id.
  constexpr std::uint32_t value() const noexcept { return v_; }
  /// Container subscript for per-node arrays.
  constexpr std::size_t index() const noexcept { return v_; }

  friend constexpr bool operator==(PeerId, PeerId) noexcept = default;
  friend constexpr auto operator<=>(PeerId, PeerId) noexcept = default;
  friend std::ostream& operator<<(std::ostream& os, PeerId p) {
    return os << p.v_;
  }

 private:
  std::uint32_t v_ = 0;
};

/// Unique identifier of one viewing session (one join).
class SessionId {
 public:
  SessionId() = default;
  explicit constexpr SessionId(std::uint64_t id) noexcept : v_(id) {}
  static constexpr SessionId none() noexcept { return SessionId(0); }
  /// Escape hatch: the raw id.
  constexpr std::uint64_t value() const noexcept { return v_; }

  friend constexpr bool operator==(SessionId, SessionId) noexcept = default;
  friend constexpr auto operator<=>(SessionId, SessionId) noexcept = default;
  friend std::ostream& operator<<(std::ostream& os, SessionId s) {
    return os << s.v_;
  }

 private:
  std::uint64_t v_ = 0;
};

// ---------------------------------------------------------------------------
// Data volume and rates: Bytes, BitRate, BlockRate
// ---------------------------------------------------------------------------

/// A volume of payload data.
class Bytes {
 public:
  Bytes() = default;
  explicit constexpr Bytes(std::uint64_t n) noexcept : v_(n) {}
  static constexpr Bytes zero() noexcept { return Bytes(0); }
  /// Escape hatch: the raw byte count.
  constexpr std::uint64_t value() const noexcept { return v_; }

  friend constexpr bool operator==(Bytes, Bytes) noexcept = default;
  friend constexpr auto operator<=>(Bytes, Bytes) noexcept = default;

  constexpr Bytes& operator+=(Bytes b) noexcept {
    v_ += b.v_;
    return *this;
  }
  constexpr Bytes& operator-=(Bytes b) noexcept {
    v_ -= b.v_;
    return *this;
  }
  friend constexpr Bytes operator+(Bytes a, Bytes b) noexcept {
    return Bytes(a.v_ + b.v_);
  }
  friend constexpr Bytes operator-(Bytes a, Bytes b) noexcept {
    return Bytes(a.v_ - b.v_);
  }
  friend constexpr Bytes operator*(Bytes b, std::uint64_t k) noexcept {
    return Bytes(b.v_ * k);
  }
  friend constexpr Bytes operator*(std::uint64_t k, Bytes b) noexcept {
    return Bytes(k * b.v_);
  }
  friend std::ostream& operator<<(std::ostream& os, Bytes b) {
    return os << b.v_;
  }

 private:
  std::uint64_t v_ = 0;
};

/// A data rate in bits per second (the paper's R, capacities, ...).
class BitRate {
 public:
  BitRate() = default;
  explicit constexpr BitRate(double bps) noexcept : v_(bps) {}
  static constexpr BitRate zero() noexcept { return BitRate(0.0); }
  /// Escape hatch: the raw bits/second.
  constexpr double value() const noexcept { return v_; }

  friend constexpr bool operator==(BitRate, BitRate) noexcept = default;
  friend constexpr auto operator<=>(BitRate, BitRate) noexcept = default;

  friend constexpr BitRate operator+(BitRate a, BitRate b) noexcept {
    return BitRate(a.v_ + b.v_);
  }
  friend constexpr BitRate operator-(BitRate a, BitRate b) noexcept {
    return BitRate(a.v_ - b.v_);
  }
  friend constexpr BitRate operator*(BitRate r, double k) noexcept {
    return BitRate(r.v_ * k);
  }
  friend constexpr BitRate operator*(double k, BitRate r) noexcept {
    return BitRate(k * r.v_);
  }
  friend constexpr BitRate operator/(BitRate r, double k) noexcept {
    return BitRate(r.v_ / k);
  }
  /// Ratio of two rates is dimensionless.
  friend constexpr double operator/(BitRate a, BitRate b) noexcept {
    return a.v_ / b.v_;
  }
  /// Volume transferred at this rate over a span (bits -> bytes, floor).
  friend constexpr Bytes operator*(BitRate r, Duration d) noexcept {
    return Bytes(static_cast<std::uint64_t>(r.v_ * d.value() / 8.0));
  }
  friend constexpr Bytes operator*(Duration d, BitRate r) noexcept {
    return r * d;
  }
  friend std::ostream& operator<<(std::ostream& os, BitRate r) {
    return os << r.v_;
  }

 private:
  double v_ = 0.0;
};

/// Average rate over a span (volume / time).
constexpr BitRate rate_of(Bytes b, Duration d) noexcept {
  return BitRate(static_cast<double>(b.value()) * 8.0 / d.value());
}

/// A block rate in blocks per second (the fluid data plane's currency:
/// R expressed in blocks/s, the per-sub-stream rate R/K, Eq.-5 shares).
class BlockRate {
 public:
  BlockRate() = default;
  explicit constexpr BlockRate(double blocks_per_sec) noexcept
      : v_(blocks_per_sec) {}
  static constexpr BlockRate zero() noexcept { return BlockRate(0.0); }
  /// Escape hatch: the raw blocks/second.
  constexpr double value() const noexcept { return v_; }

  friend constexpr bool operator==(BlockRate, BlockRate) noexcept = default;
  friend constexpr auto operator<=>(BlockRate, BlockRate) noexcept = default;

  friend constexpr BlockRate operator+(BlockRate a, BlockRate b) noexcept {
    return BlockRate(a.v_ + b.v_);
  }
  friend constexpr BlockRate operator-(BlockRate a, BlockRate b) noexcept {
    return BlockRate(a.v_ - b.v_);
  }
  friend constexpr BlockRate operator*(BlockRate r, double k) noexcept {
    return BlockRate(r.v_ * k);
  }
  friend constexpr BlockRate operator*(double k, BlockRate r) noexcept {
    return BlockRate(k * r.v_);
  }
  friend constexpr BlockRate operator/(BlockRate r, double k) noexcept {
    return BlockRate(r.v_ / k);
  }
  /// Ratio of two rates is dimensionless.
  friend constexpr double operator/(BlockRate a, BlockRate b) noexcept {
    return a.v_ / b.v_;
  }
  /// Blocks produced over a span.  Fractional: the fluid model accumulates
  /// credit and materializes whole blocks (see core::System).
  friend constexpr double operator*(BlockRate r, Duration d) noexcept {
    return r.v_ * d.value();
  }
  friend constexpr double operator*(Duration d, BlockRate r) noexcept {
    return d.value() * r.v_;
  }
  friend std::ostream& operator<<(std::ostream& os, BlockRate r) {
    return os << r.v_;
  }

 private:
  double v_ = 0.0;
};

/// Average block rate over a span (span of sequence space / span of time).
constexpr BlockRate rate_of(BlockCount c, Duration d) noexcept {
  return BlockRate(static_cast<double>(c.value()) / d.value());
}

// ---------------------------------------------------------------------------
// Zero-overhead guarantees
// ---------------------------------------------------------------------------

#define COOLSTREAM_ASSERT_UNIT(T, Rep)                                       \
  static_assert(std::is_trivially_copyable_v<T>, #T " must be trivial");     \
  static_assert(std::is_standard_layout_v<T>, #T " must be POD-layout");     \
  static_assert(sizeof(T) == sizeof(Rep), #T " must cost nothing");          \
  static_assert(std::is_trivially_destructible_v<T>, #T " must be trivial")

COOLSTREAM_ASSERT_UNIT(Duration, double);
COOLSTREAM_ASSERT_UNIT(Tick, double);
COOLSTREAM_ASSERT_UNIT(OptionalTick, double);
COOLSTREAM_ASSERT_UNIT(BlockCount, std::int64_t);
COOLSTREAM_ASSERT_UNIT(BlockIndex, std::int64_t);
COOLSTREAM_ASSERT_UNIT(SubStreamId, int);
COOLSTREAM_ASSERT_UNIT(PeerId, std::uint32_t);
COOLSTREAM_ASSERT_UNIT(SessionId, std::uint64_t);
COOLSTREAM_ASSERT_UNIT(Bytes, std::uint64_t);
COOLSTREAM_ASSERT_UNIT(BitRate, double);
COOLSTREAM_ASSERT_UNIT(BlockRate, double);

#undef COOLSTREAM_ASSERT_UNIT

}  // namespace coolstream::units

/// PeerId and SessionId key hash containers (partner sets, session tables).
template <>
struct std::hash<coolstream::units::PeerId> {
  std::size_t operator()(coolstream::units::PeerId p) const noexcept {
    return std::hash<std::uint32_t>{}(p.value());
  }
};

template <>
struct std::hash<coolstream::units::SessionId> {
  std::size_t operator()(coolstream::units::SessionId s) const noexcept {
    return std::hash<std::uint64_t>{}(s.value());
  }
};
