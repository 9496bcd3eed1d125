// Strong identifier types used throughout the library.
//
// The C++ Core Guidelines (I.4, Con.1) advise strongly-typed interfaces;
// we wrap raw integers so a ProcessId cannot be confused with a ViewId or
// a session number at compile time.
#pragma once

#include <charconv>
#include <compare>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>

namespace dynvote {

/// A process (site) identifier. Processes are named by small integers in
/// the simulator; the protocol itself only requires a total "linear order"
/// over identifiers (paper section 4.1), which operator<=> provides.
class ProcessId {
 public:
  constexpr ProcessId() noexcept = default;
  constexpr explicit ProcessId(std::uint32_t value) noexcept : value_(value) {}

  [[nodiscard]] constexpr std::uint32_t value() const noexcept { return value_; }

  constexpr auto operator<=>(const ProcessId&) const noexcept = default;

 private:
  std::uint32_t value_ = 0;
};

/// Process ids lie in [0, kProcessIdLimit). An id only ranks a process in
/// the linear order, and a run names a fixed core plus the section-6
/// joiners, so 2^20 ids leave room for any fleet. ProcessSet (whose
/// bitset spans the highest member) and the codec reject larger ids.
inline constexpr std::uint32_t kProcessIdLimit = 1u << 20;

/// A membership-view identifier. Views are produced by the membership
/// oracle with globally increasing ids; protocol messages carry the view
/// id they were sent in so stale traffic can be discarded (paper 3.1).
class ViewId {
 public:
  constexpr ViewId() noexcept = default;
  constexpr explicit ViewId(std::uint64_t value) noexcept : value_(value) {}

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] constexpr bool valid() const noexcept { return value_ != 0; }

  constexpr auto operator<=>(const ViewId&) const noexcept = default;

 private:
  std::uint64_t value_ = 0;  // 0 means "no view yet".
};

/// Session numbers as used by the protocol (paper 4.2). They start at 0
/// for core members, -1 for late joiners, and only ever increase
/// (paper Lemma 1).
using SessionNumber = std::int64_t;

/// Session number of a process outside the core group before it joins.
inline constexpr SessionNumber kNoSessionNumber = -1;

/// Simulated time, in integer "ticks" (interpreted as microseconds by the
/// delay constants; the unit is irrelevant to correctness).
using SimTime = std::uint64_t;

inline constexpr SimTime kSimTimeMax = std::numeric_limits<SimTime>::max();

/// Appends `v` in decimal, the text std::to_string gives, with no
/// temporary string.
inline void append_decimal(std::string& out, std::int64_t v) {
  char digits[24];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), v);
  out.append(digits, end);
}

[[nodiscard]] inline std::string to_string(ProcessId p) {
  return "p" + std::to_string(p.value());
}

[[nodiscard]] inline std::string to_string(ViewId v) {
  return "v" + std::to_string(v.value());
}

}  // namespace dynvote

template <>
struct std::hash<dynvote::ProcessId> {
  std::size_t operator()(const dynvote::ProcessId& p) const noexcept {
    return std::hash<std::uint32_t>{}(p.value());
  }
};

template <>
struct std::hash<dynvote::ViewId> {
  std::size_t operator()(const dynvote::ViewId& v) const noexcept {
    return std::hash<std::uint64_t>{}(v.value());
  }
};
