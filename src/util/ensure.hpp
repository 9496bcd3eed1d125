// Invariant checking.
//
// The library throws InvariantViolation instead of aborting so that tests
// can assert on broken invariants and the consistency checker can report
// them as measurements (the inconsistent baseline protocols are *supposed*
// to misbehave; we observe, we don't crash).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dynvote {

/// Thrown when an internal invariant is violated. Indicates a bug in the
/// library (or a deliberately broken baseline doing something the correct
/// protocol never would).
class InvariantViolation : public std::logic_error {
 public:
  explicit InvariantViolation(const std::string& what) : std::logic_error(what) {}
};

/// Throws InvariantViolation annotated with the call site. Call it on the
/// failing branch where the message has to be formatted, so that passing
/// checks never build a string.
[[noreturn, gnu::cold, gnu::noinline]] inline void invariant_failed(
    std::string_view message,
    std::source_location loc = std::source_location::current()) {
  std::string what(loc.file_name());
  what += ':';
  what += std::to_string(loc.line());
  what += ": ";
  what += message;
  throw InvariantViolation(what);
}

/// Checks `condition`; throws InvariantViolation annotated with the call
/// site otherwise. Used for preconditions and internal invariants alike.
/// The message is a literal: a check that passes allocates nothing.
inline void ensure(bool condition, const char* message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] invariant_failed(message, loc);
}

}  // namespace dynvote
