// gtest printer for ProtocolState: a failed EXPECT_EQ on two states
// prints each one's fields by name (ProtocolState::to_string) instead of
// a hex dump of its bytes, so the message names the field that diverged.
// Every test file that compares states includes it, so all of them
// print the same way.
#pragma once

#include <ostream>

#include "dv/state.hpp"

namespace dynvote {

inline void PrintTo(const ProtocolState& state, std::ostream* os) {
  *os << state.to_string();
}

}  // namespace dynvote
