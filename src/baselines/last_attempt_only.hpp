// Baseline: record only the most recent attempt (paper section 4.6).
//
// The paper's strawman "trivial approach": keep the attempt step, but
// remember only the latest attempted session instead of the whole
// Ambiguous_Sessions list. Section 4.6 constructs a 5-process execution
// (sessions S1, S2, S3, S3') in which this forms two concurrent primary
// components; experiment E2 replays that execution verbatim.
//
// Implementation: the full basic protocol with its (deliberately
// unsound) ambiguous-record limit set to 1.
#pragma once

#include "dv/basic_protocol.hpp"

namespace dynvote {

class LastAttemptOnlyProtocol : public BasicDvProtocol {
 public:
  using BasicDvProtocol::BasicDvProtocol;

 protected:
  [[nodiscard]] std::size_t ambiguous_record_limit() const override {
    return 1;
  }
};

}  // namespace dynvote
