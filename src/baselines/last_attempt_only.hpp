// Baseline: record only the most recent attempt (paper section 4.6).
//
// The paper's strawman "trivial approach": keep the attempt step, but
// remember only the latest attempted session instead of the whole
// Ambiguous_Sessions list. Section 4.6 constructs a 5-process execution
// (sessions S1, S2, S3, S3') in which this forms two concurrent primary
// components; experiment E2 replays that execution verbatim.
//
// Implementation: the full basic protocol with the (deliberately
// unsound) ambiguous_record_limit knob set to 1.
#pragma once

#include "dv/basic_protocol.hpp"

namespace dynvote {

class LastAttemptOnlyProtocol : public BasicDvProtocol {
 public:
  LastAttemptOnlyProtocol(sim::Transport& transport, ProcessId id,
                          DvConfig config)
      : BasicDvProtocol(transport, id, with_limit(std::move(config))) {}

 private:
  static DvConfig with_limit(DvConfig config) {
    config.ambiguous_record_limit = 1;
    return config;
  }
};

}  // namespace dynvote
