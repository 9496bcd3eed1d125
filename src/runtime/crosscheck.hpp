// Cross-check harness: the DES as oracle for the wall-clock runtime.
//
// The argument that makes the comparison sound: the session protocols
// wait for *all* view members in every phase, so a session's outcome
// depends only on the view and the per-phase message sets — never on
// arrival order within a phase. The DES and the pool drive the identical
// topology script through one view-announcement rule (ViewAnnouncer,
// membership/view.hpp, behind MembershipOracle in the DES and
// RuntimeFleet in the pool) and run each step to a fixed point (settle /
// quiesce) with no message loss, so they install the same view sequence
// at every process and therefore form the same primaries with the same
// session numbers, memberships, and round counts. run_scenario() makes
// that equality executable: one seeded generate_schedule script, the
// DES and the pool at several worker counts, transcripts written by one
// function (append_outcome_line), digest comparison plus per-step C1
// checks.
//
// Scope: the deterministic-outcome argument covers the quiescent
// protocols (kBasic, kOptimized, and the other all-member-wait
// variants). It does NOT cover kCentralized (coordinator election's
// tie-breaks are timing-dependent across transports) — the harness
// rejects kinds outside the allow-list rather than report spurious
// divergence.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dv/service.hpp"
#include "harness/schedule.hpp"

namespace dynvote::runtime {

/// Runs `script` on the DES (message delays seeded by `seed`), applying
/// each event with apply_event and settling after it, and returns its
/// outcome transcript, written like RuntimeFleet::outcome_summary() by
/// append_outcome_line, folding the per-step C1 checks into `c1_clean`.
/// Every fleet that replays the same script must reproduce it byte for
/// byte.
[[nodiscard]] std::string des_summary(
    ProtocolKind kind, std::uint32_t n, std::uint64_t seed,
    const std::vector<ScheduleEvent>& script, bool& c1_clean);

/// Where two outcome transcripts first differ. An entry is one
/// space-separated token of a line append_outcome_line writes: the
/// "p3:" label (entry 0), a view install "V2={p0,p3}", a formation
/// "F2r2={p0,p3}", the "|" separator, and the final state
/// "primary=..." and "formed=...".
struct TranscriptDiff {
  /// The process of the first line that differs: the DES line's label,
  /// or the pool line's where the DES transcript has no such line.
  std::string process;
  /// Index of the first differing entry within that line.
  std::size_t entry = 0;
  /// The entry on each side; empty where that side's line ends first.
  std::string des;
  std::string pool;

  /// "p3 entry 2: DES `F2r2={p0,p3}`, pool `|`" (a missing entry
  /// reads "none").
  [[nodiscard]] std::string to_string() const;
};

/// Compares two transcripts line by line and entry by entry; nullopt
/// when they are equal.
[[nodiscard]] std::optional<TranscriptDiff> diff_transcripts(
    const std::string& des, const std::string& pool);

/// One pool execution of the scenario at a given worker count.
struct PoolCheck {
  std::uint32_t workers = 0;
  std::uint64_t digest = 0;
};

struct CrossCheckResult {
  std::uint64_t seed = 0;
  std::uint64_t sim_digest = 0;
  /// Pool digests, one per worker count run. Determinism demands
  /// byte-identity at ANY W, so these must all equal sim_digest.
  std::vector<PoolCheck> pool;
  /// True only when every run agrees: DES == pool at every worker count
  /// (summaries, not just hashes).
  bool digests_equal = false;
  /// C1 held (<= 1 distinct live primary session) at every quiescent
  /// point of every execution.
  bool c1_clean = false;
  /// The DES transcript, for diagnostics when digests diverge.
  std::string sim_summary;
  /// First divergent pool transcript (empty when all pool runs agree).
  std::string pool_divergent_summary;
  /// That run's worker count (0 when all agree) and the first entry
  /// where its transcript leaves the DES's.
  std::uint32_t divergent_workers = 0;
  std::optional<TranscriptDiff> divergence;
};

/// Runs the first `steps` events of generate_schedule's script for
/// (n, seed), each to quiescence before the next, on the DES and on the
/// pool runtime once per entry of `pool_workers`, plus once at W = n
/// (one process per worker thread) unless the list already has it, and
/// compares outcomes.
/// Throws InvariantViolation for protocol kinds outside the
/// deterministic-outcome allow-list. `probes` turns wall-clock probe
/// rings on in the runtime fleets — outcomes must be identical either
/// way, which is how the digest-neutrality of the probe layer is
/// asserted (probes-on digest == probes-off digest == DES digest).
[[nodiscard]] CrossCheckResult run_scenario(
    ProtocolKind kind, std::uint32_t n, std::uint64_t seed,
    std::size_t steps = 10, bool probes = false,
    const std::vector<std::uint32_t>& pool_workers = {1, 2, 4});

}  // namespace dynvote::runtime
