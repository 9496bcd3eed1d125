// Unit + property tests for the delta-WAL persistence layer (dv/wal.hpp):
// delta codecs and replay equivalence, crash recovery after every commit
// (including mid-compaction), the replay-equals-snapshot cross-check,
// legacy snapshot compatibility, and per-step stable-write counts of the
// protocols.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/naive_dynamic.hpp"
#include "dv/basic_protocol.hpp"
#include "dv/state.hpp"
#include "dv/wal.hpp"
#include "harness/availability.hpp"
#include "harness/cluster.hpp"
#include "harness/schedule.hpp"
#include "sim/stable_storage.hpp"
#include "state_printers.hpp"
#include "util/ensure.hpp"

namespace dynvote {
namespace {

const ProcessId kSelf{0};

ProtocolState sample_state() {
  return ProtocolState::initial(ProcessSet::of({0, 1, 2, 3, 4}), kSelf);
}

std::vector<StateDelta> sample_deltas() {
  ParticipantTracker tracker =
      ParticipantTracker::initial(ProcessSet::of({0, 1, 2, 5}), kSelf);
  return {
      StateDelta::attempt(Session{ProcessSet::of({0, 1, 2}), 7}, 0),
      StateDelta::attempt(Session{ProcessSet::of({0, 1}), 9}, 2),
      StateDelta::form(Session{ProcessSet::of({0, 1, 2}), 8}),
      StateDelta::adopt(Session{ProcessSet::of({0, 2}), 10}),
      StateDelta::learned(7, ProcessId{2}, FormedKnowledge::kFormed),
      StateDelta::learned(9, ProcessId{1}, FormedKnowledge::kNotFormed),
      StateDelta::erase_ambiguous({7, 9}),
      StateDelta::merge_participants(tracker),
  };
}

TEST(StateDelta, EncodeDecodeRoundTripsEveryKind) {
  for (const StateDelta& delta : sample_deltas()) {
    Encoder enc;
    delta.encode(enc);
    Decoder dec(enc.bytes());
    const StateDelta back = StateDelta::decode(dec);
    EXPECT_TRUE(dec.exhausted());
    EXPECT_EQ(back, delta);
  }
}

TEST(StateDelta, DecodeRejectsUnknownKind) {
  // Kind byte 1 once named a bare Session_Number assignment that no
  // protocol staged; it is rejected like any byte outside the kinds.
  for (const std::uint8_t kind : {0x00, 0x01, 0x08, 0xEE}) {
    Encoder enc;
    enc.put_u8(kind);
    enc.put_i64(41);
    Decoder dec(enc.bytes());
    EXPECT_THROW(StateDelta::decode(dec), CodecError) << int{kind};
  }
}

TEST(StateDelta, DecodeRejectsErasedNumbersOutOfOrder) {
  // apply finds each erased record by binary search, so an erase record
  // whose numbers do not ascend strictly is malformed.
  for (const std::vector<SessionNumber>& numbers :
       {std::vector<SessionNumber>{9, 7}, std::vector<SessionNumber>{7, 7}}) {
    Encoder enc;
    StateDelta::erase_ambiguous(numbers).encode(enc);
    Decoder dec(enc.bytes());
    EXPECT_THROW(StateDelta::decode(dec), CodecError) << numbers[0];
  }
}

TEST(StateDelta, ApplyMirrorsTheStateMutators) {
  // Drive a state through every mutator while mirroring each mutation
  // with its delta on a replica; the trajectories must stay identical.
  ProtocolState live = sample_state();
  ProtocolState replica = live;
  auto mirror = [&](const StateDelta& delta) {
    delta.apply(replica, kSelf);
    ASSERT_EQ(replica, live);
  };

  const Session s1{ProcessSet::of({0, 1, 2}), 1};
  live.session_number = s1.number;
  live.record_attempt(s1, kSelf);
  mirror(StateDelta::attempt(s1, 0));

  const Session s2{ProcessSet::of({0, 1}), 2};
  live.session_number = s2.number;
  live.record_attempt(s2, kSelf);
  mirror(StateDelta::attempt(s2, 0));

  live.find_ambiguous(1)->set_knowledge(ProcessId{1}, FormedKnowledge::kFormed);
  mirror(StateDelta::learned(1, ProcessId{1}, FormedKnowledge::kFormed));

  live.adopt_formed(Session{ProcessSet::of({0, 1, 2}), 1});
  mirror(StateDelta::adopt(Session{ProcessSet::of({0, 1, 2}), 1}));

  const Session s3{ProcessSet::of({0, 3}), 3};
  live.session_number = s3.number;
  live.record_attempt(s3, kSelf);
  mirror(StateDelta::attempt(s3, 0));

  std::erase_if(live.ambiguous, [](const AmbiguousSession& a) {
    return a.session.number == 3;
  });
  mirror(StateDelta::erase_ambiguous({3}));

  const Session s4{ProcessSet::of({0, 1, 2, 3, 4}), 4};
  live.session_number = s4.number;
  live.apply_form(s4);
  mirror(StateDelta::form(s4));
}

TEST(StateDelta, AttemptReplaysTheUnsoundTruncation) {
  // A writer with an ambiguous-record limit truncates after recording;
  // the delta must reproduce exactly that (the LastAttemptOnly
  // baseline's persistence depends on it).
  ProtocolState live = sample_state();
  ProtocolState replica = live;
  for (SessionNumber n = 1; n <= 4; ++n) {
    const Session s{ProcessSet::of({0, static_cast<std::uint32_t>(n)}), n};
    live.session_number = n;
    live.record_attempt(s, kSelf);
    if (live.ambiguous.size() > 1) {
      live.ambiguous.erase(live.ambiguous.begin(), live.ambiguous.end() - 1);
    }
    StateDelta::attempt(s, 1).apply(replica, kSelf);
    ASSERT_EQ(replica, live);
  }
  EXPECT_EQ(live.ambiguous.size(), 1u);
}

TEST(Checkpoint, RoundTripsAndReadsLegacySnapshots) {
  ProtocolState state = sample_state();
  state.session_number = 12;
  state.record_attempt(Session{ProcessSet::of({0, 1, 2}), 12}, kSelf);

  Encoder enc;
  encode_checkpoint(enc, state, 77);
  const CheckpointRecord record = decode_checkpoint(enc.bytes());
  EXPECT_EQ(record.state, state);
  EXPECT_EQ(record.covers_lsn, 77u);

  // A raw ProtocolState (what snapshot mode and pre-WAL disks hold)
  // decodes through the same entry point, covering nothing.
  Encoder legacy;
  state.encode(legacy);
  const CheckpointRecord old = decode_checkpoint(legacy.bytes());
  EXPECT_EQ(old.state, state);
  EXPECT_EQ(old.covers_lsn, 0u);
}

TEST(Checkpoint, ConstructionCheckpointGrowsLinearlyInN) {
  // Every process writes this checkpoint at construction. With one copy
  // of the n-member start session per Last_Formed entry it grew with
  // n^2 (19x from n = 256 to n = 1024); stored once, it grows with n.
  auto checkpoint_bytes = [](std::uint32_t n) {
    Encoder enc;
    encode_checkpoint(
        enc, ProtocolState::initial(ProcessSet::range(n), ProcessId(0)), 0);
    return static_cast<double>(enc.size());
  };
  EXPECT_LT(checkpoint_bytes(1024), 8 * checkpoint_bytes(256));
}

/// Checkpoints written to `storage`: one at birth, then one per
/// compaction (every other write is a log append).
std::uint64_t checkpoints(const sim::StableStorage& storage) {
  return storage.writes() - storage.appends();
}

/// Recovers a second WalPersistence from a copy of `storage`, as a
/// restarted process would, and returns the state it reads; the writer
/// and its disk stay untouched.
ProtocolState recover_copy(const sim::StableStorage& storage) {
  sim::StableStorage disk;
  WalPersistence reader(disk, nullptr, "dv.state", kSelf, {}, sample_state());
  disk = storage;  // interned in the same order, so the key ids match
  EXPECT_TRUE(reader.recover());
  return reader.state();
}

TEST(WalPersistence, CrashAfterEveryCommitRecoversTheExactState) {
  sim::StableStorage storage;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, {}, sample_state());

  for (SessionNumber n = 1; n <= 160; ++n) {
    const Session s{ProcessSet::of({0, 1, static_cast<std::uint32_t>(n % 5)}),
                    n};
    wal.apply(StateDelta::attempt(s, 0));
    if (n % 3 == 0) {
      wal.apply(StateDelta::learned(n, ProcessId{1},
                                    FormedKnowledge::kNotFormed));
    }
    if (n % 7 == 0) wal.apply(StateDelta::form(s));
    wal.commit();

    // Crash here: a recovery over a copy of the disk must reproduce the
    // live state, whatever mix of checkpoint + log tail is on it.
    ASSERT_EQ(recover_copy(storage), wal.state()) << "after commit " << n;
  }
  // The loop must have crossed kMinCompactBytes more than once, or the
  // test proved nothing about checkpoint + tail recovery.
  EXPECT_GE(checkpoints(storage), 3u);
}

TEST(WalPersistence, MidCompactionCrashDoesNotDoubleApply) {
  sim::StableStorage storage;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, {}, sample_state());

  // Snapshot the disk in the window where the fresh checkpoint is
  // written but the log records it covers are still present.
  std::optional<sim::StableStorage> disk_at_crash;
  wal.set_before_truncate_hook([&] { disk_at_crash = storage; });

  SessionNumber n = 0;
  while (!disk_at_crash.has_value()) {
    ++n;
    ASSERT_LT(n, 1000) << "compaction never triggered";
    wal.apply(StateDelta::attempt(Session{ProcessSet::of({0, 1}), n}, 0));
    wal.commit();
  }

  // The captured disk really is mid-compaction: covered records remain.
  EXPECT_GT(disk_at_crash->log_bytes(disk_at_crash->intern("dv.state.wal")),
            0u);
  EXPECT_EQ(recover_copy(*disk_at_crash), wal.state());
}

TEST(WalPersistence, CommitsAfterAnInPlaceRecoveryExtendWhatItRead) {
  // A restarted process keeps writing through the object it recovered:
  // its next batches must replay on top of the checkpoint and log tail
  // it read, with compactions before and after the recovery.
  sim::StableStorage storage;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, {}, sample_state());

  for (SessionNumber n = 1; n <= 160; ++n) {
    wal.apply(StateDelta::attempt(Session{ProcessSet::of({0, 1}), n}, 0));
    if (n % 3 == 0) {
      wal.apply(StateDelta::learned(n, ProcessId{1},
                                    FormedKnowledge::kNotFormed));
    }
    wal.commit();
    if (n % 4 == 0) {
      const ProtocolState live = wal.state();
      ASSERT_TRUE(wal.recover());
      ASSERT_EQ(wal.state(), live) << "after commit " << n;
    }
    ASSERT_EQ(recover_copy(storage), wal.state()) << "after commit " << n;
  }
  EXPECT_GE(checkpoints(storage), 3u);
}

/// Rewrites the checkpoint on disk behind the WAL's back with `state`.
void tamper_checkpoint(sim::StableStorage& storage,
                       const ProtocolState& state) {
  Encoder enc;
  encode_checkpoint(enc, state, /*covers_lsn=*/0);
  storage.put(storage.intern("dv.state"), enc.bytes().data(), enc.size());
}

/// Commits, expects the cross-check to throw, and returns the text after
/// its "replayed: " and "live:     " labels.
std::pair<std::string, std::string> cross_check_lines(WalPersistence& wal) {
  try {
    wal.commit();
  } catch (const InvariantViolation& e) {
    const std::string what = e.what();
    auto line_after = [&what](const std::string& label) {
      const std::size_t at = what.find(label);
      EXPECT_NE(at, std::string::npos) << what;
      if (at == std::string::npos) return std::string();
      const std::size_t from = at + label.size();
      return what.substr(from, what.find('\n', from) - from);
    };
    return {line_after("replayed: "), line_after("live:     ")};
  }
  ADD_FAILURE() << "cross-check accepted a disk that differs from the state";
  return {};
}

TEST(WalPersistence, CrossCheckCatchesATamperedCheckpoint) {
  sim::StableStorage storage;
  PersistenceOptions options;  // cross_check on by default
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, options,
                     sample_state());

  ProtocolState tampered = sample_state();
  tampered.session_number = 9;
  tamper_checkpoint(storage, tampered);
  const auto [replayed, live] = cross_check_lines(wal);
  EXPECT_NE(replayed, live);
  EXPECT_EQ(replayed.rfind("sn=9 ", 0), 0u) << replayed;
  EXPECT_EQ(live.rfind("sn=0 ", 0), 0u) << live;
}

TEST(WalPersistence, CrossCheckShowsALastFormedDivergence) {
  // When replay and live state differ only in Last_Formed, the failure
  // text must show two different lines, not two identical ones.
  sim::StableStorage storage;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, {}, sample_state());

  ProtocolState tampered = sample_state();
  tampered.last_formed.assign(Session{ProcessSet::of({0, 1}), 3});
  tamper_checkpoint(storage, tampered);
  const auto [replayed, live] = cross_check_lines(wal);
  EXPECT_NE(replayed, live);
  EXPECT_NE(replayed.find("({p0,p1},3)"), std::string::npos) << replayed;
  EXPECT_EQ(live.find("({p0,p1},3)"), std::string::npos) << live;
}

TEST(WalPersistence, EmptyCommitWritesNothing) {
  sim::StableStorage storage;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, {}, sample_state());

  const std::uint64_t writes_before = storage.writes();
  wal.commit();  // nothing applied: the disk already covers the state
  wal.commit();
  EXPECT_EQ(storage.writes(), writes_before);
  EXPECT_EQ(wal.persists(), 2u);
}

TEST(WalPersistence, DestroyedDiskRestartsWithoutHistory) {
  // destroy() wipes checkpoint and log together; recovery sees footnote
  // 4's destroyed disk, not a torn state, and restarts from
  // after_disk_loss on a fresh checkpoint.
  sim::StableStorage storage;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, {}, sample_state());
  wal.apply(StateDelta::attempt(Session{ProcessSet::of({0, 1}), 3}, 0));
  wal.commit();
  const ProtocolState held = wal.state();

  storage.destroy();
  ProtocolState lost;
  EXPECT_FALSE(wal.recover(&lost));
  EXPECT_EQ(lost, held);
  EXPECT_EQ(wal.state(), ProtocolState::after_disk_loss(kSelf));
  // The fresh checkpoint is what the next recovery reads.
  EXPECT_TRUE(wal.recover());
  EXPECT_EQ(wal.state(), ProtocolState::after_disk_loss(kSelf));
}

TEST(WalPersistence, ReadsADiskWrittenInSnapshotMode) {
  // A disk written by the legacy snapshot path must be adoptable by a
  // WAL-mode recovery (rolling upgrade of the persistence format).
  sim::StableStorage storage;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, {}, sample_state());

  // A snapshot-mode writer replaces the checkpoint with a raw snapshot.
  PersistenceOptions snapshot;
  snapshot.mode = PersistenceMode::kSnapshot;
  ProtocolState state = sample_state();
  state.session_number = 5;
  state.record_attempt(Session{ProcessSet::of({0, 1, 2}), 5}, kSelf);
  WalPersistence old(storage, nullptr, "dv.state", kSelf, snapshot, state);

  ASSERT_TRUE(wal.recover());
  EXPECT_EQ(wal.state(), state);

  // And the adopted state keeps evolving through the WAL from there.
  wal.apply(StateDelta::attempt(Session{ProcessSet::of({0, 2}), 6}, 0));
  wal.commit();
  EXPECT_EQ(recover_copy(storage), wal.state());
}

TEST(WalPersistence, SnapshotModeKeepsTheLegacyByteFormat) {
  // Snapshot mode is the pre-WAL write path: the stored value must be
  // exactly ProtocolState::encode, with no checkpoint framing.
  sim::StableStorage storage;
  PersistenceOptions snapshot;
  snapshot.mode = PersistenceMode::kSnapshot;
  WalPersistence wal(storage, nullptr, "dv.state", kSelf, snapshot,
                     sample_state());
  wal.apply(StateDelta::form(Session{ProcessSet::of({0, 1, 2}), 1}));
  wal.commit();

  Encoder expected;
  wal.state().encode(expected);
  const std::vector<std::uint8_t>* stored =
      storage.value(storage.intern("dv.state"));
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, expected.bytes());
}

// ---- protocol-level coverage ---------------------------------------------

ClusterOptions cluster_options(ProtocolKind kind, std::uint32_t n,
                               std::uint64_t seed = 11) {
  ClusterOptions options;
  options.kind = kind;
  options.n = n;
  options.sim.seed = seed;
  return options;
}

std::uint64_t writes_of(Cluster& cluster, std::uint32_t p) {
  return cluster.sim().storage(ProcessId{p}).writes();
}

TEST(ProtocolPersistence, HappyPathStableWriteCountsPerStep) {
  // Section 4.4 demands one durable write per state-changing step and no
  // more. On the happy path (single view, one session) that is exactly:
  // the construction checkpoint, the attempt append, the form append.
  // A redundant persist or a missed elision changes these counts.
  for (const ProtocolKind kind :
       {ProtocolKind::kBasic, ProtocolKind::kOptimized,
        ProtocolKind::kCentralized, ProtocolKind::kThreePhaseRecovery}) {
    Cluster cluster(cluster_options(kind, 3));
    cluster.start();
    ASSERT_TRUE(cluster.live_primary().has_value());
    for (std::uint32_t p = 0; p < 3; ++p) {
      EXPECT_EQ(writes_of(cluster, p), 3u)
          << "protocol kind " << static_cast<int>(kind) << " process " << p;
    }
  }
}

TEST(ProtocolPersistence, NaiveWritesOneSnapshotAtBirthAndPerFormation) {
  // The naive baseline persists through WalPersistence in snapshot mode:
  // one stable write at construction and one per formed session, each
  // the raw ProtocolState encoding of its live state.
  Cluster cluster(cluster_options(ProtocolKind::kNaiveDynamic, 3));
  auto expect_snapshot = [&cluster](std::uint32_t p, std::uint64_t writes) {
    sim::StableStorage& storage = cluster.sim().storage(ProcessId{p});
    EXPECT_EQ(storage.writes(), writes) << "process " << p;
    Encoder expected;
    dynamic_cast<const NaiveDynamicProtocol&>(cluster.protocol(ProcessId{p}))
        .state()
        .encode(expected);
    const std::vector<std::uint8_t>* stored =
        storage.value(storage.intern("naive.state"));
    ASSERT_NE(stored, nullptr) << "process " << p;
    EXPECT_EQ(*stored, expected.bytes()) << "process " << p;
  };
  for (std::uint32_t p = 0; p < 3; ++p) expect_snapshot(p, 1);

  cluster.start();
  ASSERT_TRUE(cluster.live_primary().has_value());
  for (std::uint32_t p = 0; p < 3; ++p) expect_snapshot(p, 2);

  // Only the majority side forms again; the singleton writes nothing.
  cluster.partition({ProcessSet::of({0, 1}), ProcessSet::of({2})});
  cluster.settle();
  expect_snapshot(0, 3);
  expect_snapshot(1, 3);
  expect_snapshot(2, 2);
}

TEST(ProtocolPersistence, ThreePhasePersistsParticipantMergeBeforePropose) {
  // Regression for a missed persist: with dynamic participants, the
  // decision step of the three-phase baseline merges the W/A sets, and
  // those must be durable before the propose round exposes them — one
  // extra stable write in the joining session (merge commit + attempt +
  // form), not two (which would mean the merge rode along with the
  // attempt, i.e. was sent before it was durable).
  ClusterOptions options =
      cluster_options(ProtocolKind::kThreePhaseRecovery, 3);
  options.config.dynamic_participants = true;
  Cluster cluster(options);
  cluster.start();
  ASSERT_TRUE(cluster.live_primary().has_value());
  const std::uint64_t before = writes_of(cluster, 0);

  cluster.add_process(ProcessId{3});
  cluster.merge();
  cluster.settle();
  ASSERT_EQ(cluster.live_primary()->members, ProcessSet::range(4));
  EXPECT_EQ(writes_of(cluster, 0) - before, 3u);
  EXPECT_TRUE(cluster.checker().check_all().empty());
}

TEST(ProtocolPersistence, DiskLossRecoveryStartsAFreshCheckpoint) {
  Cluster cluster(cluster_options(ProtocolKind::kOptimized, 5));
  cluster.start();
  cluster.sim().crash_and_destroy_disk(ProcessId{4});
  cluster.settle();
  cluster.recover(ProcessId{4});
  cluster.merge();
  cluster.settle();
  EXPECT_TRUE(cluster.checker().check_all().empty());
  EXPECT_TRUE(cluster.live_primary().has_value());
}

class PersistenceChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PersistenceChurnProperty, WalSurvivesCrashesAndKeepsC1) {
  // Churn with crashes and recoveries, WAL persistence and the
  // replay-equals-snapshot cross-check both on (the defaults): every
  // recovery replays checkpoint + log tail, every persist is audited,
  // and C1 must hold throughout.
  ScheduleOptions schedule_options;
  schedule_options.seed = 5'000 + GetParam();
  schedule_options.duration = SimTime{400'000};
  schedule_options.mean_event_gap = 60'000;
  const auto schedule =
      generate_schedule(ProcessSet::range(8), schedule_options);

  Cluster cluster(
      cluster_options(ProtocolKind::kOptimized, 8, GetParam()));
  sim::Simulator& sim = cluster.sim();
  enqueue_schedule(cluster, schedule);
  cluster.merge();
  cluster.settle();
  EXPECT_TRUE(cluster.checker().check_all().empty());
  // WAL appends happened (we exercised the log path, not just
  // checkpoints).
  EXPECT_GT(sim.metrics().counter_value("dv.storage.wal_appends"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PersistenceChurnProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

}  // namespace
}  // namespace dynvote
