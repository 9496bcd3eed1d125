// dvbench: reconfiguration latency on the pool runtime, the DES cost of
// the same script, and KV availability under churn, each split into the
// layers that produce it. README.md has the workload rationale and the
// metric -> layer -> end-to-end map.
//
//   dvbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// --seconds sets the script length (each workload's nominal verb rate
// times S), so one seed and one length give one input on every host.
// Human-readable "metric NAME VALUE UNIT" lines come first; the last line
// of stdout is the JSON result. With --trace 1 a probes-on pass runs
// after the untraced one and, with --out, writes a span file and a probe
// document per workload.
//
// Every call into the library goes through adapter.hpp.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "adapter.hpp"

namespace dvbench {
namespace {

// ---------------------------------------------------------------- inputs --

/// splitmix64 (Steele, Lea & Flood): the benchmark's own generator, so a
/// change to the library's Rng cannot change a workload.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound); the modulo bias is below 2^-50 here.
  std::uint32_t below(std::uint64_t bound) {
    return static_cast<std::uint32_t>(next() % bound);
  }

 private:
  std::uint64_t state_;
};

template <typename T>
void shuffle(std::vector<T>& items, SplitMix64& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.below(i)]);
  }
}

/// The seed permutes process ids inside fixed-size carves: each block of
/// consecutive positions shuffles its own ids, and only among ids of
/// equal residue mod 3. The pool places process i on worker i % W, so at
/// W = 3 every seed gives each carve the same members per worker and the
/// same id order relative to the other carves: the seed decides which id
/// plays which role, not how much work there is or where it runs.
constexpr std::uint32_t kCarveStride = 3;

std::vector<std::uint32_t> carve_permutation(
    const std::vector<std::uint32_t>& blocks, SplitMix64& rng) {
  std::vector<std::uint32_t> perm;
  std::uint32_t base = 0;
  for (const std::uint32_t size : blocks) {
    perm.resize(base + size);
    for (std::uint32_t r = 0; r < kCarveStride; ++r) {
      std::vector<std::uint32_t> positions;
      for (std::uint32_t p = base; p < base + size; ++p) {
        if (p % kCarveStride == r) positions.push_back(p);
      }
      std::vector<std::uint32_t> ids = positions;
      shuffle(ids, rng);
      for (std::size_t k = 0; k < positions.size(); ++k) {
        perm[positions[k]] = ids[k];
      }
    }
    base += size;
  }
  return perm;
}

std::vector<std::uint32_t> sorted(std::vector<std::uint32_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

struct Script {
  std::uint32_t n = 0;
  std::vector<Verb> verbs;  // prefix, then body
  std::size_t prefix = 0;   // untimed: cascade and warm-up
  /// Per verb, the component the script says must form (sorted); empty
  /// where the protocol decides (kv-churn), and then the DES replay is
  /// the oracle the pool is held to.
  std::vector<std::vector<std::uint32_t>> expect;
  bool kv = false;
  std::vector<std::uint32_t> op_process;  // kv: the client's op table
  std::vector<std::uint32_t> op_key;
};

constexpr std::size_t kKeys = 256;
constexpr std::size_t kOpTable = 1 << 16;

/// c5-n16: 9/7 majority/minority partition alternating with a merge.
Script make_c5(std::uint64_t seed, std::size_t body) {
  Script s;
  s.n = 16;
  SplitMix64 rng(seed);
  const std::vector<std::uint32_t> perm = carve_permutation({9, 7}, rng);
  Verb split;
  split.kind = Verb::Kind::kPartition;
  split.groups.resize(2);
  for (std::uint32_t pos = 0; pos < s.n; ++pos) {
    split.groups[pos < 9 ? 0 : 1].push_back(perm[pos]);
  }
  const std::vector<std::uint32_t> majority = sorted(split.groups[0]);
  const std::vector<std::uint32_t> everyone = sorted(perm);
  s.prefix = 500;
  for (std::size_t i = 0; i < s.prefix + body; ++i) {
    if (i % 2 == 0) {
      s.verbs.push_back(split);
      s.expect.push_back(majority);
    } else {
      s.verbs.push_back(Verb{});
      s.expect.push_back(everyone);
    }
  }
  return s;
}

/// handover-n256: the lineage shape of bench_runtime's scaling phase. A
/// majority-halving cascade shrinks the primary to 33 members; then the
/// quorum alternates between two carves that overlap in 32, while the
/// other 223 processes sit in inert groups of at most 32 that re-view on
/// every verb.
Script make_handover(std::uint64_t seed, std::size_t body) {
  constexpr std::uint32_t kInert = 32;
  constexpr std::uint32_t kQuorum = 33;
  Script s;
  s.n = 256;
  SplitMix64 rng(seed);
  // The lineage's 34 positions, then the inert groups' blocks of 32.
  const std::vector<std::uint32_t> perm =
      carve_permutation({34, 32, 32, 32, 32, 32, 32, 30}, rng);
  const auto carve = [&](std::uint32_t lo, std::uint32_t q) {
    Verb v;
    v.kind = Verb::Kind::kPartition;
    v.groups.resize(1);
    std::vector<std::uint32_t> rest;
    for (std::uint32_t pos = 0; pos < s.n; ++pos) {
      (pos >= lo && pos < lo + q ? v.groups[0] : rest).push_back(perm[pos]);
    }
    for (std::size_t j = 0; j < rest.size(); j += kInert) {
      v.groups.emplace_back(rest.begin() + static_cast<std::ptrdiff_t>(j),
                            rest.begin() + static_cast<std::ptrdiff_t>(
                                               std::min(j + kInert,
                                                        rest.size())));
    }
    s.expect.push_back(sorted(v.groups[0]));
    s.verbs.push_back(std::move(v));
  };
  std::uint32_t q = s.n;
  while (q > kQuorum) {
    q = q / 2 + 1;
    carve(0, q);
  }
  const std::size_t warmup = 50;
  s.prefix = s.verbs.size() + warmup;
  for (std::size_t i = 0; i < warmup + body; ++i) {
    carve(i % 2 == 0 ? 1 : 0, q);
  }
  return s;
}

/// kv-churn-n64: a fixed cycle of verb kinds (two- and three-way random
/// partitions, merges, crashes and recoveries) with seeded members, so
/// every seed has the same mix of work; the client's op table rides
/// along.
Script make_kv(std::uint64_t seed, std::size_t body) {
  enum Step { kSplit2, kSplit3, kMerge, kCrash, kRecover };
  static constexpr std::array<Step, 8> kCycle = {
      kSplit2, kCrash, kMerge, kSplit3, kCrash, kRecover, kMerge, kRecover};
  Script s;
  s.n = 64;
  s.kv = true;
  SplitMix64 rng(seed);
  std::vector<bool> alive(s.n, true);
  const auto pick = [&](bool want_alive) {
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t p = 0; p < s.n; ++p) {
      if (alive[p] == want_alive) candidates.push_back(p);
    }
    return candidates[rng.below(candidates.size())];
  };
  s.prefix = 40;
  for (std::size_t i = 0; i < s.prefix + body; ++i) {
    Verb v;
    switch (kCycle[i % kCycle.size()]) {
      case kSplit2:
      case kSplit3: {
        const std::size_t k = kCycle[i % kCycle.size()] == kSplit2 ? 2 : 3;
        std::vector<std::uint32_t> ids(s.n);
        for (std::uint32_t p = 0; p < s.n; ++p) ids[p] = p;
        shuffle(ids, rng);
        v.kind = Verb::Kind::kPartition;
        v.groups.resize(k);
        // Each group gets one member; the rest land uniformly.
        for (std::size_t j = 0; j < ids.size(); ++j) {
          v.groups[j < k ? j : rng.below(k)].push_back(ids[j]);
        }
        for (auto& g : v.groups) g = sorted(std::move(g));
        break;
      }
      case kMerge:
        v.kind = Verb::Kind::kMerge;
        break;
      case kCrash:
        v.kind = Verb::Kind::kCrash;
        v.process = pick(true);
        alive[v.process] = false;
        break;
      case kRecover:
        v.kind = Verb::Kind::kRecover;
        v.process = pick(false);
        alive[v.process] = true;
        break;
    }
    s.verbs.push_back(std::move(v));
    s.expect.emplace_back();
  }
  for (std::size_t i = 0; i < kOpTable; ++i) {
    s.op_process.push_back(rng.below(s.n));
    s.op_key.push_back(rng.below(kKeys));
  }
  return s;
}

std::uint64_t input_digest(const Script& s) {
  std::string text = "n=" + std::to_string(s.n) +
                     " prefix=" + std::to_string(s.prefix) + "\n";
  for (std::size_t i = 0; i < s.verbs.size(); ++i) {
    const Verb& v = s.verbs[i];
    text += verb_name(v.kind);
    if (v.kind == Verb::Kind::kCrash || v.kind == Verb::Kind::kRecover) {
      text += " " + std::to_string(v.process);
    }
    for (const auto& g : v.groups) {
      text += " {";
      for (const std::uint32_t p : g) text += std::to_string(p) + ",";
      text += "}";
    }
    text += " expect";
    for (const std::uint32_t p : s.expect[i]) text += " " + std::to_string(p);
    text += "\n";
  }
  for (std::size_t i = 0; i < s.op_process.size(); ++i) {
    text += std::to_string(s.op_process[i]) + ":" +
            std::to_string(s.op_key[i]) + " ";
  }
  return fnv1a(text);
}

// ----------------------------------------------------------------- clocks --

std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t wall_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Moves the calling thread round-robin over the CPUs it may use, one
/// slice of wall time each.
///
/// The DES is one thread of memory-bound work. On a host whose CPUs are
/// shared with other tenants, some CPUs run such code up to ~50% slower
/// than others at any moment, and which ones changes over minutes, so a
/// replay that stays where the scheduler put it measures its CPU's luck.
/// Rotating makes every replay's CPU figures an average over all of them.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Call between units of work; moves on once the slice has elapsed.
  void tick() {
    if (cpus_.size() < 2) return;
    const std::uint64_t now = wall_ns();
    if (now - moved_ns_ < kSliceNs) return;
    moved_ns_ = now;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  /// Gives the thread back every CPU it started with. Threads it creates
  /// inherit its affinity, so call this before starting a pool fleet.
  void release() {
    if (moved_ns_ == 0) return;
    sched_setaffinity(0, sizeof saved_, &saved_);
    moved_ns_ = 0;
  }

 private:
  static constexpr std::uint64_t kSliceNs = 10'000'000;
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::uint64_t moved_ns_ = 0;
};

/// Linear interpolation between order statistics; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

template <typename T>
std::vector<double> as_doubles(const std::vector<T>& v, double scale = 1) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const T x : v) out.push_back(static_cast<double>(x) * scale);
  return out;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// -------------------------------------------------------------------- DES --

constexpr std::size_t kKinds = 4;

/// Verbs arrive every kVerbEvery virtual ticks and the KV client writes
/// every kWriteEvery ticks, whatever state the protocol is in (open
/// loop). No verb here takes longer than the cadence to settle (view
/// detection <= 800 ticks plus two rounds of <= 160); a slower one would
/// only push the next verb back.
constexpr std::uint64_t kVerbEvery = 1500;
constexpr std::uint64_t kWriteEvery = 10;

struct DesRun {
  double setup_s = 0;
  std::vector<double> verb_cpu_us;  // body verbs
  std::array<std::vector<double>, kKinds> kind_cpu_us;
  double script_cpu_s = 0;  // the body's CPU
  double advance_s = 0;     // inside the simulator's event loop
  std::vector<double> reconfig_ticks;
  std::vector<std::vector<std::uint32_t>> forming;  // per verb, the oracle
  Counters counters;                                // body delta
  // App layer (kv-churn):
  double sync_s = 0;
  std::vector<double> write_ns;  // one per client write
  std::uint64_t refused = 0;
  std::vector<double> no_primary_ticks;
  double kv_audit_ms = 0;
  // Correctness:
  std::uint64_t digest = 0;
  std::size_t issued = 0;
  std::size_t failed = 0;
  std::size_t errors = 0;
};

/// The script replayed on the DES: set-up (construct, start, prefix) in
/// the constructor, then the body a slice at a time, so that the replay
/// can be spread over the whole run between pool rounds. Each body verb's
/// CPU runs from the topology change until the system settled (on
/// kv-churn, until the next verb is due); folding, C1 and the oracle are
/// outside it.
class DesReplay {
 public:
  DesReplay(const Script& s, std::uint64_t seed)
      : s_(s), des_(s.n, seed, /*wal_audit=*/false, s.kv), transcript_(s.n) {
    des_.start();
    (void)des_.fold(transcript_);
    for (std::size_t k = 0; k < kKeys; ++k) {
      keys_.push_back("k" + std::to_string(k));
    }
    while (next_ < s_.prefix) step(next_++);
    rotation_.release();
    out_.setup_s = static_cast<double>(wall_ns() - start_ns_) / 1e9;
    before_ = des_.counters();
  }

  /// Replays the next `verbs` body verbs.
  void play(std::size_t verbs) {
    for (std::size_t k = 0; k < verbs && next_ < s_.verbs.size(); ++k) {
      step(next_++);
    }
    rotation_.release();  // threads created next inherit the full mask
  }

  DesRun finish() {
    play(s_.verbs.size() - next_);
    const Counters after = des_.counters();
    out_.counters = Counters{after.sent - before_.sent,
                             after.delivered - before_.delivered,
                             after.bytes - before_.bytes,
                             after.events - before_.events,
                             after.persists - before_.persists,
                             after.wal_bytes - before_.wal_bytes,
                             after.checkpoints - before_.checkpoints};
    out_.errors += des_.checker_violations();
    if (s_.kv) {
      const std::uint64_t a0 = thread_cpu_ns();
      out_.errors += des_.kv_audit();
      out_.kv_audit_ms = static_cast<double>(thread_cpu_ns() - a0) / 1e6;
    }
    des_.finish(transcript_);
    out_.digest = transcript_.digest();
    return std::move(out_);
  }

 private:
  void step(std::size_t i) {
    const bool timed = i >= s_.prefix;
    rotation_.tick();
    const Verb& verb = s_.verbs[i];
    const std::uint64_t t_verb = des_.now();
    std::uint64_t advance_ns = 0;
    std::uint64_t sync_ns = 0;
    std::vector<std::pair<std::uint64_t, std::int64_t>> accepted;
    const std::uint64_t cpu0 = thread_cpu_ns();
    des_.apply(verb);
    if (!s_.kv) {
      const std::uint64_t a0 = wall_ns();
      des_.settle();
      advance_ns = wall_ns() - a0;
    } else {
      bool synced = false;
      while (!des_.idle() || des_.now() < t_verb + kVerbEvery) {
        rotation_.tick();
        const std::uint64_t a0 = wall_ns();
        des_.advance(kWriteEvery);
        const std::uint64_t a1 = wall_ns();
        advance_ns += a1 - a0;
        const std::size_t slot = op_++ % s_.op_process.size();
        const std::int64_t session = des_.write(
            s_.op_process[slot], keys_[s_.op_key[slot]], std::to_string(op_));
        const std::uint64_t w1 = wall_ns();
        if (timed) {
          out_.write_ns.push_back(static_cast<double>(w1 - a1));
          if (session < 0) {
            ++out_.refused;
          } else {
            accepted.emplace_back(des_.now(), session);
          }
        }
        if (!synced && des_.idle()) {
          des_.sync_primary();
          synced = true;
          sync_ns = wall_ns() - w1;
        }
      }
    }
    const std::uint64_t cpu = thread_cpu_ns() - cpu0;

    const DesCluster::Formation formation = des_.fold(transcript_);
    ++out_.issued;
    if (!s_.expect[i].empty() && formation.formed != s_.expect[i]) {
      ++out_.failed;
    }
    if (des_.distinct_primaries() > 1) ++out_.errors;
    out_.forming.push_back(formation.formed);
    if (!timed) return;
    out_.verb_cpu_us.push_back(static_cast<double>(cpu) / 1e3);
    out_.kind_cpu_us[static_cast<std::size_t>(verb.kind)].push_back(
        static_cast<double>(cpu) / 1e3);
    out_.script_cpu_s += static_cast<double>(cpu) / 1e9;
    out_.advance_s += static_cast<double>(advance_ns) / 1e9;
    out_.sync_s += static_cast<double>(sync_ns) / 1e9;
    if (formation.formed.empty()) return;
    out_.reconfig_ticks.push_back(
        static_cast<double>(formation.last_formed - t_verb));
    for (const auto& [at, session] : accepted) {
      if (session == formation.session) {
        out_.no_primary_ticks.push_back(static_cast<double>(at - t_verb));
        break;
      }
    }
  }

  const std::uint64_t start_ns_ = wall_ns();  // first: times construction
  const Script& s_;
  CpuRotation rotation_;
  DesCluster des_;
  Transcript transcript_;
  std::vector<std::string> keys_;
  std::size_t next_ = 0;  // next verb to replay
  std::size_t op_ = 0;    // next entry of the op table
  Counters before_;
  DesRun out_;
};

/// CPU of the first `verbs` verbs with the WAL replay audit on, over the
/// same verbs with it off, minus one. The two clusters take turns, a
/// tenth of the verbs at a time, so both see the same host without
/// evicting each other's caches on every verb. Untimed by other metrics.
double wal_audit_frac(const Script& s, std::uint64_t seed, std::size_t verbs) {
  std::array<DesCluster, 2> des{DesCluster(s.n, seed, false, /*kv=*/false),
                                DesCluster(s.n, seed, true, /*kv=*/false)};
  std::array<double, 2> cpu{};
  CpuRotation rotation;
  for (DesCluster& d : des) d.start();
  verbs = std::min(verbs, s.verbs.size());
  const std::size_t turn = std::max<std::size_t>(1, verbs / 10);
  for (std::size_t from = 0; from < verbs; from += turn) {
    for (std::size_t k = 0; k < des.size(); ++k) {
      const std::uint64_t c0 = thread_cpu_ns();
      for (std::size_t i = from; i < std::min(from + turn, verbs); ++i) {
        rotation.tick();
        des[k].apply(s.verbs[i]);
        des[k].settle();
      }
      cpu[k] += static_cast<double>(thread_cpu_ns() - c0);
    }
  }
  return ratio(cpu[1], cpu[0]) - 1;
}

// ------------------------------------------------------------------- pool --

/// Pool fleets fold their per-process trace sinks every
/// kFoldProcessVerbs / n verbs, outside the timed windows. A sink holds
/// at most 65,536 events, and each event carries a member set of up to n
/// ids, so the interval shrinks with n to bound memory.
constexpr std::size_t kFoldProcessVerbs = 4096;
/// Probe-ring entries per lane in the traced pass (32 bytes each).
constexpr std::size_t kProbeCapacity = 1 << 16;

/// One pool verb as observed; held to the DES oracle at the end of the
/// run, when the interleaved DES replay has caught up.
struct PoolVerb {
  std::size_t index = 0;              // in the script
  std::vector<std::uint32_t> formed;  // who formed during the verb
  Stamp critical;                     // the last of them to form
  std::uint64_t t0 = 0;               // verb issued
  std::uint64_t ret = 0;              // verb returned (quiescent)
};

struct Span {
  std::size_t verb = 0;
  Verb::Kind kind = Verb::Kind::kMerge;
  std::uint64_t t0 = 0, view = 0, attempt = 0, formed = 0, ret = 0;
  Phases phases;
};

struct PoolRun {
  std::vector<double> setup_s;
  std::vector<PoolVerb> verbs;       // every round, every verb
  std::vector<std::size_t> rounds;   // end of each round's verbs
  std::vector<double> latency_ms, view_ms, round1_ms, round2_ms, tail_ms;
  std::vector<std::vector<double>> round_latency_ms;
  std::vector<std::size_t> sample_verb;  // script index of each sample
  double busy_s = 0;  // sum of body verb durations (issue -> quiescent)
  std::size_t timed_verbs = 0;
  std::uint64_t views = 0, rejected = 0;
  Counters counters;  // body delta, summed over rounds
  std::vector<std::uint64_t> digests;
  std::size_t issued = 0;
  std::size_t failed = 0;
  std::size_t errors = 0;
};

struct TracedRun {
  std::string probe_path;  // where to write the probe document, or empty
  std::vector<double> latency_ms;
  std::vector<Span> spans;
  ProbeTally tally;
  std::size_t timed_verbs = 0;
};

/// One fresh pool fleet replaying the script: set-up (construct, start,
/// prefix) in the constructor, then the body. With a TracedRun, probes
/// are on and every forming verb's window is attributed on its critical
/// lane.
class PoolReplay {
 public:
  PoolReplay(const Script& s, std::uint32_t workers, TracedRun* traced)
      : s_(s),
        traced_(traced),
        fleet_(s.n, workers, traced ? kProbeCapacity : 0),
        transcript_(s.n),
        formed_count_(s.n, 0),
        alive_(s.n, true),
        fold_every_(std::max<std::size_t>(1, kFoldProcessVerbs / s.n)) {
    fleet_.start();
    for (std::uint32_t p = 0; p < s_.n; ++p) {
      formed_count_[p] = fleet_.stamp(p).formed;
    }
    while (next_ < s_.prefix) step(next_++);
    setup_s_ = static_cast<double>(wall_ns() - start_ns_ - folding_ns_) / 1e9;
    fleet_.fold(transcript_);
    before_ = fleet_.counters();
    sum_stamps(views0_, rejected0_);
    if (traced_) {
      ProbeTally prefix;  // the tally starts at the body
      (void)fleet_.attribute({}, prefix);
    }
  }

  [[nodiscard]] double setup_s() const { return setup_s_; }

  /// Replays the next `verbs` body verbs.
  void play(std::size_t verbs) {
    for (std::size_t k = 0; k < verbs && next_ < s_.verbs.size(); ++k) {
      step(next_++);
    }
  }

  /// Stops the fleet and adds its figures to `out`.
  void finish(PoolRun& out) {
    if (traced_) {
      if (!pending_.empty()) attribute();
      if (!traced_->probe_path.empty() &&
          fleet_.write_probe_document(traced_->probe_path)) {
        std::printf("probes %s\n", traced_->probe_path.c_str());
      }
    }
    const Counters after = fleet_.counters();
    out.counters.sent += after.sent - before_.sent;
    out.counters.delivered += after.delivered - before_.delivered;
    std::uint64_t views = 0, rejected = 0;
    sum_stamps(views, rejected);
    out.views += views - views0_;
    out.rejected += rejected - rejected0_;
    out.timed_verbs += timed_verbs_;
    out.busy_s += busy_s_;
    out.errors += split_brains_;
    for (PoolVerb& v : verbs_) out.verbs.push_back(std::move(v));
    out.rounds.push_back(out.verbs.size());
    fleet_.finish(transcript_);
    out.digests.push_back(transcript_.digest());
  }

 private:
  void sum_stamps(std::uint64_t& views, std::uint64_t& rejected) const {
    views = rejected = 0;
    for (std::uint32_t p = 0; p < s_.n; ++p) {
      const Stamp st = fleet_.stamp(p);
      views += st.views;
      rejected += st.rejected;
    }
  }

  void step(std::size_t i) {
    const bool timed = i >= s_.prefix;
    if (i > 0 && i % fold_every_ == 0) {
      const std::uint64_t f0 = wall_ns();
      fleet_.fold(transcript_);
      if (!timed) folding_ns_ += wall_ns() - f0;
    }
    if (traced_ && timed && since_snapshot_ >= snapshot_every_) attribute();

    const Verb& verb = s_.verbs[i];
    PoolVerb v;
    v.index = i;
    v.t0 = fleet_.apply(verb);
    v.ret = fleet_.now_ns();
    if (verb.kind == Verb::Kind::kCrash) alive_[verb.process] = false;
    if (verb.kind == Verb::Kind::kRecover) alive_[verb.process] = true;

    // Who formed in this verb, the last of them, and C1.
    std::uint32_t critical_id = 0;
    std::int64_t primary = -1;
    bool split_brain = false;
    for (std::uint32_t p = 0; p < s_.n; ++p) {
      const Stamp st = fleet_.stamp(p);
      if (st.formed != formed_count_[p]) {
        formed_count_[p] = st.formed;
        v.formed.push_back(p);
        if (st.formed_ns >= v.critical.formed_ns) {
          v.critical = st;
          critical_id = p;
        }
      }
      if (alive_[p] && st.primary >= 0) {
        split_brain |= primary >= 0 && primary != st.primary;
        primary = st.primary;
      }
    }
    split_brains_ += split_brain ? 1 : 0;
    if (timed) {
      ++timed_verbs_;
      busy_s_ += static_cast<double>(v.ret - v.t0) / 1e9;
      ++since_snapshot_;
      if (traced_) ++traced_->timed_verbs;
      if (traced_ && !v.formed.empty()) {
        traced_->latency_ms.push_back(
            static_cast<double>(v.critical.formed_ns - v.t0) / 1e6);
        traced_->spans.push_back(Span{i, verb.kind, v.t0, v.critical.view_ns,
                                      v.critical.attempt_ns,
                                      v.critical.formed_ns, v.ret, Phases{}});
        pending_.push_back(
            Window{v.t0, v.critical.formed_ns, critical_id, verb.kind});
      }
    }
    verbs_.push_back(std::move(v));
  }

  void attribute() {
    const std::uint64_t seen = traced_->tally.entries;
    const std::vector<Phases> phases = fleet_.attribute(pending_, traced_->tally);
    const std::size_t first = traced_->spans.size() - phases.size();
    for (std::size_t k = 0; k < phases.size(); ++k) {
      traced_->spans[first + k].phases = phases[k];
    }
    // Snapshot often enough that no lane wraps between two snapshots.
    const double per_verb =
        static_cast<double>(traced_->tally.entries - seen) /
        static_cast<double>(std::max<std::size_t>(1, since_snapshot_)) /
        static_cast<double>(fleet_.workers());
    snapshot_every_ = std::clamp<std::size_t>(
        static_cast<std::size_t>(kProbeCapacity / 4 / std::max(per_verb, 1.0)),
        1, 256);
    pending_.clear();
    since_snapshot_ = 0;
  }

  const std::uint64_t start_ns_ = wall_ns();  // first: times construction
  const Script& s_;
  TracedRun* traced_;
  PoolFleet fleet_;
  Transcript transcript_;
  std::vector<std::uint64_t> formed_count_;  // observer formations seen
  std::vector<bool> alive_;
  const std::size_t fold_every_;
  std::uint64_t folding_ns_ = 0;  // prefix folds, not part of set-up
  double setup_s_ = 0;
  std::size_t next_ = 0;  // next verb to replay
  Counters before_;
  std::uint64_t views0_ = 0, rejected0_ = 0;
  std::vector<PoolVerb> verbs_;
  std::size_t timed_verbs_ = 0;
  double busy_s_ = 0;
  std::size_t split_brains_ = 0;
  std::vector<Window> pending_;
  std::size_t snapshot_every_ = 1, since_snapshot_ = 0;
};

/// Holds every pool verb to the DES oracle and turns the body verbs that
/// formed what the DES formed into latency samples split by layer.
void score(PoolRun& pool, const Script& s,
           const std::vector<std::vector<std::uint32_t>>& oracle) {
  pool.round_latency_ms.assign(pool.rounds.size(), {});
  std::size_t round = 0;
  for (std::size_t k = 0; k < pool.verbs.size(); ++k) {
    const PoolVerb& v = pool.verbs[k];
    while (k >= pool.rounds[round]) ++round;
    ++pool.issued;
    if (v.formed != oracle[v.index]) {
      ++pool.failed;
      continue;
    }
    if (v.index < s.prefix || v.formed.empty()) continue;
    const Stamp& c = v.critical;
    pool.sample_verb.push_back(v.index);
    pool.latency_ms.push_back(static_cast<double>(c.formed_ns - v.t0) / 1e6);
    pool.round_latency_ms[round].push_back(pool.latency_ms.back());
    pool.view_ms.push_back(static_cast<double>(c.view_ns - v.t0) / 1e6);
    pool.round1_ms.push_back(static_cast<double>(c.attempt_ns - c.view_ns) /
                             1e6);
    pool.round2_ms.push_back(static_cast<double>(c.formed_ns - c.attempt_ns) /
                             1e6);
    pool.tail_ms.push_back(static_cast<double>(v.ret - c.formed_ns) / 1e6);
  }
  pool.verbs.clear();
}

// ------------------------------------------------------------------ spans --

/// Chrome trace-event file: one root span per traced verb (args.id = the
/// verb's index in the script) with the layer spans as children; the
/// root's args carry its self time and the probe attribution.
bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  char buf[512];
  const auto us = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  bool comma = false;
  const auto event = [&](const char* name, const char* cat, std::uint64_t a,
                         std::uint64_t b, const std::string& args) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{%s}}",
                  comma ? ",\n" : "", name, cat, us(a),
                  us(b > a ? b - a : 0), args.c_str());
    out << buf;
    comma = true;
  };
  for (const Span& s : spans) {
    const std::array<std::pair<const char*, std::array<std::uint64_t, 2>>, 4>
        children = {{{"membership.view_install", {s.t0, s.view}},
                     {"dv.round1", {s.view, s.attempt}},
                     {"dv.round2", {s.attempt, s.formed}},
                     {"runtime.quiesce_tail", {s.formed, s.ret}}}};
    std::uint64_t child_ns = 0;
    for (const auto& [name, t] : children) {
      child_ns += t[1] > t[0] ? t[1] - t[0] : 0;
    }
    const Phases& p = s.phases;
    std::snprintf(
        buf, sizeof buf,
        "\"id\":%zu,\"verb\":\"%s\",\"self_us\":%.3f,\"queued_us\":%.3f,"
        "\"parked_us\":%.3f,\"executing_us\":%.3f,\"timer_slop_us\":%.3f,"
        "\"unattributed_us\":%.3f",
        s.verb, verb_name(s.kind), us(s.ret - s.t0) - us(child_ns),
        us(p.queued), us(p.parked), us(p.executing), us(p.slop),
        us(p.unattributed));
    event("verb", "verb", s.t0, s.ret, buf);
    const std::string parent = "\"parent\":" + std::to_string(s.verb);
    for (const auto& [name, t] : children) {
      event(name, "layer", t[0], t[1], parent);
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// -------------------------------------------------------------- workloads --

struct Workload {
  const char* name;
  /// Timed script verbs per second of --seconds (one replay).
  double body_per_second;
  std::size_t cycle;         // body length is a multiple of this
  std::size_t pool_rounds;   // fresh pool fleets replaying the script
  std::size_t audit_verbs;   // DES prefix replayed with/without the audit
  Script (*make)(std::uint64_t seed, std::size_t body);
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"c5-n16", 2000.0 / 3, 2, 3, 1000, make_c5},
    {"handover-n256", 15, 2, 4, 13, make_handover},
    {"kv-churn-n64", 40, 8, 3, 100, make_kv},
}};

/// The metrics BENCHMARK.json names: end-to-end ones form the result of
/// an untraced run, per-layer ones the result of a traced run.
constexpr std::array<const char*, 7> kEndToEnd = {
    "setup_s",          "reconfig_p50_ms",      "reconfig_tail_ms",
    "verbs_per_s",      "des_verb_cpu_p50_us",  "des_verbs_per_cpu_s",
    "peak_rss_mb"};
constexpr std::array<const char*, 32> kPerLayer = {
    "membership.view_install_p50_ms", "membership.views_per_verb",
    "dv.round1_p50_ms",               "dv.round2_p50_ms",
    "dv.rejected_per_verb",           "dv.persists_per_verb",
    "dv.wal_bytes_per_verb",          "dv.checkpoints_per_verb",
    "dv.reconfig_ticks_p50",          "dv.partition_cpu_p50_us",
    "dv.wal_audit_cpu_frac",          "runtime.quiesce_tail_p50_ms",
    "runtime.msgs_per_verb",          "runtime.delivered_frac",
    "sim.events_per_verb",            "sim.msgs_per_verb",
    "sim.bytes_per_verb",             "sim.cpu_ns_per_event",
    "sim.advance_us_per_verb",        "app.ops_per_verb",
    "app.sync_frac",                  "runtime.queued_frac",
    "runtime.parked_frac",            "runtime.executing_frac",
    "runtime.timer_slop_frac",        "runtime.unattributed_frac",
    "runtime.wakeup_p50_us",          "runtime.parks_per_verb",
    "runtime.handler_p50_us",         "runtime.batch_size_p50",
    "runtime.spills_per_verb",        "obs.trace_overhead_frac"};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] const Metric* find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  [[nodiscard]] const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

std::uint32_t pool_workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) cpus = CPU_COUNT(&set);
  // The controller thread is the fourth: W + 1 <= nproc.
  return static_cast<std::uint32_t>(std::clamp(cpus - 1, 1, 3));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out;
};

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "dvbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const std::size_t cycles = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(w->body_per_second * args.seconds /
                          static_cast<double>(w->cycle))));
  const std::size_t body = cycles * w->cycle;
  const Script script = w->make(args.seed, body);
  const std::uint32_t workers = pool_workers();
  // The DES's message-delay and membership-delay draws.
  const std::uint64_t des_seed = SplitMix64(args.seed ^ 0xD5u).next();

  std::printf("workload %s seed %llu body %zu prefix %zu workers %u\n",
              w->name, static_cast<unsigned long long>(args.seed), body,
              script.prefix, workers);
  std::printf("input_digest %016llx\n",
              static_cast<unsigned long long>(input_digest(script)));
  std::fflush(stdout);

  // The DES body is cut into one slice per pool round, played after it,
  // so both backends sample the whole run rather than one its first
  // seconds and the other the rest: the host's speed drifts. Each pool
  // body stays contiguous after its own warm-up; splitting it too would
  // time verbs that wake a fleet which sat idle through a DES slice.
  DesReplay des_replay(script, des_seed);
  PoolRun pool;
  for (std::size_t r = 0; r < w->pool_rounds; ++r) {
    {
      PoolReplay round(script, workers, nullptr);
      pool.setup_s.push_back(round.setup_s());
      round.play(body);
      round.finish(pool);
    }
    des_replay.play((r + 1) * body / w->pool_rounds - r * body / w->pool_rounds);
  }
  const DesRun des = des_replay.finish();
  score(pool, script, des.forming);

  TracedRun traced;
  const std::size_t traced_body = std::max<std::size_t>(w->cycle, body / 4);
  double audit_frac = 0;
  if (args.trace) {
    audit_frac = wal_audit_frac(script, des_seed, w->audit_verbs);
    if (!args.out.empty()) {
      std::filesystem::create_directories(args.out);
      traced.probe_path = args.out + "/" + w->name + ".probes.json";
    }
    // A quarter-length replay: its transcript is shorter than the DES's,
    // so only its per-verb checks count.
    PoolRun scratch;
    PoolReplay round(script, workers, &traced);
    round.play(traced_body);
    round.finish(scratch);
    score(scratch, script, des.forming);
    pool.issued += scratch.issued;
    pool.failed += scratch.failed;
    pool.errors += scratch.errors;
  }

  // -- correctness ------------------------------------------------------------
  std::size_t mismatches = 0;
  for (const std::uint64_t d : pool.digests) mismatches += d != des.digest;
  const std::size_t errors = des.errors + pool.errors + mismatches;
  const std::size_t issued = des.issued + pool.issued;
  const std::size_t failed = des.failed + pool.failed;
  std::printf("transcript_digest %016llx (DES; %zu pool replays, %zu "
              "mismatched)\n",
              static_cast<unsigned long long>(des.digest), pool.digests.size(),
              mismatches);

  // -- metrics ----------------------------------------------------------------
  Metrics m;
  const std::size_t samples = pool.latency_ms.size();
  // The tail is taken within each fleet, at the highest percentile that
  // leaves >= 10 of its samples beyond, and the median over fleets is
  // reported: a p99 over ~20 ms of a run's slowest verbs otherwise reads
  // whichever fleet met a stall of the host.
  const bool p99 = samples >= 1000 * pool.round_latency_ms.size();
  std::vector<double> round_tails;
  for (const std::vector<double>& round : pool.round_latency_ms) {
    round_tails.push_back(quantile(round, p99 ? 0.99 : 0.90));
  }
  m.add("setup_s", quantile(pool.setup_s, 0.5) + des.setup_s, "s");
  m.add("reconfig_p50_ms", quantile(pool.latency_ms, 0.5), "ms");
  m.add("reconfig_tail_ms", quantile(round_tails, 0.5), "ms");
  m.add("verbs_per_s", ratio(static_cast<double>(pool.timed_verbs), pool.busy_s),
        "1/s");
  // Median over script cycles (c5: a partition and a merge) of the CPU
  // per verb: a median over single verbs would fall between the kinds'
  // costs whenever the script alternates kinds evenly.
  std::vector<double> cycle_cpu_us;
  for (std::size_t i = 0; i + w->cycle <= des.verb_cpu_us.size(); i += w->cycle) {
    double sum = 0;
    for (std::size_t j = i; j < i + w->cycle; ++j) sum += des.verb_cpu_us[j];
    cycle_cpu_us.push_back(sum / static_cast<double>(w->cycle));
  }
  m.add("des_verb_cpu_p50_us", quantile(cycle_cpu_us, 0.5), "us");
  const double des_body = static_cast<double>(body);
  m.add("des_verbs_per_cpu_s", ratio(des_body, des.script_cpu_s), "1/s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");

  m.add("setup_pool_s", quantile(pool.setup_s, 0.5), "s");
  m.add("setup_des_s", des.setup_s, "s");
  m.add("reconfig_samples", static_cast<double>(samples), "count");
  m.add("reconfig_p90_ms", quantile(pool.latency_ms, 0.90), "ms");
  m.add("reconfig_p99_ms", quantile(pool.latency_ms, 0.99), "ms");
  m.add("reconfig_tail_percentile", p99 ? 99 : 90, "pct");
  m.add("verb_fail_frac",
        ratio(static_cast<double>(failed), static_cast<double>(issued)),
        "frac");
  m.add("correctness_errors", static_cast<double>(errors), "count");

  const double pool_verbs = static_cast<double>(pool.timed_verbs);
  m.add("membership.view_install_p50_ms", quantile(pool.view_ms, 0.5), "ms");
  m.add("membership.views_per_verb",
        ratio(static_cast<double>(pool.views), pool_verbs), "count");
  m.add("dv.round1_p50_ms", quantile(pool.round1_ms, 0.5), "ms");
  m.add("dv.round2_p50_ms", quantile(pool.round2_ms, 0.5), "ms");
  m.add("dv.rejected_per_verb",
        ratio(static_cast<double>(pool.rejected), pool_verbs), "count");
  m.add("dv.persists_per_verb",
        ratio(static_cast<double>(des.counters.persists), des_body), "count");
  m.add("dv.wal_bytes_per_verb",
        ratio(static_cast<double>(des.counters.wal_bytes), des_body), "B");
  m.add("dv.checkpoints_per_verb",
        ratio(static_cast<double>(des.counters.checkpoints), des_body),
        "count");
  m.add("dv.reconfig_ticks_p50", quantile(des.reconfig_ticks, 0.5), "ticks");
  for (std::size_t k = 0; k < kKinds; ++k) {
    const auto kind = static_cast<Verb::Kind>(k);
    // A verb kind the workload does not issue has no metric.
    if (kind != Verb::Kind::kPartition && des.kind_cpu_us[k].empty()) continue;
    m.add(std::string("dv.") + verb_name(kind) + "_cpu_p50_us",
          quantile(des.kind_cpu_us[k], 0.5), "us");
  }
  m.add("dv.wal_audit_cpu_frac", audit_frac, "frac");
  m.add("runtime.quiesce_tail_p50_ms", quantile(pool.tail_ms, 0.5), "ms");
  m.add("runtime.msgs_per_verb",
        ratio(static_cast<double>(pool.counters.sent), pool_verbs), "count");
  m.add("runtime.delivered_frac",
        ratio(static_cast<double>(pool.counters.delivered),
              static_cast<double>(pool.counters.sent)),
        "frac");
  m.add("sim.events_per_verb",
        ratio(static_cast<double>(des.counters.events), des_body), "count");
  m.add("sim.msgs_per_verb",
        ratio(static_cast<double>(des.counters.sent), des_body), "count");
  m.add("sim.bytes_per_verb",
        ratio(static_cast<double>(des.counters.bytes), des_body), "B");
  m.add("sim.cpu_ns_per_event",
        ratio(des.script_cpu_s * 1e9, static_cast<double>(des.counters.events)),
        "ns");
  m.add("sim.advance_us_per_verb", ratio(des.advance_s * 1e6, des_body), "us");
  m.add("app.ops_per_verb",
        ratio(static_cast<double>(des.write_ns.size()), des_body), "count");
  m.add("app.sync_frac", ratio(des.sync_s, des.script_cpu_s), "frac");
  if (script.kv) {
    m.add("app.sync_us_per_verb", ratio(des.sync_s * 1e6, des_body), "us");
    m.add("app.write_ns_p50", quantile(des.write_ns, 0.5), "ns");
    m.add("app.audit_cpu_ms", des.kv_audit_ms, "ms");
    m.add("op_refused_frac",
          ratio(static_cast<double>(des.refused),
                static_cast<double>(des.write_ns.size())),
          "frac");
    m.add("no_primary_ticks_p50", quantile(des.no_primary_ticks, 0.5), "ticks");
  }

  if (args.trace) {
    Phases sum;
    for (const Span& s : traced.spans) {
      sum.wall += s.phases.wall;
      sum.queued += s.phases.queued;
      sum.parked += s.phases.parked;
      sum.executing += s.phases.executing;
      sum.slop += s.phases.slop;
      sum.unattributed += s.phases.unattributed;
    }
    const double wall = static_cast<double>(sum.wall);
    const double verbs = static_cast<double>(traced.timed_verbs);
    m.add("runtime.queued_frac", ratio(static_cast<double>(sum.queued), wall),
          "frac");
    m.add("runtime.parked_frac", ratio(static_cast<double>(sum.parked), wall),
          "frac");
    m.add("runtime.executing_frac",
          ratio(static_cast<double>(sum.executing), wall), "frac");
    m.add("runtime.timer_slop_frac", ratio(static_cast<double>(sum.slop), wall),
          "frac");
    m.add("runtime.unattributed_frac",
          ratio(static_cast<double>(sum.unattributed), wall), "frac");
    m.add("runtime.wakeup_p50_us",
          quantile(as_doubles(traced.tally.wakeup_ns, 1e-3), 0.5), "us");
    m.add("runtime.parks_per_verb",
          ratio(static_cast<double>(traced.tally.parks), verbs), "count");
    m.add("runtime.handler_p50_us",
          quantile(as_doubles(traced.tally.handler_ns, 1e-3), 0.5), "us");
    m.add("runtime.batch_size_p50",
          quantile(as_doubles(traced.tally.batch), 0.5), "count");
    m.add("runtime.spills_per_verb",
          ratio(static_cast<double>(traced.tally.spills), verbs), "count");
    // Against the untraced samples of the same script verbs.
    std::vector<double> untraced;
    for (std::size_t k = 0; k < pool.latency_ms.size(); ++k) {
      if (pool.sample_verb[k] < script.prefix + traced_body) {
        untraced.push_back(pool.latency_ms[k]);
      }
    }
    m.add("obs.trace_overhead_frac",
          ratio(quantile(traced.latency_ms, 0.5), quantile(untraced, 0.5)) - 1,
          "frac");
    m.add("obs.probe_entries_lost", static_cast<double>(traced.tally.lost),
          "count");
  }

  for (const Metric& metric : m.all()) {
    std::printf("metric %s %.17g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }

  if (args.trace && !args.out.empty()) {
    const std::string spans = args.out + "/" + w->name + ".spans.json";
    if (write_spans(spans, traced.spans)) {
      std::printf("spans %s\n", spans.c_str());
    }
  }

  const bool correct = errors == 0 && failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(issued);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const char* name) {
    const Metric* metric = m.find(name);
    if (metric == nullptr) return;
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name, metric->value, metric->unit.c_str());
    json += buf;
    first = false;
  };
  if (args.trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dvbench

int main(int argc, char** argv) {
  dvbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "dvbench: %s needs a value\n", flag.c_str());
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out") {
      args.out = value;
    } else {
      std::fprintf(stderr, "dvbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (!(args.seconds > 0)) {
    std::fprintf(stderr, "dvbench: --seconds must be positive\n");
    return 2;
  }
  try {
    return dvbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dvbench: %s\n", e.what());
    return 1;
  }
}
