// scenario_cli: drive a simulated cluster from a scenario script.
//
// Usage:
//   ./scenario_cli                 # runs the built-in demo script
//   ./scenario_cli script.dvs      # runs your script
//   echo "..." | ./scenario_cli -  # reads the script from stdin
//
// Script language (one command per line, '#' starts a comment):
//
//   protocol <basic|optimized|centralized|static|naive|blocking|hybrid|3pc>
//   n <count>                  core group size (default 5)
//   minquorum <k>              Min_Quorum (default 1)
//   dynamic                    enable section-6 dynamic participants
//   seed <value>               simulator seed (default 1)
//   start                      connect everyone and settle
//   partition g1 | g2 | ...    e.g.  partition 0,1,2 | 3,4
//   merge                      reconnect all live processes
//   crash <p>      recover <p>      destroy-disk <p>
//   join <p>                   add a non-core process (use merge after)
//   drop <type-substr> <p> [count]  drop messages matching type to p
//   clear-drops
//   write <p> <key> <value>    replicated-KV write through process p
//   read <p> <key>
//   settle                     run the simulation to quiescence
//   status                     per-process primary state
//   check                      run the consistency checker
//   trace [k]                  print the last k protocol events (default 12)
//
// Configuration commands must precede `start`/the first topology command.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "app/replicated_kv.hpp"
#include "harness/cluster.hpp"
#include "harness/scenario.hpp"

using namespace dynvote;

namespace {

const char* kDemoScript = R"(# built-in demo: the paper's section-1 scenario
protocol optimized
n 5
start
status
# c (=p2) will miss the attempt round of the next session
drop dv.attempt 2 2
partition 0,1,2 | 3,4
settle
status
clear-drops
partition 0,1 | 2,3,4
settle
status
check
trace 8
merge
settle
status
check
)";

struct Repl {
  ClusterOptions options;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<FaultInjector> faults;
  std::unique_ptr<app::KvStore> store;
  int line_number = 0;

  Cluster& live() {
    if (!cluster) {
      cluster = std::make_unique<Cluster>(options);
      faults = std::make_unique<FaultInjector>(cluster->sim().network());
      store = std::make_unique<app::KvStore>(*cluster);
    }
    return *cluster;
  }

  void fail(const std::string& what) {
    std::fprintf(stderr, "line %d: %s\n", line_number, what.c_str());
  }

  static std::optional<ProtocolKind> parse_kind(const std::string& name) {
    static const std::map<std::string, ProtocolKind> kinds = {
        {"basic", ProtocolKind::kBasic},
        {"optimized", ProtocolKind::kOptimized},
        {"centralized", ProtocolKind::kCentralized},
        {"static", ProtocolKind::kStaticMajority},
        {"naive", ProtocolKind::kNaiveDynamic},
        {"last-attempt", ProtocolKind::kLastAttemptOnly},
        {"blocking", ProtocolKind::kBlockingDynamic},
        {"hybrid", ProtocolKind::kHybridJm},
        {"3pc", ProtocolKind::kThreePhaseRecovery},
    };
    auto it = kinds.find(name);
    if (it == kinds.end()) return std::nullopt;
    return it->second;
  }

  /// Parses "0,1,2 | 3,4" into disjoint groups; nullopt if a token is not
  /// a process id below kProcessIdLimit.
  static std::optional<std::vector<ProcessSet>> parse_groups(
      const std::string& text) {
    std::vector<ProcessSet> groups;
    std::stringstream chunks(text);
    std::string chunk;
    while (std::getline(chunks, chunk, '|')) {
      ProcessSet group;
      std::stringstream ids(chunk);
      std::string token;
      while (std::getline(ids, token, ',')) {
        try {
          std::size_t pos = 0;
          const unsigned long value = std::stoul(token, &pos);
          if (value >= kProcessIdLimit) return std::nullopt;
          group.insert(ProcessId(static_cast<std::uint32_t>(value)));
        } catch (const std::exception&) {
          return std::nullopt;
        }
      }
      if (group.empty()) return std::nullopt;
      groups.push_back(group);
    }
    return groups.empty() ? std::nullopt : std::make_optional(groups);
  }

  void status() {
    Cluster& c = live();
    std::printf("t=%lluus\n", static_cast<unsigned long long>(c.sim().now()));
    for (ProcessId p : c.all_processes()) {
      if (!c.sim().network().alive(p)) {
        std::printf("  %s: crashed\n", to_string(p).c_str());
      } else if (c.protocol(p).is_primary()) {
        std::printf("  %s: PRIMARY %s\n", to_string(p).c_str(),
                    c.protocol(p).primary_session()->to_string().c_str());
      } else {
        std::printf("  %s: -\n", to_string(p).c_str());
      }
    }
  }

  bool handle(const std::string& raw) {
    std::string line = raw.substr(0, raw.find('#'));
    std::stringstream in(line);
    std::string command;
    if (!(in >> command)) return true;  // blank

    // Reads an unsigned value below `limit`; false if the token is
    // missing, malformed or out of range.
    auto need_below = [&](std::uint32_t& out, std::uint32_t limit) {
      unsigned long v;
      if (!(in >> v) || v >= limit) return false;
      out = static_cast<std::uint32_t>(v);
      return true;
    };
    static const std::string id_range =
        " (process ids are below " + std::to_string(kProcessIdLimit) + ")";
    // True iff the cluster has process p exactly when `member` says it
    // should; reports a mismatch.
    auto expect_member = [&](std::uint32_t p, bool member) {
      const std::vector<ProcessId>& ids = live().all_processes();
      const std::string name = "p" + std::to_string(p);
      if ((std::find(ids.begin(), ids.end(), ProcessId(p)) != ids.end()) ==
          member) {
        return true;
      }
      fail(member ? "unknown process " + name
                  : name + " is already in the cluster");
      return false;
    };

    if (command == "protocol") {
      std::string name;
      in >> name;
      const auto kind = parse_kind(name);
      if (!kind) {
        fail("unknown protocol '" + name + "'");
        return true;
      }
      options.kind = *kind;
    } else if (command == "n") {
      std::uint32_t n;
      if (need_below(n, kProcessIdLimit + 1)) options.n = n;
    } else if (command == "minquorum") {
      std::uint32_t k;
      if (need_below(k, kProcessIdLimit + 1)) options.config.min_quorum = k;
    } else if (command == "dynamic") {
      options.config.dynamic_participants = true;
    } else if (command == "seed") {
      std::uint64_t seed;
      if (in >> seed) options.sim.seed = seed;
    } else if (command == "start") {
      live().start();
    } else if (command == "partition") {
      std::string rest;
      std::getline(in, rest);
      const auto groups = parse_groups(rest);
      if (!groups) {
        fail("cannot parse groups: '" + rest + "'");
        return true;
      }
      ProcessSet named;
      for (const ProcessSet& group : *groups) {
        for (const ProcessId p : group) {
          if (!expect_member(p.value(), true)) return true;
          if (!named.insert(p)) {
            fail(to_string(p) + " is in two groups");
            return true;
          }
        }
      }
      live().partition(*groups);
      live().settle();
    } else if (command == "merge") {
      live().merge();
      live().settle();
    } else if (command == "crash" || command == "recover" ||
               command == "destroy-disk" || command == "join") {
      std::uint32_t p;
      if (!need_below(p, kProcessIdLimit)) {
        fail("missing or bad process id" + id_range);
        return true;
      }
      if (!expect_member(p, command != "join")) return true;
      if (command == "crash") live().crash(ProcessId(p));
      if (command == "recover") live().recover(ProcessId(p));
      if (command == "destroy-disk") {
        live().sim().crash_and_destroy_disk(ProcessId(p));
      }
      if (command == "join") {
        live().add_process(ProcessId(p));
        store = std::make_unique<app::KvStore>(live());  // rebuild replicas
      }
      live().settle();
    } else if (command == "drop") {
      std::string type;
      std::uint32_t p;
      int count = -1;
      in >> type;
      if (!need_below(p, kProcessIdLimit)) {
        fail("drop needs: <type> <process> [count]" + id_range);
        return true;
      }
      if (!expect_member(p, true)) return true;
      in >> count;
      faults->drop_to(ProcessId(p), type, count);
    } else if (command == "clear-drops") {
      live();
      faults->clear();
    } else if (command == "write") {
      std::uint32_t p;
      std::string key, value;
      if (!need_below(p, kProcessIdLimit) || !(in >> key >> value)) {
        fail("write needs: <process> <key> <value>" + id_range);
        return true;
      }
      if (!expect_member(p, true)) return true;
      const auto version = store->write(ProcessId(p), key, value);
      std::printf("write %s=%s via p%u: %s\n", key.c_str(), value.c_str(), p,
                  version ? version->to_string().c_str()
                          : "REFUSED (not in primary)");
      store->sync_primary();
    } else if (command == "read") {
      std::uint32_t p;
      std::string key;
      if (!need_below(p, kProcessIdLimit) || !(in >> key)) {
        fail("read needs: <process> <key>" + id_range);
        return true;
      }
      if (!expect_member(p, true)) return true;
      const auto value = store->replica(ProcessId(p)).read(key);
      std::printf("read %s via p%u: %s\n", key.c_str(), p,
                  value ? value->c_str() : "(none)");
    } else if (command == "settle") {
      live().settle();
    } else if (command == "status") {
      status();
    } else if (command == "check") {
      const auto violations = live().checker().check_all();
      if (violations.empty()) {
        std::printf("check: consistent (no split brain, ≺ total)\n");
      } else {
        std::printf("check: %zu violation(s)\n%s", violations.size(),
                    to_string(violations).c_str());
      }
      const auto divergences = store->audit();
      if (!divergences.empty()) {
        std::printf("store audit: %zu divergence(s)\n", divergences.size());
      }
    } else if (command == "trace") {
      std::size_t k = 12;
      in >> k;
      const auto& events = live().trace().events();
      const std::size_t from = events.size() > k ? events.size() - k : 0;
      for (std::size_t i = from; i < events.size(); ++i) {
        std::printf("  %s\n", obs::describe(events[i]).c_str());
      }
    } else if (command == "quit" || command == "exit") {
      return false;
    } else {
      fail("unknown command '" + command + "'");
    }
    return true;
  }

  int run(std::istream& in) {
    std::string line;
    while (std::getline(in, line)) {
      ++line_number;
      std::printf(">> %s\n", line.c_str());
      if (!handle(line)) break;
    }
    return 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  Repl repl;
  if (argc < 2) {
    std::puts("(no script given: running the built-in demo; pass a file or '-' "
              "for stdin)\n");
    std::istringstream demo(kDemoScript);
    return repl.run(demo);
  }
  if (std::string(argv[1]) == "-") return repl.run(std::cin);
  std::ifstream file(argv[1]);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  return repl.run(file);
}
