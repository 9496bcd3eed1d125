#include "harness/metrics.hpp"

namespace dynvote {

RunMetrics RunMetrics::collect(Cluster& cluster) {
  RunMetrics m;
  const sim::NetworkStats& net = cluster.sim().network().stats();
  m.messages_sent = net.messages_sent;
  m.messages_loopback = net.messages_loopback;
  m.bytes_sent = net.bytes_sent;
  for (ProcessId p : cluster.all_processes()) {
    m.storage_writes += cluster.sim().storage(p).writes();
  }
  m.formed_sessions = cluster.checker().formed_session_count();
  m.mean_rounds = cluster.observer().rounds().mean();
  return m;
}

}  // namespace dynvote
