#include "harness/bench_report.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

namespace dynvote {

std::string emit_bench_result(const std::string& name,
                              const JsonValue& result) {
  JsonValue stamped = JsonValue::object();
  stamped.set("schema_version", JsonValue(kBenchResultSchemaVersion));
  if (result.is_object()) {
    for (const auto& [key, value] : result.as_object()) {
      stamped.set(key, value);
    }
  } else {
    stamped.set("result", result);
  }
  const std::string text = stamped.dump_pretty();
  std::printf("%s%s ---\n%s%s\n", kBenchResultBegin, name.c_str(),
              text.c_str(), kBenchResultEnd);
  std::fflush(stdout);

  const char* dir = std::getenv("DYNVOTE_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  const std::string path = std::string(dir) + "/BENCH_" + name + ".json";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
    return {};
  }
  out << text;
  return path;
}

std::string write_json_file(const std::string& filename,
                            const JsonValue& value) {
  const char* dir = std::getenv("DYNVOTE_JSON_DIR");
  if (dir == nullptr || *dir == '\0') return {};
  const std::string path = std::string(dir) + "/" + filename;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_report: cannot write %s\n", path.c_str());
    return {};
  }
  out << value.dump_pretty();
  return path;
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

}  // namespace dynvote
