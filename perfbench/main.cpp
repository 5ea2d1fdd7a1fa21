// figdb benchmark: runs one workload over the paper's 6K-object default
// corpus and prints, as the last line of stdout, one JSON object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Human-readable notes go to stdout before it; failed checks
// go to stderr. See README.md for the workloads and metrics.
//
//   figdb_perfbench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --dir <scratch-dir>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using figdb::perfbench::Report;
using figdb::perfbench::RunParams;

/// The safety deadline (RunParams::deadline) in multiples of --seconds,
/// counted from the process's start: run.py stops a run after 170 s, and
/// checks after the deadline take at most a few tens of seconds.
constexpr double kDeadlineFactor = 6.0;

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <object_query|served_readers|"
               "ingest_publish|decayed_query> --seed <n> --seconds <s> "
               "--trace <0|1> --dir <scratch-dir>\n",
               argv0);
  std::exit(2);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void PrintReport(const Report& report) {
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.9g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) json += ", ";
    json += "\"" + JsonEscape(m.name) + "\": {\"value\": " + value +
            ", \"unit\": \"" + JsonEscape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunParams params;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(argv[0]);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      params.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      params.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      params.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      params.trace = value == "1";
    } else if (flag == "--dir") {
      params.dir = value;
      have_dir = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (!have_workload || !have_dir || !(params.seconds > 0.0)) Usage(argv[0]);

  params.deadline =
      figdb::perfbench::Clock::now() +
      std::chrono::duration_cast<figdb::perfbench::Clock::duration>(
          std::chrono::duration<double>(kDeadlineFactor * params.seconds));
  const figdb::perfbench::CpuTicks ticks = figdb::perfbench::ReadCpuTicks();
  Report report;
  try {
    report = figdb::perfbench::RunWorkload(params);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("# host steal over the run: %.1f%% of CPU time\n",
              100.0 * figdb::perfbench::StealShare(ticks));
  for (const std::string& p : report.problems)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  PrintReport(report);
  return 0;
}
