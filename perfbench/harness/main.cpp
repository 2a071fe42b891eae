// perfbench_harness: runs one benchmark workload and prints its metrics.
//
//   perfbench_harness --workload <table2-campaign|stream-resim|serve-mix>
//       --seed N --seconds S --trace 0|1 --reference-dir DIR
//       --work-dir DIR [--cli xoridx_cli] [--trace-out FILE] [--record]
//
// Human-readable lines first; the last line of stdout is one JSON object
// with the host block, the check counts and every metric with its unit
// and sample count. perfbench/run.py turns that into the benchmark's
// result line.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

using namespace perfbench;

/// Fixed integer kernel, timed only to show a slow host window as drift.
double calibration_ms() {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const double t0 = now_s();
    volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink = x;
    (void)sink;
    reps.push_back((now_s() - t0) * 1e3);
  }
  return median(reps);
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0)
      return line.substr(line.find(':') + 2);
  return "unknown";
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S "
               "--trace 0|1 --reference-dir DIR --work-dir DIR [--cli PATH] "
               "[--trace-out FILE] [--record]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--record") {
      o.record = true;
      continue;
    }
    if (value == nullptr) return usage();
    ++i;
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::strtoull(value, nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(value, nullptr);
    else if (arg == "--trace") o.trace = std::strcmp(value, "1") == 0;
    else if (arg == "--cli") o.cli = value;
    else if (arg == "--work-dir") o.work_dir = value;
    else if (arg == "--reference-dir") o.reference_dir = value;
    else if (arg == "--trace-out") o.trace_out = value;
    else return usage();
  }
  if (o.work_dir.empty() || o.reference_dir.empty() || !(o.seconds > 0))
    return usage();

  const std::string load_start = read_first_line("/proc/loadavg");
  const double calibration_start = calibration_ms();
  Result result;
  try {
    if (o.workload == "table2-campaign")
      result = run_table2_campaign(o);
    else if (o.workload == "stream-resim")
      result = run_stream_resim(o);
    else if (o.workload == "serve-mix")
      result = run_serve_mix(o);
    else
      return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  if (o.record) {
    for (const std::string& note : result.notes)
      std::printf("%s\n", note.c_str());
    return 0;
  }
  if (o.trace) fill_unexercised(result);
  const double calibration_end = calibration_ms();
  const std::string load_end = read_first_line("/proc/loadavg");

  std::printf("workload %s, seed %llu, %s run\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              o.trace ? "traced (per-layer)" : "untraced (end-to-end)");
  for (const std::string& note : result.notes)
    std::printf("note: %s\n", note.c_str());
  std::printf("check: %llu of %llu cells/requests failed or mismatched\n",
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  std::ostringstream json;
  json << "{\"workload\":" << quote(o.workload) << ",\"seed\":" << o.seed
       << ",\"trace\":" << (o.trace ? 1 : 0)
       << ",\"attempted\":" << result.attempted
       << ",\"failed\":" << result.failed << ",\"host\":{"
       << "\"cores\":" << std::thread::hardware_concurrency()
       << ",\"cpu_model\":" << quote(cpu_model())
#ifdef __clang__
       << ",\"compiler\":" << quote("clang " __VERSION__)
#else
       << ",\"compiler\":" << quote("gcc " __VERSION__)
#endif
       << ",\"build_type\":" << quote(PERFBENCH_BUILD_TYPE)
       << ",\"XORIDX_OBS\":" << XORIDX_OBS_ENABLED
       << ",\"XORIDX_FAILPOINTS\":" << XORIDX_FAILPOINTS_ENABLED
       << ",\"loadavg_start\":" << quote(load_start)
       << ",\"loadavg_end\":" << quote(load_end)
       << ",\"calibration_ms_start\":" << number(calibration_start)
       << ",\"calibration_ms_end\":" << number(calibration_end)
       << "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    json << (first ? "" : ",") << quote(name) << ":{\"value\":"
         << number(m.value) << ",\"unit\":" << quote(m.unit)
         << ",\"samples\":" << m.samples << "}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}
