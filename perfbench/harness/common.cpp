#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point epoch = Clock::now();

std::atomic<std::uint64_t> next_span_id{1};
std::atomic<std::uint32_t> next_thread{1};
thread_local std::uint32_t thread_number = 0;
thread_local std::vector<std::uint64_t> open_spans;

std::uint32_t this_thread_number() {
  if (thread_number == 0) thread_number = next_thread++;
  return thread_number;
}

/// Seconds of [start, end) covered by the union of `children`.
double covered(std::vector<std::pair<double, double>> children, double start,
               double end) {
  std::sort(children.begin(), children.end());
  double total = 0;
  double reach = start;
  for (auto [s, e] : children) {
    s = std::max(s, reach);
    e = std::min(e, end);
    if (e > s) {
      total += e - s;
      reach = e;
    }
  }
  return total;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb(int pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return -1;
}

void reset_peak_rss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ------------------------------------------------------------- Tracer

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = std::move(name);
  span_.id = next_span_id++;
  span_.parent = open_spans.empty() ? 0 : open_spans.back();
  span_.thread = this_thread_number();
  open_spans.push_back(span_.id);
  span_.start_s = now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_s = now_s();
  open_spans.pop_back();
  tracer_->record(std::move(span_));
}

void Tracer::record(Span span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::uint64_t Tracer::add(std::string name, double start_s, double end_s,
                          std::uint64_t parent) {
  if (!enabled()) return 0;
  Span span{std::move(name), next_span_id++, parent, this_thread_number(),
            start_s, end_s};
  const std::uint64_t id = span.id;
  record(std::move(span));
  return id;
}

void Tracer::absorb(const Tracer& other) {
  const std::vector<Span> theirs = other.spans();
  std::lock_guard lock(mutex_);
  spans_.insert(spans_.end(), theirs.begin(), theirs.end());
}

namespace {

/// Self time of every span, indexed like `spans`.
std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<double, double>>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_s, s.end_s);
  std::vector<double> out;
  out.reserve(spans.size());
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const double kids =
        it == children.end() ? 0.0 : covered(it->second, s.start_s, s.end_s);
    out.push_back(s.end_s - s.start_s - kids);
  }
  return out;
}

}  // namespace

std::map<std::string, double> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) out[all[i].name] += self[i];
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times(all);
  std::ofstream out(path);
  out << "{\"traceEvents\":[\n";
  char buf[160];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"self_us\":%.3f,",
                  s.thread, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
                  self[i] * 1e6);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << json_escape(s.name)
        << buf << "\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

// --------------------------------------------------------- statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::optional<double> percentile(std::vector<double> values, double p,
                                 std::size_t min_beyond) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double value =
      values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
  const auto beyond = static_cast<std::size_t>(
      values.end() - std::upper_bound(values.begin(), values.end(), value));
  if (beyond < min_beyond) return std::nullopt;
  return value;
}

// -------------------------------------------------------- reference rows

std::string Reference::key_of(const std::string& row) {
  std::size_t from = 0;
  for (int comma = 0; comma < 4; ++comma) {
    const std::size_t pos = row.find(',', from);
    if (pos == std::string::npos) return row;
    from = pos + 1;
  }
  return row.substr(0, from - 1);
}

Reference Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::string line;
  if (!std::getline(in, line) || line != xoridx::engine::csv_header())
    throw std::runtime_error("reference " + path + " has a foreign header");
  Reference ref;
  while (std::getline(in, line))
    if (!line.empty()) ref.add(line);
  return ref;
}

bool Reference::matches(const std::string& row) const {
  const auto it = rows_.find(key_of(row));
  return it != rows_.end() && it->second == row;
}

std::uint64_t Reference::mismatches(
    const std::vector<std::string>& rows) const {
  std::uint64_t bad = 0;
  for (const std::string& row : rows)
    if (!matches(row)) ++bad;
  if (rows.size() < size()) bad += size() - rows.size();
  return bad;
}

void Reference::save(const std::string& path) const {
  std::ofstream out(path);
  out << xoridx::engine::csv_header() << '\n';
  for (const auto& [key, row] : rows_) out << row << '\n';
  if (!out) throw std::runtime_error("cannot write reference " + path);
}

std::vector<std::string> csv_rows(const std::string& csv) {
  std::vector<std::string> rows;
  std::istringstream in(csv);
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    if (!line.empty()) rows.push_back(line);
  }
  return rows;
}

std::string csv_field(const std::string& row, std::size_t index) {
  std::size_t start = 0;
  for (std::size_t i = 0; i < index; ++i) {
    start = row.find(',', start);
    if (start == std::string::npos) return {};
    ++start;
  }
  return row.substr(start, row.find(',', start) - start);
}

std::pair<double, std::uint64_t> mean_percent_removed(
    const std::vector<std::string>& rows, const std::string& kind) {
  double sum = 0;
  std::uint64_t n = 0;
  for (const std::string& row : rows) {
    if (csv_field(row, 4) != kind) continue;
    sum += std::stod(csv_field(row, 10));
    ++n;
  }
  return {n == 0 ? 0 : sum / static_cast<double>(n), n};
}

void TimedCsvSink::begin() {
  const double t0 = now_s();
  auto scope = tracer_.span("report.csv");
  inner_.begin();
  seconds_ += now_s() - t0;
}

void TimedCsvSink::write(const xoridx::engine::JobResult& result) {
  const double t0 = now_s();
  auto scope = tracer_.span("report.csv");
  inner_.write(result);
  const double t1 = now_s();
  seconds_ += t1 - t0;
  arrivals_.push_back(t1);
}

void TimedCsvSink::end() {
  const double t0 = now_s();
  auto scope = tracer_.span("report.csv");
  inner_.end();
  seconds_ += now_s() - t0;
}

// ------------------------------------------------------------- results

void run_calls(
    const xoridx::api::ExplorationRequest& request, double seconds,
    std::size_t min_calls, CampaignRuns& runs,
    const std::function<void(bool, std::vector<std::string>)>& check) {
  Tracer off;
  const double start = now_s();
  do {
    xoridx::api::ExplorationRequest call = request;
    std::ostringstream csv;
    TimedCsvSink sink(csv, off);
    call.sink = &sink;
    reset_peak_rss();
    const double t0 = now_s();
    const bool ok = xoridx::api::Explorer::explore(call).ok();
    runs.walls.push_back(now_s() - t0);
    runs.peak_rss_mb.push_back(peak_rss_mb());
    for (const double t : sink.arrivals())
      runs.row_latencies_s.push_back(t - t0);
    check(ok, csv_rows(csv.str()));
  } while (runs.walls.size() < min_calls ||
           now_s() - start + median(runs.walls) <= seconds);
}

std::optional<std::vector<std::string>> traced_explore(
    xoridx::api::ExplorationRequest request, unsigned threads,
    Tracer& tracer, Result& result) {
  std::ostringstream csv;
  TimedCsvSink sink(csv, tracer);
  request.sink = &sink;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s();
  const xoridx::api::Result<xoridx::api::Report> report = [&] {
    auto span = tracer.span("engine.explore");
    return xoridx::api::Explorer::explore(request);
  }();
  const double wall = now_s() - t0;
  const double cpu = process_cpu_s() - cpu0;
  result.set("engine.cpu_util_pct", 100.0 * cpu / (wall * threads), "%", 1);
  result.set("engine.profiles_built",
             report.ok() ? static_cast<double>(report->profiles_built) : 0,
             "count", 1);
  result.set("engine.profiles_shared",
             report.ok() ? static_cast<double>(report->profiles_shared) : 0,
             "count", 1);
  result.set("report.csv_ms", sink.seconds() * 1e3, "ms",
             sink.arrivals().size());
  if (!report.ok()) return std::nullopt;
  return csv_rows(csv.str());
}

void finish_traced_run(Result& result, Tracer& tracer,
                       const Tracer& setup_tracer,
                       std::pair<double, double> paired,
                       const Options& options) {
  const auto [untraced_s, traced_s] = paired;
  result.set("trace.overhead_pct",
             100.0 * (traced_s - untraced_s) / untraced_s, "%", 2);
  tracer.absorb(setup_tracer);
  if (!options.trace_out.empty() &&
      !tracer.write_chrome_trace(options.trace_out))
    result.notes.push_back("could not write " + options.trace_out);
}

void set_campaign_metrics(Result& result, const CampaignRuns& runs,
                          std::pair<double, std::uint64_t> removed) {
  const double wall = median(runs.walls);
  double total_wall = 0;
  for (const double w : runs.walls) total_wall += w;
  const auto n = static_cast<std::uint64_t>(runs.walls.size());
  std::vector<double> latencies_ms;
  for (const double s : runs.row_latencies_s) latencies_ms.push_back(s * 1e3);
  result.set("setup_s", median(runs.setups), "s", runs.setups.size());
  result.set("wall_s", wall, "s", n);
  result.set("maccesses_per_s",
             static_cast<double>(runs.accesses) / wall / 1e6, "M/s", n);
  result.set("requests_per_s", static_cast<double>(n) / total_wall, "1/s", n);
  result.set("latency_p50_ms", median(latencies_ms), "ms",
             latencies_ms.size());
  if (const auto p95 = percentile(latencies_ms, 0.95))
    result.set("latency_p95_ms", *p95, "ms", latencies_ms.size());
  else
    result.notes.push_back(
        "latency_p95_ms refused: fewer than 10 samples beyond p95 (" +
        std::to_string(latencies_ms.size()) + " samples)");
  result.set("peak_rss_mb", median(runs.peak_rss_mb), "MB",
             runs.peak_rss_mb.size());
  result.set("success_pct",
             result.attempted == 0
                 ? 0
                 : 100.0 *
                       static_cast<double>(result.attempted - result.failed) /
                       static_cast<double>(result.attempted),
             "%", result.attempted);
  result.set("misses_removed_pct", removed.first, "%", removed.second);
  result.notes.push_back(
      "requests are Explorer::explore calls; latency is the time from a "
      "call's start to each result row reaching its CsvSink");
}

namespace {

/// Every per-layer metric of the traced run, with its unit.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"profile.build_s", "s"},
      {"profile.build_ns_per_access.1k", "ns/access"},
      {"profile.build_ns_per_access.4k", "ns/access"},
      {"profile.build_ns_per_access.16k", "ns/access"},
      {"profile.max_build_s", "s"},
      {"profile.bytes_mb", "MB"},
      {"search.perm_ms", "ms"},
      {"search.perm2_ms", "ms"},
      {"search.evaluations", "count"},
      {"search.evals_per_s", "1/s"},
      {"cache.dm_ns_per_access", "ns/access"},
      {"cache.xor_ns_per_access", "ns/access"},
      {"cache.fa_ns_per_access", "ns/access"},
      {"cache.classify_ns_per_access", "ns/access"},
      {"tracestore.write_ns_per_access", "ns/access"},
      {"tracestore.decode_ns_per_access", "ns/access"},
      {"workloads.synth_s", "s"},
      {"engine.cpu_util_pct", "%"},
      {"engine.profiles_built", "count"},
      {"engine.profiles_shared", "count"},
      {"report.csv_ms", "ms"},
      {"serve.accept_ms_p50", "ms"},
      {"serve.first_cell_ms_p50", "ms"},
      {"serve.metrics_cmd_ms_p50", "ms"},
      {"serve.memo_hit_pct", "%"},
      {"serve.profiles_built", "count"},
      {"serve.profiles_shared", "count"},
      {"serve.busy_pct", "%"},
      {"layer_share.profile_pct", "%"},
      {"layer_share.search_pct", "%"},
      {"layer_share.cache_pct", "%"},
      {"layer_share.cache_fa_3c_pct", "%"},
      {"layer_share.tracestore_pct", "%"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

}  // namespace

void fill_unexercised(Result& result) {
  std::string missing;
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (result.metrics.count(name) != 0) continue;
    result.set(name, 0.0, unit, 0);
    missing += (missing.empty() ? "" : ", ") + name;
  }
  if (!missing.empty())
    result.notes.push_back("not exercised on this workload (reported as 0): " +
                           missing);
}

std::pair<double, double> paired_runs(
    Tracer& tracer, std::size_t n,
    const std::function<void(std::size_t)>& unit) {
  double off = 0, on = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const bool traced : {i % 2 == 1, i % 2 == 0}) {
      tracer.set_enabled(traced);
      const double t0 = now_s();
      unit(i);
      (traced ? on : off) += now_s() - t0;
    }
  }
  tracer.set_enabled(true);
  return {off, on};
}

void set_layer_shares(Result& result, const Tracer& tracer) {
  double profile = 0, search = 0, cache = 0, fa_3c = 0, store = 0, all = 0;
  for (const auto& [name, seconds] : tracer.self_seconds()) {
    all += seconds;
    if (name.rfind("profile.", 0) == 0) profile += seconds;
    if (name.rfind("search.", 0) == 0) search += seconds;
    if (name.rfind("cache.", 0) == 0) cache += seconds;
    if (name == "cache.fa" || name == "cache.classify") fa_3c += seconds;
    if (name.rfind("tracestore.", 0) == 0) store += seconds;
  }
  const auto share = [all](double s) { return all > 0 ? 100.0 * s / all : 0; };
  const auto spans = static_cast<std::uint64_t>(tracer.spans().size());
  result.set("layer_share.profile_pct", share(profile), "%", spans);
  result.set("layer_share.search_pct", share(search), "%", spans);
  result.set("layer_share.cache_pct", share(cache), "%", spans);
  result.set("layer_share.cache_fa_3c_pct", share(fa_3c), "%", spans);
  result.set("layer_share.tracestore_pct", share(store), "%", spans);
}

}  // namespace perfbench
