// Shared pieces of the benchmark harness: clocks, the in-memory span
// recorder, order statistics, reference-row checks and the result record
// every workload fills in.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/explorer.hpp"
#include "engine/report.hpp"

namespace perfbench {

/// Seconds since the harness started (one process-wide epoch, so span
/// timestamps from every thread share one axis).
[[nodiscard]] double now_s();

/// Process CPU time (user + system) in seconds.
[[nodiscard]] double process_cpu_s();

/// VmHWM of a process in MB from /proc/<pid>/status (0 = self); -1 if it
/// cannot be read.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Reset this process's VmHWM to its current resident size, so the next
/// peak_rss_mb() covers only what ran in between.
void reset_peak_rss();

// ------------------------------------------------------------- spans

/// One completed span: a call into a module's public function, timed
/// from the benchmark's side of the boundary.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t thread = 0;  ///< small per-thread number
  double start_s = 0;
  double end_s = 0;
};

/// Keeps spans in memory until the run ends. When disabled, scopes cost
/// one branch and record nothing; the same code path then measures the
/// untraced baseline for the overhead figure.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  ///< null when tracing is off
    Span span_;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Open a span that is a child of this thread's innermost open span.
  [[nodiscard]] Scope span(std::string name) {
    return Scope(enabled() ? this : nullptr, std::move(name));
  }

  /// Record an interval measured elsewhere (e.g. between two protocol
  /// events); returns its id so later intervals can name it as parent.
  std::uint64_t add(std::string name, double start_s, double end_s,
                    std::uint64_t parent = 0);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Append another tracer's spans (e.g. set-up spans kept apart from the
  /// layer shares) so they reach the Chrome trace.
  void absorb(const Tracer& other);

  /// Per span name: total self time in seconds, where a span's self time
  /// is its duration minus the part of it its child spans cover.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Write every span as a Chrome trace ("X" events, microseconds) with
  /// each span's self time in its args.
  [[nodiscard]] bool write_chrome_trace(const std::string& path) const;

 private:
  void record(Span span);

  std::atomic<bool> enabled_{false};  ///< read by engine worker threads
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

// --------------------------------------------------------- statistics

[[nodiscard]] double median(std::vector<double> values);

/// Linear-interpolated percentile p in [0, 1] of `values`, or nothing
/// when fewer than `min_beyond` samples lie above it: a tail figure is
/// only reported when at least that many observations support it.
[[nodiscard]] std::optional<double> percentile(std::vector<double> values,
                                               double p,
                                               std::size_t min_beyond = 10);

// -------------------------------------------------------- reference rows

/// Reference CSV rows keyed by "trace,cache_bytes,geometry,label" — the
/// first four columns of engine::csv_row, which never contain commas.
class Reference {
 public:
  /// Load a CSV written by CsvSink (header + rows). Throws on I/O error
  /// or a header that differs from engine::csv_header().
  static Reference load(const std::string& path);
  static std::string key_of(const std::string& row);

  void add(const std::string& row) { rows_[key_of(row)] = row; }
  /// True when `row` equals the recorded row under its key.
  [[nodiscard]] bool matches(const std::string& row) const;
  /// Rows of one run that differ from the reference, plus reference rows
  /// the run never produced.
  [[nodiscard]] std::uint64_t mismatches(
      const std::vector<std::string>& rows) const;
  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  void save(const std::string& path) const;

 private:
  std::map<std::string, std::string> rows_;
};

/// Split CsvSink output into its data rows (header dropped).
[[nodiscard]] std::vector<std::string> csv_rows(const std::string& csv);

/// Field `index` (0-based) of a CSV row; valid for the unquoted leading
/// columns of engine::csv_row (everything before the function text).
[[nodiscard]] std::string csv_field(const std::string& row, std::size_t index);

/// Mean percent_removed over the rows of `kind` among `rows`, and how
/// many there were.
[[nodiscard]] std::pair<double, std::uint64_t> mean_percent_removed(
    const std::vector<std::string>& rows, const std::string& kind = "optimize");

/// A CsvSink that also times its own writes — the benchmark's span
/// around engine::CsvSink — and notes when each row arrived.
class TimedCsvSink final : public xoridx::engine::ResultSink {
 public:
  TimedCsvSink(std::ostream& os, Tracer& tracer) : inner_(os), tracer_(tracer) {}
  void begin() override;
  void write(const xoridx::engine::JobResult& result) override;
  void end() override;
  [[nodiscard]] double seconds() const { return seconds_; }
  /// now_s() at each row's arrival, in arrival order.
  [[nodiscard]] const std::vector<double>& arrivals() const {
    return arrivals_;
  }

 private:
  xoridx::engine::CsvSink inner_;
  Tracer& tracer_;
  double seconds_ = 0;
  std::vector<double> arrivals_;
};

/// The end-to-end figures of a workload that runs whole Explorer::explore
/// calls back to back: `walls` per call, `row_latencies_s` from each
/// call's start to each result row reaching the sink, `accesses` the
/// simulated accesses of one call (summed over its cells).
struct CampaignRuns {
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> row_latencies_s;
  std::vector<double> peak_rss_mb;  ///< VmHWM over each call
  std::uint64_t accesses = 0;
};

// ------------------------------------------------------------- results

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the figure
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;            ///< xoridx_cli binary (serve-mix)
  std::string work_dir;       ///< scratch files of this run
  std::string reference_dir;  ///< recorded outputs
  std::string trace_out;      ///< Chrome trace of the traced run
  bool record = false;        ///< write the reference instead of checking
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// Run Explorer::explore on `request` back to back, each call writing to
/// a fresh TimedCsvSink, until `seconds` have passed and at least
/// `min_calls` ran. Records walls, row latencies and per-call peak RSS in
/// `runs`; `check(ok, rows)` sees each call's outcome and CSV rows.
void run_calls(
    const xoridx::api::ExplorationRequest& request, double seconds,
    std::size_t min_calls, CampaignRuns& runs,
    const std::function<void(bool, std::vector<std::string>)>& check);

/// One Explorer::explore inside an "engine.explore" span, with its CSV
/// written through a TimedCsvSink. Sets engine.cpu_util_pct (process CPU
/// over wall x `threads`), engine.profiles_built/_shared and
/// report.csv_ms; returns the CSV rows, or nothing if the call failed.
std::optional<std::vector<std::string>> traced_explore(
    xoridx::api::ExplorationRequest request, unsigned threads,
    Tracer& tracer, Result& result);

/// Close a traced run: trace.overhead_pct from the {untraced, traced}
/// seconds of paired_runs, and the Chrome trace of `tracer` plus the
/// set-up spans written to options.trace_out.
void finish_traced_run(Result& result, Tracer& tracer,
                       const Tracer& setup_tracer,
                       std::pair<double, double> paired,
                       const Options& options);

/// Set every end-to-end metric of a campaign-style workload;
/// `removed` is its misses_removed_pct with the rows behind it.
void set_campaign_metrics(Result& result, const CampaignRuns& runs,
                          std::pair<double, std::uint64_t> removed);

/// Fill the per-layer metrics a workload left unset with 0 and name them
/// in a note: a workload that does not call a module reports 0 for it.
void fill_unexercised(Result& result);

/// Run `unit(i)` for every i in [0, n) twice, once with `tracer` off and
/// once on, alternating which goes first so warm-up effects cancel.
/// Returns the summed {untraced, traced} seconds; the difference is the
/// tracing overhead. `unit` reads tracer.enabled() to know which it is.
std::pair<double, double> paired_runs(Tracer& tracer, std::size_t n,
                                      const std::function<void(std::size_t)>& unit);

/// Per-layer shares of the summed self time of the decomposition spans.
void set_layer_shares(Result& result, const Tracer& tracer);

Result run_table2_campaign(const Options& options);
Result run_stream_resim(const Options& options);
Result run_serve_mix(const Options& options);

}  // namespace perfbench
