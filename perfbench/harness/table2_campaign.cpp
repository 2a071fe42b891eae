// table2-campaign: the paper's Table 2 as one engine campaign — the 10
// Table-2 kernels at full scale, held in memory, on 1/4/16 KB
// direct-mapped caches with 4 B blocks, strategies base,perm:2,perm, run
// by Explorer::explore on two engine threads.
//
// The traced run re-runs the same cells through each module's public
// functions (api::build_profile, search::optimize_index_with_profile,
// cache::simulate_direct_mapped) with a span around every call.
#include <algorithm>
#include <sstream>
#include <variant>

#include "common.hpp"
#include "hash/xor_function.hpp"
#include "workloads/workload.hpp"
#include "xoridx/api.hpp"

namespace perfbench {
namespace {

using namespace xoridx;

constexpr unsigned engine_threads = 2;
constexpr int hashed_bits = 16;
constexpr int setup_repeats = 3;
// 3 campaigns x 90 rows keep at least 10 row latencies beyond p95.
constexpr std::size_t min_campaigns = 3;
const char* const strategy_list = "base,perm:2,perm";

std::vector<cache::CacheGeometry> geometries() {
  return {cache::CacheGeometry(1024, 4, 1), cache::CacheGeometry(4096, 4, 1),
          cache::CacheGeometry(16384, 4, 1)};
}

/// A kernel's data trace under its name; the instruction side is dropped
/// as soon as it is synthesized, as `xoridx_cli engine table2` does.
struct Kernel {
  std::string name;
  trace::Trace data;
};

std::vector<Kernel> synthesize(Tracer& tracer) {
  std::vector<Kernel> kernels;
  for (const std::string& name :
       workloads::workload_names(workloads::Suite::table2)) {
    workloads::Workload w = [&] {
      auto span = tracer.span("workloads.make_workload");
      return workloads::make_workload(name, workloads::Scale::full);
    }();
    kernels.push_back({w.name, std::move(w.data)});
  }
  return kernels;
}

api::ExplorationRequest make_request(
    const std::vector<Kernel>& kernels) {
  api::ExplorationRequest request;
  for (const Kernel& w : kernels)
    request.traces.push_back(api::TraceRef::borrowed(w.name, w.data));
  for (const cache::CacheGeometry& g : geometries())
    request.geometries.emplace_back(g);
  request.strategies = api::parse_strategies(strategy_list).value();
  request.hashed_bits = hashed_bits;
  request.num_threads = engine_threads;
  return request;
}

std::uint64_t sum_accesses(const std::vector<std::string>& rows) {
  std::uint64_t sum = 0;
  for (const std::string& row : rows) sum += std::stoull(csv_field(row, 5));
  return sum;
}

struct LayerTotals {
  double profile_s = 0;
  double max_profile_s = 0;
  std::map<std::uint32_t, std::pair<double, std::uint64_t>> profile_by_size;
  double profile_bytes = 0;
  double perm_s = 0;
  double perm2_s = 0;
  std::uint64_t evaluations = 0;
  double dm_s = 0;
  std::uint64_t dm_accesses = 0;
  double xor_s = 0;
  std::uint64_t xor_accesses = 0;
  std::uint64_t profiles = 0;
};

/// Every cell of one kernel, serially, one public call per layer.
/// Appends the CSV rows it produced to `rows`.
void decompose(const Kernel& w, Tracer& tracer, LayerTotals& totals,
               std::vector<std::string>& rows) {
  const std::vector<api::Strategy> strategies =
      api::parse_strategies(strategy_list).value();
  const api::TraceRef ref = api::TraceRef::borrowed(w.name, w.data);
  for (const cache::CacheGeometry& g : geometries()) {
    double t0 = now_s();
    api::Result<profile::ConflictProfile> prof = [&] {
      auto span = tracer.span("profile.build");
      return api::build_profile(ref, api::GeometrySpec(g), hashed_bits);
    }();
    const double build_s = now_s() - t0;
    if (!prof.ok()) continue;  // its rows go missing and count as failed
    totals.profile_s += build_s;
    totals.max_profile_s = std::max(totals.max_profile_s, build_s);
    auto& [size_s, size_accesses] = totals.profile_by_size[g.size_bytes];
    size_s += build_s;
    size_accesses += w.data.size();
    totals.profile_bytes += static_cast<double>(prof->memory_bytes());
    ++totals.profiles;

    const hash::XorFunction conventional =
        hash::XorFunction::conventional(hashed_bits, g.index_bits());
    t0 = now_s();
    const cache::CacheStats baseline = [&] {
      auto span = tracer.span("cache.dm");
      return cache::simulate_direct_mapped(w.data, g, conventional);
    }();
    totals.dm_s += now_s() - t0;
    totals.dm_accesses += baseline.accesses;

    for (const api::Strategy& strategy : strategies) {
      engine::JobResult row;
      row.trace_name = w.name;
      row.geometry = g;
      row.label = strategy.label;
      const auto* job =
          std::get_if<engine::OptimizeIndexJob>(&strategy.config->payload);
      if (job == nullptr) {  // "base": the conventional-index row
        row.kind = "evaluate";
        row.accesses = baseline.accesses;
        row.baseline_misses = row.misses = baseline.misses;
        rows.push_back(engine::csv_row(row));
        continue;
      }
      search::OptimizeOptions options;
      options.hashed_bits = hashed_bits;
      options.search.function_class = job->function_class;
      options.search.max_fan_in = job->max_fan_in;
      options.search.random_restarts = job->random_restarts;
      options.search.seed = job->seed;
      options.search.threads = job->threads;
      options.revert_if_worse = job->revert_if_worse;
      const bool fan_in_2 = job->max_fan_in == 2;
      t0 = now_s();
      search::OptimizationResult r = [&] {
        auto span = tracer.span(fan_in_2 ? "search.perm2" : "search.perm");
        return search::optimize_index_with_profile(w.data, g, *prof,
                                                   options, &baseline);
      }();
      (fan_in_2 ? totals.perm2_s : totals.perm_s) += now_s() - t0;
      totals.evaluations += r.stats.evaluations;

      // The benchmark's own re-simulation of the winner: the XOR-index
      // cost per access, and a second opinion on its miss count.
      t0 = now_s();
      const cache::CacheStats check = [&] {
        auto span = tracer.span("cache.xor");
        return cache::simulate_direct_mapped(w.data, g, *r.function);
      }();
      totals.xor_s += now_s() - t0;
      totals.xor_accesses += check.accesses;

      row.kind = "optimize";
      row.accesses = r.accesses;
      row.baseline_misses = r.baseline_misses;
      row.misses = check.misses == r.optimized_misses
                       ? r.optimized_misses
                       : ~std::uint64_t{0};  // disagreement: fail the row
      row.estimated_misses = r.estimated_misses;
      row.reverted = r.reverted;
      row.function_description = r.function->describe();
      rows.push_back(engine::csv_row(row));
    }
  }
}

}  // namespace

Result run_table2_campaign(const Options& o) {
  Result result;
  result.notes.push_back(
      "the Table-2 kernels are fixed programs: --seed does not change "
      "table2-campaign's inputs");

  Tracer setup_tracer;
  setup_tracer.set_enabled(o.trace);
  std::vector<Kernel> kernels;
  std::vector<double> setups;
  for (int i = 0; i < setup_repeats; ++i) {
    kernels.clear();
    const double t0 = now_s();
    kernels = synthesize(setup_tracer);
    setups.push_back(now_s() - t0);
  }
  const api::ExplorationRequest base_request = make_request(kernels);
  const std::string ref_path = o.reference_dir + "/table2-campaign.csv";

  if (o.record) {
    api::ExplorationRequest request = base_request;
    std::ostringstream csv;
    api::CsvSink sink(csv);
    request.sink = &sink;
    if (!api::Explorer::explore(request).ok())
      throw std::runtime_error("campaign failed while recording");
    Reference ref;
    for (const std::string& row : csv_rows(csv.str())) ref.add(row);
    ref.save(ref_path);
    result.notes.push_back("recorded " + std::to_string(ref.size()) +
                           " rows to " + ref_path);
    return result;
  }
  const Reference ref = Reference::load(ref_path);

  if (!o.trace) {
    CampaignRuns runs;
    runs.setups = setups;
    std::vector<std::string> last;
    run_calls(base_request, o.seconds, min_campaigns, runs,
              [&](bool ok, std::vector<std::string> rows) {
                result.attempted += ref.size();
                result.failed += ok ? ref.mismatches(rows) : ref.size();
                last = std::move(rows);
              });
    runs.accesses = sum_accesses(last);
    set_campaign_metrics(result, runs, mean_percent_removed(last));
    return result;
  }

  // ---- traced run: the decomposition untraced and traced, kernel by
  // kernel, then one campaign for the engine-level figures.
  Tracer tracer;
  LayerTotals ignored, t;
  std::vector<std::string> rows_off, rows_on;
  const auto paired =
      paired_runs(tracer, kernels.size(), [&](std::size_t i) {
        if (tracer.enabled())
          decompose(kernels[i], tracer, t, rows_on);
        else
          decompose(kernels[i], tracer, ignored, rows_off);
      });
  for (const auto* rows : {&rows_off, &rows_on}) {
    result.attempted += ref.size();
    result.failed += ref.mismatches(*rows);
  }
  set_layer_shares(result, tracer);

  const auto explored =
      traced_explore(base_request, engine_threads, tracer, result);
  result.attempted += ref.size();
  result.failed += explored ? ref.mismatches(*explored) : ref.size();

  result.set("profile.build_s", t.profile_s, "s", t.profiles);
  for (const auto& [size, entry] : t.profile_by_size) {
    const auto& [seconds, accesses] = entry;
    result.set("profile.build_ns_per_access." + std::to_string(size / 1024) +
                   "k",
               seconds * 1e9 / static_cast<double>(accesses), "ns/access",
               kernels.size());
  }
  result.set("profile.max_build_s", t.max_profile_s, "s", t.profiles);
  result.set("profile.bytes_mb", t.profile_bytes / (1 << 20), "MB",
             t.profiles);
  result.set("search.perm_ms", t.perm_s * 1e3, "ms", t.profiles);
  result.set("search.perm2_ms", t.perm2_s * 1e3, "ms", t.profiles);
  result.set("search.evaluations", static_cast<double>(t.evaluations),
             "count", 2 * t.profiles);
  result.set("search.evals_per_s",
             static_cast<double>(t.evaluations) / (t.perm_s + t.perm2_s),
             "1/s", 2 * t.profiles);
  result.set("cache.dm_ns_per_access",
             t.dm_s * 1e9 / static_cast<double>(t.dm_accesses), "ns/access",
             t.profiles);
  result.set("cache.xor_ns_per_access",
             t.xor_s * 1e9 / static_cast<double>(t.xor_accesses),
             "ns/access", 2 * t.profiles);
  result.set("workloads.synth_s", median(setups), "s", setups.size());
  result.notes.push_back(
      "engine.cpu_util_pct is measured at " + std::to_string(engine_threads) +
      " engine threads; search.* spans include one re-simulation of the "
      "winner inside optimize_index_with_profile");
  finish_traced_run(result, tracer, setup_tracer, paired, o);
  return result;
}

}  // namespace perfbench
