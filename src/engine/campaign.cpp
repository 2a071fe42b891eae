#include "engine/campaign.hpp"

#include <atomic>
#include <exception>
#include <stdexcept>
#include <utility>
#include <variant>

#include "cache/simulate.hpp"
#include "engine/thread_pool.hpp"
#include "hash/xor_function.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "search/exhaustive_bit_select.hpp"
#include "search/optimizer.hpp"
#include "tracestore/store.hpp"

namespace xoridx::engine {

namespace {

/// True for payloads that read the (trace, geometry) conflict profile.
bool reads_profile(const JobPayload& payload) {
  if (std::holds_alternative<OptimizeIndexJob>(payload)) return true;
  const auto* opt = std::get_if<OptimalBitSelectJob>(&payload);
  return opt != nullptr && opt->use_estimator;
}

}  // namespace

FunctionConfig FunctionConfig::baseline(std::string label) {
  return {std::move(label), EvaluateFunctionJob{}};
}

FunctionConfig FunctionConfig::evaluate(
    std::string label, std::shared_ptr<const hash::IndexFunction> function) {
  return {std::move(label), EvaluateFunctionJob{std::move(function), false}};
}

FunctionConfig FunctionConfig::fully_associative(std::string label) {
  return {std::move(label), EvaluateFunctionJob{nullptr, true}};
}

FunctionConfig FunctionConfig::optimize(std::string label,
                                        search::FunctionClass function_class,
                                        int max_fan_in, bool revert_if_worse,
                                        int random_restarts,
                                        std::uint64_t seed, int threads) {
  return {std::move(label),
          OptimizeIndexJob{function_class, max_fan_in, revert_if_worse,
                           random_restarts, seed, threads}};
}

FunctionConfig FunctionConfig::optimal_bit_select(std::string label,
                                                  bool use_estimator) {
  return {std::move(label), OptimalBitSelectJob{use_estimator}};
}

FunctionConfig FunctionConfig::classify(std::string label) {
  return {std::move(label), ClassifyMissesJob{}};
}

TraceEntry TraceEntry::memory(std::string name,
                              std::shared_ptr<const trace::Trace> t) {
  TraceEntry entry;
  entry.open = [label = name, t = std::move(t)] {
    if (!t)
      throw std::invalid_argument("trace '" + label +
                                  "' has no data attached");
    return std::make_unique<tracestore::MemorySource>(t);
  };
  entry.name = std::move(name);
  return entry;
}

TraceEntry TraceEntry::file(std::string name, std::string path,
                            bool streaming) {
  TraceEntry entry;
  entry.name = std::move(name);
  if (streaming) {
    entry.open = [path = std::move(path)] {
      return tracestore::open_trace_source(path);
    };
    return entry;
  }
  // Loaded by the first open (campaign construction resolves metadata,
  // so that is where a load error surfaces) and shared by every copy of
  // the entry. A failed load is retried by the next open.
  struct Loaded {
    std::mutex mutex;
    std::shared_ptr<const trace::Trace> trace;
  };
  entry.open = [path = std::move(path), loaded = std::make_shared<Loaded>()] {
    std::lock_guard lock(loaded->mutex);
    if (!loaded->trace)
      loaded->trace = std::make_shared<const trace::Trace>(
          tracestore::load_trace_any(path));
    return std::make_unique<tracestore::MemorySource>(loaded->trace);
  };
  return entry;
}

TraceEntry TraceEntry::source(std::string name, Opener factory,
                              tracestore::TraceId id) {
  TraceEntry entry;
  entry.open = [label = name, factory = std::move(factory)] {
    if (!factory)
      throw std::invalid_argument("trace '" + label +
                                  "' has no source factory");
    std::unique_ptr<tracestore::TraceSource> source = factory();
    if (!source)
      throw std::runtime_error("trace '" + label +
                               "': source factory returned null");
    return source;
  };
  entry.name = std::move(name);
  entry.id = id;
  return entry;
}

void resolve_metadata(TraceEntry& entry) {
  if (entry.accesses) return;
  if (!entry.open)
    throw std::invalid_argument("campaign trace '" + entry.name +
                                "' has no source");
  const std::unique_ptr<tracestore::TraceSource> source = entry.open();
  if (entry.id.empty()) {
    if (const auto* v2 =
            dynamic_cast<const tracestore::MmapTraceReader*>(source.get())) {
      entry.id = v2->info().id;  // header metadata; the body stays on disk
    } else {
      tracestore::TraceIdHasher hasher;
      tracestore::for_each_access(
          *source, [&hasher](const trace::Access& a) { hasher.update(a); });
      entry.id = hasher.digest();
    }
  }
  entry.accesses = source->size();
}

Campaign::Campaign(SweepSpec spec,
                   std::shared_ptr<ProfileCache> shared_profiles)
    : spec_(std::move(spec)),
      profile_cache_(shared_profiles ? std::move(shared_profiles)
                                     : std::make_shared<ProfileCache>()) {
  for (TraceEntry& entry : spec_.traces) resolve_metadata(entry);
  for (const cache::CacheGeometry& geom : spec_.geometries)
    if (geom.index_bits() > spec_.hashed_bits)
      throw std::invalid_argument(
          "geometry " + geom.to_string() + " needs " +
          std::to_string(geom.index_bits()) +
          " index bits but the sweep hashes only " +
          std::to_string(spec_.hashed_bits) +
          " address bits (m <= n required)");
  jobs_.reserve(spec_.job_count());
  for (std::size_t t = 0; t < spec_.traces.size(); ++t)
    for (std::size_t g = 0; g < spec_.geometries.size(); ++g)
      for (std::size_t c = 0; c < spec_.configs.size(); ++c)
        jobs_.push_back({t, g, c, spec_.configs[c].label,
                         spec_.configs[c].payload});
}

cache::CacheStats Campaign::baseline_stats(std::size_t trace_index,
                                           std::size_t geometry_index) {
  const std::size_t key =
      trace_index * spec_.geometries.size() + geometry_index;
  // Build-once like the ProfileCache: the first requester simulates, the
  // jobs of the same cell that start concurrently wait on the shared
  // future instead of each re-running the full-trace pass.
  std::promise<cache::CacheStats> promise;
  std::shared_future<cache::CacheStats> future;
  bool builder = false;
  {
    std::lock_guard lock(baseline_mutex_);
    auto [it, inserted] = baselines_.try_emplace(key);
    if (inserted) {
      it->second = promise.get_future().share();
      builder = true;
    }
    future = it->second;
  }
  if (builder) {
    try {
      const TraceEntry& entry = spec_.traces[trace_index];
      const cache::CacheGeometry& geom = spec_.geometries[geometry_index];
      const hash::XorFunction conventional = hash::XorFunction::conventional(
          spec_.hashed_bits, geom.index_bits());
      const std::unique_ptr<tracestore::TraceSource> source = entry.open();
      promise.set_value(
          cache::simulate_direct_mapped(*source, geom, conventional));
    } catch (...) {
      promise.set_exception(std::current_exception());
      std::lock_guard lock(baseline_mutex_);
      baselines_.erase(key);  // don't cache the failure
    }
  }
  return future.get();
}

ProfileCache::ProfilePtr Campaign::profile_of(const TraceEntry& entry,
                                              const cache::CacheGeometry& geom) {
  const std::unique_ptr<tracestore::TraceSource> source = entry.open();
  return profile_cache_->get_or_build(entry.id, *source, geom,
                                      spec_.hashed_bits);
}

std::exception_ptr Campaign::wrap_current_exception(const Job& job) const {
  const TraceEntry& entry = spec_.traces[job.trace_index];
  const cache::CacheGeometry& geom = spec_.geometries[job.geometry_index];
  try {
    throw;
  } catch (const CampaignError&) {
    return std::current_exception();
  } catch (const std::invalid_argument& e) {
    return std::make_exception_ptr(
        CampaignError(entry.name, geom, job.label, e.what(),
                      CampaignError::Cause::invalid_argument));
  } catch (const std::exception& e) {
    return std::make_exception_ptr(
        CampaignError(entry.name, geom, job.label, e.what()));
  } catch (...) {
    return std::make_exception_ptr(
        CampaignError(entry.name, geom, job.label, "unknown error",
                      CampaignError::Cause::unknown));
  }
}

JobResult Campaign::execute(const Job& job,
                             ProfileCache::ProfilePtr prepared) {
  const TraceEntry& entry = spec_.traces[job.trace_index];
  const cache::CacheGeometry& geom = spec_.geometries[job.geometry_index];

  XORIDX_SPAN_NAMED(span, "engine", "job");
  XORIDX_SPAN_DETAIL(span, entry.name + " " + geom.to_string() + " " +
                               job.label);

  JobResult result;
  result.trace_name = entry.name;
  result.geometry = geom;
  result.label = job.label;
  result.kind = kind_name(job.payload);

  // Every pass below pulls a fresh source from the entry, whatever backs
  // the trace: decoded memory stays O(chunk) per running job for a
  // streamed file, and an in-memory trace is read zero-copy.
  struct Visitor {
    Campaign& self;
    const Job& job;
    const TraceEntry& entry;
    const cache::CacheGeometry& geom;
    const ProfileCache::ProfilePtr& prepared;
    JobResult& out;

    /// The profile prelude's result, or — when the prelude failed — an
    /// inline retry whose error this cell reports.
    [[nodiscard]] ProfileCache::ProfilePtr profile() const {
      return prepared ? prepared : self.profile_of(entry, geom);
    }

    void operator()(const EvaluateFunctionJob& j) const {
      const cache::CacheStats baseline =
          self.baseline_stats(job.trace_index, job.geometry_index);
      out.baseline_misses = baseline.misses;
      if (!j.fully_associative && !j.function) {
        // Conventional index: the cached baseline run.
        out.accesses = baseline.accesses;
        out.misses = baseline.misses;
        return;
      }
      const std::unique_ptr<tracestore::TraceSource> source = entry.open();
      const cache::CacheStats stats =
          j.fully_associative
              ? cache::simulate_fully_associative(*source, geom)
              : cache::simulate_direct_mapped(*source, geom, *j.function);
      out.accesses = stats.accesses;
      out.misses = stats.misses;
      out.function_description = j.fully_associative
                                     ? "fully-associative LRU"
                                     : j.function->describe();
    }

    void operator()(const OptimizeIndexJob& j) const {
      const ProfileCache::ProfilePtr prof = profile();
      search::OptimizeOptions options;
      options.hashed_bits = self.spec_.hashed_bits;
      options.search.function_class = j.function_class;
      options.search.max_fan_in = j.max_fan_in;
      options.search.random_restarts = j.random_restarts;
      options.search.seed = j.seed;
      options.search.threads = j.threads;
      options.revert_if_worse = j.revert_if_worse;
      // The conventional-index run is memoized per (trace, geometry);
      // passing it in saves every optimize job a full-trace pass.
      const cache::CacheStats baseline =
          self.baseline_stats(job.trace_index, job.geometry_index);
      const std::unique_ptr<tracestore::TraceSource> source = entry.open();
      const search::OptimizationResult r = search::optimize_index_with_profile(
          *source, geom, *prof, options, &baseline);
      out.accesses = r.accesses;
      out.baseline_misses = r.baseline_misses;
      out.misses = r.optimized_misses;
      out.estimated_misses = r.estimated_misses;
      out.reverted = r.reverted;
      out.function_description = r.function->describe();
    }

    void operator()(const OptimalBitSelectJob& j) const {
      out.baseline_misses =
          self.baseline_stats(job.trace_index, job.geometry_index).misses;
      const std::unique_ptr<tracestore::TraceSource> source = entry.open();
      // The exact search extracts block addresses once (O(trace)
      // uint64s, the one documented exception to the O(chunk) bound)
      // instead of paying C(n, m) decode passes.
      const search::ExhaustiveBitSelectResult r =
          j.use_estimator
              ? search::optimal_bit_select_estimated(*source, geom,
                                                     *profile())
              : search::optimal_bit_select(*source, geom,
                                           self.spec_.hashed_bits);
      out.accesses = *entry.accesses;
      out.misses = r.misses;
      out.function_description = r.function.describe();
    }

    void operator()(const ClassifyMissesJob&) const {
      const hash::XorFunction conventional = hash::XorFunction::conventional(
          self.spec_.hashed_bits, geom.index_bits());
      const std::unique_ptr<tracestore::TraceSource> source = entry.open();
      const cache::MissBreakdown b =
          cache::classify_misses(*source, geom, conventional);
      out.accesses = b.accesses;
      out.baseline_misses = b.misses;
      out.misses = b.misses;
      out.breakdown = b;
      out.function_description = "conventional";
    }
  };
  std::visit(Visitor{*this, job, entry, geom, prepared, result},
             job.payload);
  XORIDX_OBS_COUNT("engine.jobs_completed", 1);
  return result;
}

std::exception_ptr Campaign::execute_graph(const CampaignOptions& options,
                                           bool fail_fast,
                                           const CellCallback& on_cell,
                                           std::vector<CellOutcome>& outcomes) {
  outcomes.assign(jobs_.size(), CellOutcome{});

  // Ordered-prefix emission state: cells settle in completion order but
  // stream to the sink/callback in spec order, so a run with N threads
  // (or on a shared pool) emits bytes identical to a serial run.
  std::mutex emit_mutex;
  std::vector<char> settled(jobs_.size(), 0);
  std::size_t emitted = 0;
  std::exception_ptr first_error;
  std::atomic<bool> error_seen{false};
  bool sink_failed = false;

  const auto emit_prefix_locked = [&] {
    while (emitted < jobs_.size() && settled[emitted]) {
      const CellOutcome& out = outcomes[emitted];
      if (on_cell) on_cell(emitted, out);
      // A throwing sink must not escape a pool task (std::terminate);
      // record it like a job failure and stop emitting.
      if (options.sink && out.state == CellState::done && !first_error &&
          !sink_failed) {
        try {
          options.sink->write(out.result);
        } catch (...) {
          first_error = std::current_exception();
          error_seen.store(true, std::memory_order_relaxed);
          sink_failed = true;
        }
      }
      ++emitted;
    }
  };

  const auto settle = [&](std::size_t i, CellOutcome out) {
    std::lock_guard lock(emit_mutex);
    if (out.state == CellState::failed && !first_error) {
      first_error = out.error;
      error_seen.store(true, std::memory_order_relaxed);
    }
    outcomes[i] = std::move(out);
    settled[i] = 1;
    emit_prefix_locked();
  };

  // One graph node per cell, plus up to two prelude nodes per (trace,
  // geometry) group for the shared prefixes its cells read: the
  // conventional-index baseline, and the Figure-1 profile. Each runs
  // once, before its dependents, instead of the first cell building it
  // while its siblings park on a future inside pool workers. The
  // profile prelude hands its ProfilePtr to the group's readers through
  // a slot, so a byte-budget eviction between prelude and cells cannot
  // force a rebuild; the last reader releases it. Prelude failures are
  // swallowed — the failed build is uncached (and the slot stays
  // empty), so each dependent retries inline and the error surfaces
  // attributed to a cell, exactly as the blocking path reported it.
  struct ProfileSlot {
    ProfileCache::ProfilePtr profile;
    std::atomic<std::size_t> readers{0};  ///< cells yet to take it
  };
  bool needs_baseline = false;
  std::size_t profile_readers = 0;  // per group
  for (const FunctionConfig& config : spec_.configs) {
    if (!std::holds_alternative<ClassifyMissesJob>(config.payload))
      needs_baseline = true;
    if (reads_profile(config.payload)) ++profile_readers;
  }
  std::vector<ProfileSlot> slots(spec_.traces.size() *
                                 spec_.geometries.size());
  for (ProfileSlot& slot : slots)
    slot.readers.store(profile_readers, std::memory_order_relaxed);

  JobGraph graph;
  std::vector<JobGraph::NodeId> cell_nodes(jobs_.size());
  std::size_t flat = 0;  // (t, g)-major flat index into jobs_
  for (std::size_t t = 0; t < spec_.traces.size(); ++t) {
    for (std::size_t g = 0; g < spec_.geometries.size(); ++g) {
      ProfileSlot& slot = slots[t * spec_.geometries.size() + g];
      std::vector<JobGraph::NodeId> deps;
      if (needs_baseline) {
        deps.push_back(graph.add([this, t, g, fail_fast, &error_seen] {
          if (fail_fast && error_seen.load(std::memory_order_relaxed))
            return;
          try {
            (void)baseline_stats(t, g);
          } catch (...) {
            // Dependents retry and attribute (see above).
          }
        }));
      }
      std::vector<JobGraph::NodeId> profile_deps = deps;
      if (profile_readers > 0) {
        profile_deps.push_back(
            graph.add([this, t, g, fail_fast, &error_seen, &slot] {
              if (fail_fast && error_seen.load(std::memory_order_relaxed))
                return;
              try {
                slot.profile =
                    profile_of(spec_.traces[t], spec_.geometries[g]);
              } catch (...) {
                // Dependents retry and attribute (see above).
              }
            }));
      }
      for (std::size_t c = 0; c < spec_.configs.size(); ++c, ++flat) {
        const std::size_t i = flat;
        const bool reader = reads_profile(spec_.configs[c].payload);
        cell_nodes[i] = graph.add(
            [this, i, fail_fast, &error_seen, &settle,
             slot = reader ? &slot : nullptr] {
              ProfileCache::ProfilePtr prepared;
              if (slot != nullptr) {
                prepared = slot->profile;
                if (slot->readers.fetch_sub(1, std::memory_order_acq_rel) ==
                    1)
                  slot->profile.reset();
              }
              if (fail_fast && error_seen.load(std::memory_order_relaxed)) {
                // Skipped: run() discards outcomes on the error path, so
                // the defaulted outcome is never read.
                settle(i, CellOutcome{});
                return;
              }
              CellOutcome out;
              try {
                out.result = execute(jobs_[i], std::move(prepared));
              } catch (...) {
                out.state = CellState::failed;
                out.error = wrap_current_exception(jobs_[i]);
              }
              settle(i, std::move(out));
            },
            reader ? profile_deps : deps);
      }
    }
  }

  if (options.pool != nullptr) {
    graph.run(options.pool, options.cancel);
  } else {
    const unsigned threads = options.num_threads == 0
                                 ? ThreadPool::default_threads()
                                 : options.num_threads;
    if (threads <= 1 || jobs_.size() <= 1) {
      graph.run(nullptr, options.cancel);
    } else {
      ThreadPool pool(threads);
      graph.run(&pool, options.cancel);
    }
  }

  // Cells the graph cancelled never ran their settle: mark them now and
  // flush the rest of the ordered prefix to the callback.
  {
    std::lock_guard lock(emit_mutex);
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (settled[i]) continue;
      if (graph.outcome(cell_nodes[i]).state !=
          JobGraph::NodeState::cancelled)
        continue;  // unreachable: every uncancelled cell settles itself
      outcomes[i].state = CellState::cancelled;
      settled[i] = 1;
    }
    emit_prefix_locked();
  }
  return first_error;
}

std::vector<JobResult> Campaign::run(const CampaignOptions& options) {
  if (options.sink) options.sink->begin();

  // Terminate the sink on a failure path without letting a throwing
  // end() mask the error being surfaced.
  const auto end_sink_noexcept = [&options]() noexcept {
    if (!options.sink) return;
    try {
      options.sink->end();
    } catch (...) {
    }
  };

  std::vector<CellOutcome> outcomes;
  std::exception_ptr first_error;
  try {
    first_error = execute_graph(options, /*fail_fast=*/true, {}, outcomes);
  } catch (...) {
    end_sink_noexcept();
    throw;
  }
  if (first_error) {
    end_sink_noexcept();  // the recorded job failure wins
    std::rethrow_exception(first_error);
  }
  if (options.cancel.cancelled()) {
    end_sink_noexcept();  // partial but well-formed streamed output
    throw CampaignCancelled();
  }
  if (options.sink) options.sink->end();

  std::vector<JobResult> results;
  results.reserve(outcomes.size());
  for (CellOutcome& out : outcomes) results.push_back(std::move(out.result));
  return results;
}

std::vector<CellOutcome> Campaign::run_cells(const CampaignOptions& options,
                                             const CellCallback& on_cell) {
  if (options.sink) options.sink->begin();
  std::vector<CellOutcome> outcomes;
  (void)execute_graph(options, /*fail_fast=*/false, on_cell, outcomes);
  if (options.sink) options.sink->end();
  return outcomes;
}

}  // namespace xoridx::engine
