// Explorer: the one entry point for the paper's profile -> search ->
// re-simulate flow, over any mix of traces, cache geometries and
// strategies.
//
// A declarative ExplorationRequest (TraceRefs x GeometrySpecs x
// Strategies) lowers onto engine::Campaign: profiles are deduplicated
// per (trace content, geometry), jobs run on the thread pool, results
// aggregate deterministically in request order, and every failure —
// bad request field, missing file, corrupt header, or a job blowing up
// mid-sweep — comes back as a Status instead of an exception, with the
// failing (trace, geometry, strategy) cell attached when one is known.
//
// Single-cell conveniences (profile / tune / simulate / trace_info /
// convert_trace) cover the CLI-style one-shot operations through the
// same TraceRef + Status model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/status.hpp"
#include "api/strategy.hpp"
#include "api/trace_ref.hpp"
#include "cache/geometry.hpp"
#include "cache/simulate.hpp"
#include "engine/cancellation.hpp"
#include "engine/report.hpp"
#include "hash/index_function.hpp"
#include "profile/conflict_profile.hpp"
#include "search/optimizer.hpp"
#include "search/search_types.hpp"
#include "tracestore/reader.hpp"
#include "tracestore/store.hpp"

namespace xoridx::api {

// Result rows and sinks are the engine's types, re-exported: the facade
// adds discovery and error handling, not another serialization layer.
using Row = engine::JobResult;
using engine::CsvSink;
using engine::JsonSink;
using engine::NullSink;
using engine::ResultSink;

/// Unvalidated cache-geometry parameters. Unlike cache::CacheGeometry
/// (whose constructor throws), a GeometrySpec can hold any values;
/// validation happens inside the API and yields a Status naming the bad
/// geometry.
struct GeometrySpec {
  std::uint32_t size_bytes = 4096;
  std::uint32_t block_bytes = 4;
  std::uint32_t associativity = 1;

  GeometrySpec() = default;
  GeometrySpec(std::uint32_t size, std::uint32_t block = 4,
               std::uint32_t assoc = 1)
      : size_bytes(size), block_bytes(block), associativity(assoc) {}
  GeometrySpec(const cache::CacheGeometry& g)  // NOLINT: lossless adapter
      : size_bytes(g.size_bytes),
        block_bytes(g.block_bytes),
        associativity(g.associativity) {}

  [[nodiscard]] Result<cache::CacheGeometry> validate() const;
  [[nodiscard]] std::string to_string() const;
};

struct ExplorationRequest {
  std::vector<TraceRef> traces;
  std::vector<GeometrySpec> geometries;
  std::vector<Strategy> strategies;
  int hashed_bits = 16;  ///< the paper's n
  /// 0 = one worker per hardware thread; 1 = serial reference path.
  unsigned num_threads = 0;
  /// Results stream here in request order as the ordered prefix
  /// completes (optional).
  ResultSink* sink = nullptr;
  /// Checked at cell boundaries: running cells finish, unstarted cells
  /// are abandoned and the run surfaces StatusCode::cancelled (explore)
  /// or per-cell cancelled errors (run_shard). Default never fires. Not
  /// part of the request's structural identity (shard fingerprints and
  /// the daemon's memo key ignore it, like num_threads and sink).
  engine::CancellationToken cancel;
  /// LRU byte budget for this run's profile cache (0 = unlimited).
  /// Ignored when the campaign runs on a shared daemon cache, whose
  /// owner sets the budget. Like num_threads, not part of the request's
  /// structural identity.
  std::size_t profile_cache_bytes = 0;

  [[nodiscard]] std::size_t job_count() const {
    return traces.size() * geometries.size() * strategies.size();
  }
};

/// Aggregated results of one exploration, in request order.
struct Report {
  std::vector<Row> rows;  ///< trace-major, then geometry, then strategy
  std::vector<std::string> trace_names;
  std::vector<cache::CacheGeometry> geometries;
  std::vector<std::string> strategy_labels;
  std::uint64_t profiles_built = 0;   ///< distinct ConflictProfiles
  std::uint64_t profiles_shared = 0;  ///< cache hits across cells

  [[nodiscard]] std::size_t index(std::size_t trace, std::size_t geometry,
                                  std::size_t strategy) const {
    return (trace * geometries.size() + geometry) * strategy_labels.size() +
           strategy;
  }
  [[nodiscard]] const Row& at(std::size_t trace, std::size_t geometry,
                              std::size_t strategy) const {
    return rows[index(trace, geometry, strategy)];
  }
};

class Explorer {
 public:
  /// Validate and run the whole request. Never throws: every failure is
  /// a Status (request validation errors name the bad field; job
  /// failures name the failing cell).
  [[nodiscard]] static Result<Report> explore(
      const ExplorationRequest& request);
};

/// Worker count a request with num_threads = 0 would use.
[[nodiscard]] unsigned default_threads();

// ------------------------------------------------- one-shot operations

/// Build the Figure-1 conflict profile of one (trace, geometry).
/// (Named build_profile, not profile, so the xoridx::profile namespace
/// stays reachable from code using `namespace xoridx::api`.)
[[nodiscard]] Result<xoridx::profile::ConflictProfile> build_profile(
    const TraceRef& trace, const GeometrySpec& geometry,
    int hashed_bits = 16);

/// Outcome of a single-cell search (api::tune): the winning function
/// with the exact before/after numbers — the search layer's result
/// type, re-exported like Row/ConflictProfile/MissBreakdown.
using TuneOutcome = search::OptimizationResult;

/// Profile + search + exact re-simulation for one search strategy
/// ("perm", "xor", "bitselect", with options). Non-search strategies
/// ("base", "fa", "3c", "bitselect:exact") are rejected with a Status.
[[nodiscard]] Result<TuneOutcome> tune(const TraceRef& trace,
                                       const GeometrySpec& geometry,
                                       const Strategy& strategy,
                                       int hashed_bits = 16);

/// Exact 3C-classified simulation of one function over one trace; a
/// null `function` simulates the conventional modulo index over
/// `hashed_bits` address bits, which must be in [1, 64].
[[nodiscard]] Result<cache::MissBreakdown> simulate(
    const TraceRef& trace, const GeometrySpec& geometry,
    const hash::IndexFunction* function = nullptr, int hashed_bits = 16);

// --------------------------------------------- trace-file utilities

/// Header-level metadata of a v1/v2 trace file.
[[nodiscard]] Result<tracestore::TraceFileInfo> trace_info(
    const std::string& path);

struct ConversionSummary {
  tracestore::TraceFormat format = tracestore::TraceFormat::v2;
  tracestore::TraceId id;
  std::uint64_t accesses = 0;
  std::uint64_t file_bytes = 0;
};

/// Convert between the v1 and v2 on-disk formats, streaming.
[[nodiscard]] Result<ConversionSummary> convert_trace(
    const std::string& in_path, const std::string& out_path,
    tracestore::TraceFormat to,
    std::uint32_t chunk_capacity = tracestore::default_chunk_capacity);

}  // namespace xoridx::api
