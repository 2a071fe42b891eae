// stream-resim: one seeded synthetic loop-nest trace, written as a v2
// file during set-up and streamed through TraceRef::streaming (mmap) by
// Explorer::explore with strategies base,fa,3c on 1/4/16 KB direct-mapped
// caches and two engine threads. No profile or search runs, so v2 decode
// plus direct-mapped, fully-associative and 3C simulation is the whole
// timed phase.
//
// Outputs are checked against an independent, deliberately plain
// simulator in this file, run on the generator's own access stream.
#include <algorithm>
#include <list>
#include <random>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "common.hpp"
#include "hash/xor_function.hpp"
#include "tracestore/writer.hpp"
#include "workloads/workload.hpp"
#include "xoridx/api.hpp"

namespace perfbench {
namespace {

using namespace xoridx;

constexpr unsigned engine_threads = 2;
constexpr int hashed_bits = 16;
constexpr int setup_repeats = 3;
// 25 calls x 9 rows keep at least 10 row latencies beyond p95.
constexpr std::size_t min_calls = 25;
const char* const trace_name = "stream";

std::vector<cache::CacheGeometry> geometries() {
  return {cache::CacheGeometry(1024, 4, 1), cache::CacheGeometry(4096, 4, 1),
          cache::CacheGeometry(16384, 4, 1)};
}

/// A seeded loop-nest program over a fixed pool of 4-byte-element arrays
/// of 0.5 to 24 KB. The pool's bases sit 32 KB apart plus a fixed offset
/// below 4 KB, so the arrays collide in every modelled cache (conflict
/// misses), while the phases' footprints range from under 1 KB to beyond
/// 16 KB (hits at one size, capacity misses at another). A phase is one
/// loop nest (triad, 5-point stencil, transpose or table lookup) over up
/// to three arrays, at most 4096 accesses long. The program is a fixed
/// multiset of phases: 96 templates, 4 times each. The seed sets their
/// order and the table-lookup indices, so seeds differ in the cache
/// state each phase starts from while the trace's length and miss mix,
/// and so the cost of simulating it, barely move from seed to seed.
/// Calls emit(addr, kind) for each access.
template <typename Emit>
void synth_loop_nest(std::uint64_t seed, Emit&& emit) {
  constexpr std::uint64_t phase_cap = 4096;
  constexpr int templates = 96;
  constexpr int copies = 4;
  struct Array {
    std::uint64_t base;
    std::uint64_t elems;
  };
  std::vector<Array> arrays;
  for (const std::uint64_t bytes :
       {512, 1024, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576}) {
    for (int copy = 0; copy < 2; ++copy)
      arrays.push_back({0x10000000 + (arrays.size() << 15) +
                            (arrays.size() * 1608 % 4096 & ~std::uint64_t{63}),
                        bytes / 4});
  }
  struct Phase {
    int kernel;
    std::size_t a, b, c;
    std::uint64_t reps, shape;
  };
  std::mt19937_64 fixed(0x10095eed);  // the templates do not vary
  std::vector<Phase> phases;
  for (int t = 0; t < templates; ++t) {
    const Phase p{t % 4,
                  fixed() % arrays.size(),
                  fixed() % arrays.size(),
                  fixed() % arrays.size(),
                  1 + fixed() % 3,
                  fixed() % 64};
    for (int copy = 0; copy < copies; ++copy) phases.push_back(p);
  }
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 0x5eed);
  std::shuffle(phases.begin(), phases.end(), rng);

  std::uint64_t phase_left = 0;
  const auto live = [&] { return phase_left > 0; };
  const auto access = [&](const Array& a, std::uint64_t i,
                          trace::AccessKind kind) {
    if (!live()) return;
    emit(a.base + 4 * (i % a.elems), kind);
    --phase_left;
  };
  using trace::AccessKind;
  for (const Phase& p : phases) {
    const Array& a = arrays[p.a];
    const Array& b = arrays[p.b];
    const Array& c = arrays[p.c];
    phase_left = phase_cap;
    switch (p.kernel) {
      case 0:  // triad: a[i] = b[i] + s * c[i]
        for (std::uint64_t r = 0; r < p.reps; ++r)
          for (std::uint64_t i = 0; i < a.elems && live(); ++i) {
            access(b, i, AccessKind::read);
            access(c, i, AccessKind::read);
            access(a, i, AccessKind::write);
          }
        break;
      case 1: {  // 5-point stencil over a rows x 32 grid, b = f(a)
        const std::uint64_t cols = 32;
        const std::uint64_t rows = std::max<std::uint64_t>(3, a.elems / cols);
        for (std::uint64_t r = 0; r < p.reps; ++r)
          for (std::uint64_t y = 1; y + 1 < rows && live(); ++y)
            for (std::uint64_t x = 1; x + 1 < cols; ++x) {
              access(a, (y - 1) * cols + x, AccessKind::read);
              access(a, y * cols + x - 1, AccessKind::read);
              access(a, y * cols + x, AccessKind::read);
              access(a, y * cols + x + 1, AccessKind::read);
              access(a, (y + 1) * cols + x, AccessKind::read);
              access(b, y * cols + x, AccessKind::write);
            }
        break;
      }
      case 2: {  // transpose: b[x][y] = a[y][x], strided writes
        const std::uint64_t n = 8 + p.shape;
        for (std::uint64_t r = 0; r < p.reps; ++r)
          for (std::uint64_t y = 0; y < n && live(); ++y)
            for (std::uint64_t x = 0; x < 64; ++x) {
              access(a, y * 64 + x, AccessKind::read);
              access(b, x * n + y, AccessKind::write);
            }
        break;
      }
      default: {  // table lookup: c[i] = t[hash(b[i])], t = head of a
        const std::uint64_t table = 64 << (p.shape % 4);  // 256 B .. 2 KB
        std::uint64_t h = rng();
        for (std::uint64_t i = 0; i < b.elems * p.reps && live(); ++i) {
          access(b, i, AccessKind::read);
          h = h * 6364136223846793005ull + 1442695040888963407ull;
          access(a, (h >> 33) % table, AccessKind::read);
          access(c, i, AccessKind::write);
        }
        break;
      }
    }
  }
}

/// Write the seeded trace as a v2 file; returns seconds spent inside the
/// tracestore writer (generation excluded).
double write_trace(std::uint64_t seed, const std::string& path,
                   Tracer& tracer) {
  std::vector<trace::Access> batch;
  batch.reserve(1 << 16);
  double write_s = 0;
  tracestore::TraceWriter writer(path);
  const auto flush = [&] {
    const double t0 = now_s();
    auto span = tracer.span("tracestore.write");
    for (const trace::Access& a : batch) writer.append(a);
    batch.clear();
    write_s += now_s() - t0;
  };
  synth_loop_nest(seed,
                  [&](std::uint64_t addr, trace::AccessKind kind) {
                    batch.push_back({addr, kind});
                    if (batch.size() == batch.capacity()) flush();
                  });
  flush();
  const double t0 = now_s();
  {
    auto span = tracer.span("tracestore.write");
    writer.finish();
  }
  return write_s + now_s() - t0;
}

/// The base, fa and 3c rows of one geometry, as CsvSink writes them.
std::vector<std::string> cell_rows(const cache::CacheGeometry& g,
                                   std::uint64_t dm_misses,
                                   std::uint64_t fa_misses,
                                   const cache::MissBreakdown& breakdown) {
  engine::JobResult row;
  row.trace_name = trace_name;
  row.geometry = g;
  row.accesses = breakdown.accesses;
  row.baseline_misses = dm_misses;
  row.label = "base";
  row.kind = "evaluate";
  row.misses = dm_misses;
  std::vector<std::string> rows{engine::csv_row(row)};
  row.label = "fa";
  row.kind = "evaluate-fa";
  row.misses = fa_misses;
  row.function_description = "fully-associative LRU";
  rows.push_back(engine::csv_row(row));
  row.label = "3c";
  row.kind = "classify";
  row.misses = breakdown.misses;
  row.breakdown = breakdown;
  row.function_description = "conventional";
  rows.push_back(engine::csv_row(row));
  return rows;
}

/// Expected rows from a plain simulator: a line array for the modulo
/// index, a list-based LRU stack for the fully-associative cache, and a
/// seen-set for compulsory misses (Hill's 3C rules).
std::vector<std::string> oracle(std::uint64_t seed) {
  struct Model {
    cache::CacheGeometry geometry;
    std::vector<std::uint64_t> lines;
    std::vector<bool> valid;
    std::list<std::uint64_t> lru;
    std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator>
        where;
    cache::MissBreakdown b;
    std::uint64_t fa_misses = 0;
  };
  std::vector<Model> models;
  for (const cache::CacheGeometry& g : geometries()) {
    Model m{g, std::vector<std::uint64_t>(g.num_sets()),
            std::vector<bool>(g.num_sets()), {}, {}, {}, 0};
    models.push_back(std::move(m));
  }
  std::unordered_set<std::uint64_t> seen;
  synth_loop_nest(seed, [&](std::uint64_t addr, trace::AccessKind) {
    const std::uint64_t block = addr >> 2;
    const bool first = seen.insert(block).second;
    for (Model& m : models) {
      ++m.b.accesses;
      const std::uint64_t capacity = m.geometry.num_sets();
      bool fa_hit = false;
      if (const auto it = m.where.find(block); it != m.where.end()) {
        m.lru.splice(m.lru.begin(), m.lru, it->second);
        fa_hit = true;
      } else {
        ++m.fa_misses;
        m.lru.push_front(block);
        m.where[block] = m.lru.begin();
        if (m.lru.size() > capacity) {
          m.where.erase(m.lru.back());
          m.lru.pop_back();
        }
      }
      const std::uint64_t set = block % capacity;
      if (m.valid[set] && m.lines[set] == block) continue;
      m.valid[set] = true;
      m.lines[set] = block;
      ++m.b.misses;
      if (first)
        ++m.b.compulsory;
      else if (!fa_hit)
        ++m.b.capacity;
      else
        ++m.b.conflict;
    }
  });
  std::vector<std::string> rows;
  for (const Model& m : models)
    for (std::string& row : cell_rows(m.geometry, m.b.misses, m.fa_misses, m.b))
      rows.push_back(std::move(row));
  return rows;
}

/// The benchmark's span around MmapTraceReader: every batch the cache
/// layer pulls is timed as a child span of the simulation call.
class TimedSource final : public tracestore::TraceSource {
 public:
  TimedSource(std::unique_ptr<tracestore::TraceSource> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  std::size_t next_batch(std::span<trace::Access> out) override {
    const double t0 = now_s();
    auto span = tracer_.span("tracestore.decode");
    const std::size_t n = inner_->next_batch(out);
    seconds += now_s() - t0;
    return n;
  }
  void reset() override { inner_->reset(); }
  [[nodiscard]] std::uint64_t size() const override { return inner_->size(); }

  double seconds = 0;

 private:
  std::unique_ptr<tracestore::TraceSource> inner_;
  Tracer& tracer_;
};

struct LayerTotals {
  std::map<std::string, std::pair<double, std::uint64_t>> by_layer;  // s, n
  double decode_s = 0;
  std::uint64_t decoded = 0;
};

/// The cells of one geometry, serially, through the cache module's
/// streaming entry points. Appends their CSV rows to `rows`.
void decompose(const api::TraceRef& ref, const cache::CacheGeometry& g,
               Tracer& tracer, LayerTotals& totals,
               std::vector<std::string>& rows) {
  const hash::XorFunction conventional =
      hash::XorFunction::conventional(hashed_bits, g.index_bits());
  const auto run = [&](const char* layer, auto&& call) {
    TimedSource source(ref.open().value(), tracer);
    const double t0 = now_s();
    auto out = [&] {
      auto span = tracer.span(layer);
      return call(source);
    }();
    auto& [seconds, accesses] = totals.by_layer[layer];
    seconds += now_s() - t0 - source.seconds;
    accesses += source.size();
    totals.decode_s += source.seconds;
    totals.decoded += source.size();
    return out;
  };
  const cache::CacheStats dm = run("cache.dm", [&](TimedSource& s) {
    return cache::simulate_direct_mapped(s, g, conventional);
  });
  const cache::CacheStats fa = run("cache.fa", [&](TimedSource& s) {
    return cache::simulate_fully_associative(s, g);
  });
  const cache::MissBreakdown b = run("cache.classify", [&](TimedSource& s) {
    return cache::classify_misses(s, g, conventional);
  });
  for (std::string& row : cell_rows(g, dm.misses, fa.misses, b))
    rows.push_back(std::move(row));
}

Reference reference_of(const std::vector<std::string>& rows) {
  Reference ref;
  for (const std::string& row : rows) ref.add(row);
  return ref;
}

}  // namespace

Result run_stream_resim(const Options& o) {
  Result result;
  const std::string path =
      o.work_dir + "/stream-" + std::to_string(o.seed) + ".v2";
  Tracer setup_tracer;
  setup_tracer.set_enabled(o.trace);
  std::vector<double> setups;
  std::vector<double> writes;
  for (int i = 0; i < setup_repeats; ++i) {
    const double t0 = now_s();
    writes.push_back(write_trace(o.seed, path, setup_tracer));
    setups.push_back(now_s() - t0);
  }
  const api::TraceRef ref = api::TraceRef::streaming(trace_name, path);
  const std::uint64_t accesses = ref.open().value()->size();

  api::ExplorationRequest base_request;
  base_request.traces.push_back(ref);
  for (const cache::CacheGeometry& g : geometries())
    base_request.geometries.emplace_back(g);
  base_request.strategies = api::parse_strategies("base,fa,3c").value();
  base_request.hashed_bits = hashed_bits;
  base_request.num_threads = engine_threads;

  if (!o.trace) {
    CampaignRuns runs;
    runs.setups = setups;
    std::vector<std::vector<std::string>> outputs;
    run_calls(base_request, o.seconds, min_calls, runs,
              [&](bool ok, std::vector<std::string> rows) {
                outputs.push_back(ok ? std::move(rows)
                                     : std::vector<std::string>{});
              });
    const std::vector<std::string> expected_rows = oracle(o.seed);
    const Reference expected = reference_of(expected_rows);
    for (const std::vector<std::string>& rows : outputs) {
      result.attempted += expected.size();
      result.failed += expected.mismatches(rows);
    }
    runs.accesses = accesses * expected.size();
    // No optimize rows here: the figure is the share of direct-mapped
    // misses the equal-capacity fully-associative cache removes.
    set_campaign_metrics(result, runs,
                         mean_percent_removed(expected_rows, "evaluate-fa"));
    result.notes.push_back(
        "misses_removed_pct here is the mean share of direct-mapped misses "
        "an equal-capacity fully-associative LRU cache removes");
    for (const std::string& row : expected_rows) {
      if (csv_field(row, 4) != "classify") continue;
      result.notes.push_back(
          "stream trace at " + csv_field(row, 2) + ": " +
          std::to_string(accesses - std::stoull(csv_field(row, 7))) +
          " hits, " + csv_field(row, 11) + " compulsory, " +
          csv_field(row, 12) + " capacity, " + csv_field(row, 13) +
          " conflict misses of " + std::to_string(accesses) + " accesses");
    }
    return result;
  }

  // ---- traced run
  const Reference expected = reference_of(oracle(o.seed));
  Tracer tracer;
  LayerTotals ignored, t;
  std::vector<std::string> rows_off, rows_on;
  const auto paired =
      paired_runs(tracer, geometries().size(), [&](std::size_t i) {
        const cache::CacheGeometry g = geometries()[i];
        if (tracer.enabled())
          decompose(ref, g, tracer, t, rows_on);
        else
          decompose(ref, g, tracer, ignored, rows_off);
      });
  for (const auto* rows : {&rows_off, &rows_on}) {
    result.attempted += expected.size();
    result.failed += expected.mismatches(*rows);
  }
  set_layer_shares(result, tracer);

  const auto explored =
      traced_explore(base_request, engine_threads, tracer, result);
  result.attempted += expected.size();
  result.failed +=
      explored ? expected.mismatches(*explored) : expected.size();

  const auto per_access = [&](const char* layer) {
    const auto& [seconds, n] = t.by_layer[layer];
    return seconds * 1e9 / static_cast<double>(n);
  };
  const auto cells = static_cast<std::uint64_t>(geometries().size());
  result.set("cache.dm_ns_per_access", per_access("cache.dm"), "ns/access",
             cells);
  result.set("cache.fa_ns_per_access", per_access("cache.fa"), "ns/access",
             cells);
  result.set("cache.classify_ns_per_access", per_access("cache.classify"),
             "ns/access", cells);
  result.set("tracestore.write_ns_per_access",
             median(writes) * 1e9 / static_cast<double>(accesses),
             "ns/access", writes.size());
  result.set("tracestore.decode_ns_per_access",
             t.decode_s * 1e9 / static_cast<double>(t.decoded), "ns/access",
             3 * cells);
  result.notes.push_back(
      "cache.* figures are self time: each streaming simulation call minus "
      "the tracestore.decode batches it pulled");
  finish_traced_run(result, tracer, setup_tracer, paired, o);
  return result;
}

}  // namespace perfbench
