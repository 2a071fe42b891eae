// Pull-based streaming access to a trace.
//
// TraceSource is the one way every trace consumer (profiling, search,
// cache simulation, the engine's campaign cells) reads a trace: a
// consumer pulls views batch by batch and never learns whether the
// accesses come from an in-memory Trace, a v1 file or an mmap'd v2 chunk
// decoder. An in-memory trace is just another source (MemorySource),
// served zero-copy. Multi-pass consumers call reset() between passes; the
// drivers in cache/simulate and profile/ reset at entry, so one source
// object serves several passes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "trace/trace.hpp"

namespace xoridx::tracestore {

class TraceSource {
 public:
  virtual ~TraceSource() = default;

  /// Copy up to out.size() accesses, in trace order, into `out`. Returns
  /// the number written; 0 means end of trace.
  virtual std::size_t next_batch(std::span<trace::Access> out) = 0;

  /// The next accesses, in trace order, as a view of at most
  /// scratch.size() elements; empty means end of trace. The view is
  /// valid until the next call to next_view, next_batch or reset(). The
  /// default copies through next_batch into `scratch`; a source that
  /// already holds decoded accesses returns a window of its own storage
  /// instead and leaves `scratch` untouched.
  virtual std::span<const trace::Access> next_view(
      std::span<trace::Access> scratch) {
    return scratch.first(next_batch(scratch));
  }

  /// Rewind to the first access.
  virtual void reset() = 0;

  /// Total accesses in the trace (known up front for every backend).
  [[nodiscard]] virtual std::uint64_t size() const = 0;
};

/// Adapter over an in-memory Trace; optionally shares ownership. Views
/// are windows of the Trace's own storage (no copy).
class MemorySource final : public TraceSource {
 public:
  explicit MemorySource(const trace::Trace& t) : trace_(&t) {}
  explicit MemorySource(std::shared_ptr<const trace::Trace> t)
      : owned_(std::move(t)), trace_(owned_.get()) {}

  std::size_t next_batch(std::span<trace::Access> out) override {
    const std::span<const trace::Access> view = next_view(out);
    std::copy(view.begin(), view.end(), out.begin());
    return view.size();
  }

  std::span<const trace::Access> next_view(
      std::span<trace::Access> scratch) override {
    const std::span<const trace::Access> view = trace_->accesses().subspan(
        pos_, std::min(scratch.size(), trace_->size() - pos_));
    pos_ += view.size();
    return view;
  }

  void reset() override { pos_ = 0; }

  [[nodiscard]] std::uint64_t size() const override { return trace_->size(); }

 private:
  std::shared_ptr<const trace::Trace> owned_;
  const trace::Trace* trace_;
  std::size_t pos_ = 0;
};

/// Drive `fn(const Access&)` over every access of the source from its
/// current position, view by view. The scratch buffer is the only
/// decoded state this helper adds (unused by zero-copy sources).
template <typename F>
void for_each_access(TraceSource& source, F&& fn,
                     std::size_t batch_capacity = 4096) {
  std::vector<trace::Access> scratch(batch_capacity);
  for (;;) {
    const std::span<const trace::Access> view = source.next_view(scratch);
    if (view.empty()) break;
    for (const trace::Access& a : view) fn(a);
  }
}

/// Materialize the remainder of a source into a Trace (eager fallback).
[[nodiscard]] inline trace::Trace drain_to_trace(TraceSource& source) {
  trace::Trace t;
  t.reserve(static_cast<std::size_t>(source.size()));
  for_each_access(source, [&t](const trace::Access& a) { t.append(a); });
  return t;
}

}  // namespace xoridx::tracestore
