#include "api/trace_ref.hpp"

#include <exception>
#include <filesystem>

#include "api/internal.hpp"
#include "tracestore/reader.hpp"
#include "tracestore/store.hpp"

namespace xoridx::api {

namespace {

using internal::status_from_current_exception;

Status check_file_header(const std::string& path) {
  try {
    // Constructing a reader validates magic, header fields and the
    // chunk index (v2) or record count vs file size (v1) — without
    // touching trace bodies.
    if (tracestore::detect_trace_format(path) == tracestore::TraceFormat::v2)
      tracestore::MmapTraceReader reader(path, /*prefetch=*/false);
    else
      tracestore::V1FileSource source(path);
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error);
  }
  return {};
}

}  // namespace

TraceRef TraceRef::memory(std::string name, trace::Trace t) {
  return memory(std::move(name),
                std::make_shared<const trace::Trace>(std::move(t)));
}

TraceRef TraceRef::memory(std::string name,
                          std::shared_ptr<const trace::Trace> t) {
  TraceRef ref(Kind::memory, std::move(name));
  ref.trace_ = std::move(t);
  return ref;
}

TraceRef TraceRef::borrowed(std::string name, const trace::Trace& t) {
  // Aliasing, non-owning shared_ptr: shares nothing, deletes nothing.
  return memory(std::move(name),
                std::shared_ptr<const trace::Trace>(
                    std::shared_ptr<const trace::Trace>(), &t));
}

TraceRef TraceRef::file(std::string name, std::string path) {
  TraceRef ref(Kind::file, std::move(name));
  ref.path_ = std::move(path);
  return ref;
}

TraceRef TraceRef::file(std::string path) {
  std::string name = path;
  return file(std::move(name), std::move(path));
}

TraceRef TraceRef::streaming(std::string name, std::string path) {
  TraceRef ref(Kind::streaming_file, std::move(name));
  ref.path_ = std::move(path);
  return ref;
}

TraceRef TraceRef::streaming(std::string path) {
  std::string name = path;
  return streaming(std::move(name), std::move(path));
}

TraceRef TraceRef::source(std::string name, SourceFactory factory,
                          tracestore::TraceId id) {
  TraceRef ref(Kind::custom_source, std::move(name));
  ref.factory_ = std::move(factory);
  ref.id_ = id;
  return ref;
}

Status TraceRef::precheck() const {
  switch (kind_) {
    case Kind::memory:
      if (!trace_)
        return Status(StatusCode::invalid_argument,
                      "trace '" + name_ + "' has no data attached")
            .with_trace(name_);
      return {};
    case Kind::file:
    case Kind::streaming_file: {
      std::error_code ec;
      if (!std::filesystem::exists(path_, ec))
        return Status(StatusCode::not_found,
                      "trace file not found: " + path_)
            .with_trace(name_);
      return {};
    }
    case Kind::custom_source:
      if (!factory_)
        return Status(StatusCode::invalid_argument,
                      "trace '" + name_ + "' has a null source factory")
            .with_trace(name_);
      return {};
  }
  return {StatusCode::internal, "unreachable"};
}

Status TraceRef::validate() const {
  Status status = precheck();
  if (!status.ok()) return status;
  if (kind_ == Kind::file || kind_ == Kind::streaming_file) {
    status = check_file_header(path_);
    if (!status.ok()) status.with_trace(name_);
  }
  return status;
}

Result<trace::Trace> TraceRef::load() const {
  if (Status status = precheck(); !status.ok()) return status;
  try {
    switch (kind_) {
      case Kind::memory:
        return trace::Trace(*trace_);
      case Kind::file:
      case Kind::streaming_file:
        return tracestore::load_trace_any(path_);
      case Kind::custom_source: {
        const std::unique_ptr<tracestore::TraceSource> src = factory_();
        if (!src)
          return Status(StatusCode::io_error,
                        "trace '" + name_ + "': source factory returned null")
              .with_trace(name_);
        return tracestore::drain_to_trace(*src);
      }
    }
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error)
        .with_trace(name_);
  }
  return Status(StatusCode::internal, "unreachable");
}

Result<std::unique_ptr<tracestore::TraceSource>> TraceRef::open() const {
  if (Status status = precheck(); !status.ok()) return status;
  try {
    switch (kind_) {
      case Kind::memory:
        return std::unique_ptr<tracestore::TraceSource>(
            std::make_unique<tracestore::MemorySource>(trace_));
      case Kind::file:
      case Kind::streaming_file:
        return tracestore::open_trace_source(path_);
      case Kind::custom_source: {
        std::unique_ptr<tracestore::TraceSource> src = factory_();
        if (!src)
          return Status(StatusCode::io_error,
                        "trace '" + name_ + "': source factory returned null")
              .with_trace(name_);
        return src;
      }
    }
  } catch (...) {
    return status_from_current_exception(StatusCode::io_error)
        .with_trace(name_);
  }
  return Status(StatusCode::internal, "unreachable");
}

engine::TraceEntry TraceRef::lower() const {
  switch (kind_) {
    case Kind::memory:
      return engine::TraceEntry::memory(name_, trace_);
    case Kind::file:
    case Kind::streaming_file:
      return engine::TraceEntry::file(name_, path_,
                                      kind_ == Kind::streaming_file);
    case Kind::custom_source:
      return engine::TraceEntry::source(name_, factory_, id_);
  }
  return engine::TraceEntry::source(name_, factory_, id_);  // unreachable
}

}  // namespace xoridx::api
