#include "obs/export.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <utility>

#include "json/json.hpp"
#include "obs/metrics.hpp"

namespace xoridx::obs {
namespace {

using api::Status;
using api::StatusCode;

// ------------------------------------------------------------ OpenMetrics

// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; our dotted names
// (`shard.cells_done`) map dots — and anything else exotic — to `_`, under
// a `xoridx_` namespace prefix.
std::string sanitize_metric_name(const std::string& name) {
  std::string out = "xoridx_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

// -------------------------------------------------------- trace stitching

/// True for {"ph": "M", "name": "process_name", ...} metadata events.
bool is_process_name_meta(const json::Value& event) {
  const json::Value* ph = event.find("ph");
  const json::Value* name = event.find("name");
  return ph != nullptr && ph->as_string() == "M" && name != nullptr &&
         name->as_string() == "process_name";
}

/// The event with its "pid" replaced by, or inserted first as, `pid`.
json::Value with_pid(const json::Value& event, std::uint64_t pid) {
  json::Value out = json::Value::object();
  if (event.find("pid") == nullptr) out.set("pid", pid);
  for (const auto& [key, value] : event.members())
    out.set(key, key == "pid" ? json::Value(pid) : value);
  return out;
}

/// The trace-event document at `path`, checked to hold a top-level
/// traceEvents array of objects.
api::Result<json::Value> read_trace(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    return Status(StatusCode::not_found, "cannot open trace file: " + path);
  }
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  if (is.bad()) {
    return Status(StatusCode::io_error, "cannot read trace file: " + path);
  }
  const auto malformed = [&path](const std::string& what) {
    return Status(StatusCode::io_error,
                  "not a Chrome trace-event document (" + what + "): " + path);
  };
  api::Result<json::Value> doc = json::parse(text);
  if (!doc.ok()) return malformed(doc.status().message());
  const json::Value* events = doc->find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return malformed("no traceEvents array");
  }
  for (const json::Value& event : events->items()) {
    if (!event.is_object()) {
      return malformed("traceEvents element is not an object");
    }
  }
  return doc;
}

std::string file_basename(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

void Snapshot::write_openmetrics(std::ostream& os) const {
  for (const auto& [name, value] : counters) {
    const std::string n = sanitize_metric_name(name);
    os << "# TYPE " << n << " counter\n";
    os << n << "_total " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string n = sanitize_metric_name(name);
    os << "# TYPE " << n << " gauge\n";
    os << n << " " << value << "\n";
  }
  for (const auto& [name, hist] : histograms) {
    const std::string n = sanitize_metric_name(name);
    os << "# TYPE " << n << " histogram\n";
    // Log2 bucket b counts values of bit_width b, i.e. v <= 2^b - 1, so
    // the cumulative upper bounds are 0, 1, 3, 7, ... 2^30 - 1; the last
    // bucket absorbs everything wider and lands in +Inf.
    std::uint64_t cumulative = 0;
    for (std::uint32_t b = 0; b + 1 < histogram_buckets; ++b) {
      cumulative += hist.buckets[b];
      os << n << "_bucket{le=\"" << ((std::uint64_t{1} << b) - 1) << "\"} "
         << cumulative << "\n";
    }
    os << n << "_bucket{le=\"+Inf\"} " << hist.count << "\n";
    os << n << "_sum " << hist.sum << "\n";
    os << n << "_count " << hist.count << "\n";
  }
  os << "# EOF\n";
}

Status merge_chrome_traces(const std::vector<std::string>& input_paths,
                           std::ostream& os) {
  if (input_paths.empty()) {
    return Status(StatusCode::invalid_argument, "no trace files to merge");
  }
  // Pass 1 reads and validates every input, keeping nothing, so a bad
  // file never leaves a partial document behind. Pass 2 reads each input
  // again and streams its events; only one parse tree is alive at a time.
  for (const std::string& path : input_paths) {
    if (const api::Result<json::Value> doc = read_trace(path); !doc.ok())
      return doc.status();
  }
  os << "{\"displayTimeUnit\": \"ms\",\n \"traceEvents\": [";
  const char* separator = "\n  ";
  const auto emit = [&](const json::Value& event) {
    os << separator << event.serialize();
    separator = ",\n  ";
  };
  for (std::size_t i = 0; i < input_paths.size(); ++i) {
    const std::string& path = input_paths[i];
    const std::uint64_t pid = i + 1;
    const api::Result<json::Value> doc = read_trace(path);
    if (!doc.ok()) return doc.status();  // the file changed since pass 1
    const std::vector<json::Value>& events = doc->find("traceEvents")->items();
    if (std::none_of(events.begin(), events.end(), is_process_name_meta)) {
      json::Value args = json::Value::object();
      args.set("name", file_basename(path));
      json::Value meta = json::Value::object();
      meta.set("name", "process_name");
      meta.set("ph", "M");
      meta.set("pid", pid);
      meta.set("args", std::move(args));
      emit(meta);
    }
    for (const json::Value& event : events) emit(with_pid(event, pid));
  }
  os << "\n ]}\n";
  return {};
}

}  // namespace xoridx::obs
