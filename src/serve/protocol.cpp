#include "serve/protocol.hpp"

#include <utility>

#include "api/strategy.hpp"
#include "api/trace_ref.hpp"
#include "engine/report.hpp"
#include "workloads/workload.hpp"

namespace xoridx::serve {

namespace {

using api::Result;
using api::Status;
using api::StatusCode;

Status bad_request(const std::string& what) {
  return {StatusCode::invalid_argument, what};
}

/// Positive integral field, or `fallback` when absent.
Result<std::int64_t> int_field(const json::Value& obj, const char* key,
                               std::int64_t fallback) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number() || v->kind() != json::Value::Kind::integer)
    return bad_request(std::string("\"") + key + "\" must be an integer");
  return v->as_int();
}

Result<api::TraceRef> parse_trace_spec(const json::Value& spec) {
  if (!spec.is_object())
    return bad_request("each \"traces\" entry must be an object");
  const json::Value* workload = spec.find("workload");
  const json::Value* path = spec.find("path");
  if ((workload != nullptr) == (path != nullptr))
    return bad_request(
        "a trace spec names exactly one of \"workload\" or \"path\"");

  const json::Value* name = spec.find("name");
  if (name != nullptr && !name->is_string())
    return bad_request("trace \"name\" must be a string");

  if (workload != nullptr) {
    if (!workload->is_string())
      return bad_request("\"workload\" must be a registry workload name");
    workloads::Scale scale = workloads::Scale::full;
    if (const json::Value* s = spec.find("scale"); s != nullptr) {
      if (!s->is_string() ||
          (s->as_string() != "small" && s->as_string() != "full"))
        return bad_request("\"scale\" must be \"small\" or \"full\"");
      if (s->as_string() == "small") scale = workloads::Scale::small;
    }
    try {
      workloads::Workload w =
          workloads::make_workload(workload->as_string(), scale);
      return api::TraceRef::memory(
          name != nullptr ? name->as_string() : w.name, std::move(w.data));
    } catch (const std::exception& e) {
      return Status(StatusCode::not_found, e.what())
          .with_trace(workload->as_string());
    }
  }

  if (!path->is_string())
    return bad_request("trace \"path\" must be a string");
  bool mmap = false;
  if (const json::Value* m = spec.find("mmap"); m != nullptr) {
    if (!m->is_bool()) return bad_request("\"mmap\" must be a boolean");
    mmap = m->as_bool();
  }
  const std::string display =
      name != nullptr ? name->as_string() : path->as_string();
  return mmap ? api::TraceRef::streaming(display, path->as_string())
              : api::TraceRef::file(display, path->as_string());
}

Result<api::ExplorationRequest> parse_explore(const json::Value& obj) {
  api::ExplorationRequest request;

  const json::Value* traces = obj.find("traces");
  if (traces == nullptr || !traces->is_array())
    return bad_request("\"traces\" must be an array of trace specs");
  for (const json::Value& spec : traces->items()) {
    Result<api::TraceRef> ref = parse_trace_spec(spec);
    if (!ref.ok()) return ref.status();
    request.traces.push_back(std::move(*ref));
  }

  const json::Value* caches = obj.find("caches");
  const json::Value* geometries = obj.find("geometries");
  if ((caches != nullptr) == (geometries != nullptr))
    return bad_request(
        "exactly one of \"caches\" (sizes, 4 B direct-mapped) or "
        "\"geometries\" is required");
  if (caches != nullptr) {
    if (!caches->is_array())
      return bad_request("\"caches\" must be an array of byte sizes");
    for (const json::Value& size : caches->items()) {
      if (!size.is_number() || size.as_int() <= 0)
        return bad_request("\"caches\" entries must be positive integers");
      request.geometries.emplace_back(
          static_cast<std::uint32_t>(size.as_int()), 4u, 1u);
    }
  } else {
    if (!geometries->is_array())
      return bad_request("\"geometries\" must be an array of objects");
    for (const json::Value& g : geometries->items()) {
      if (!g.is_object())
        return bad_request("each \"geometries\" entry must be an object");
      Result<std::int64_t> size = int_field(g, "size", 0);
      if (!size.ok()) return size.status();
      if (*size <= 0)
        return bad_request("geometry \"size\" must be a positive integer");
      Result<std::int64_t> block = int_field(g, "block", 4);
      if (!block.ok()) return block.status();
      Result<std::int64_t> assoc = int_field(g, "assoc", 1);
      if (!assoc.ok()) return assoc.status();
      request.geometries.emplace_back(static_cast<std::uint32_t>(*size),
                                      static_cast<std::uint32_t>(*block),
                                      static_cast<std::uint32_t>(*assoc));
    }
  }

  const json::Value* strategies = obj.find("strategies");
  if (strategies == nullptr || !strategies->is_array())
    return bad_request("\"strategies\" must be an array of spec strings");
  for (const json::Value& spec : strategies->items()) {
    if (!spec.is_string())
      return bad_request("\"strategies\" entries must be spec strings");
    Result<api::Strategy> strategy = api::parse_strategy(spec.as_string());
    if (!strategy.ok()) return strategy.status();
    request.strategies.push_back(std::move(*strategy));
  }

  Result<std::int64_t> hashed_bits = int_field(obj, "hashed_bits", 16);
  if (!hashed_bits.ok()) return hashed_bits.status();
  request.hashed_bits = static_cast<int>(*hashed_bits);
  Result<std::int64_t> threads = int_field(obj, "threads", 0);
  if (!threads.ok()) return threads.status();
  request.num_threads =
      *threads > 0 ? static_cast<unsigned>(*threads) : 0u;
  return request;
}

}  // namespace

api::Result<Command> parse_command(const std::string& line) {
  Result<json::Value> parsed = json::parse(line);
  if (!parsed.ok()) return parsed.status();
  const json::Value& obj = *parsed;
  if (!obj.is_object())
    return bad_request("a command is a JSON object");
  const json::Value* cmd = obj.find("cmd");
  if (cmd == nullptr || !cmd->is_string())
    return bad_request("\"cmd\" must name a command");

  Command command;
  const std::string& kind = cmd->as_string();
  if (kind == "status") {
    command.kind = Command::Kind::status;
    return command;
  }
  if (kind == "metrics") {
    command.kind = Command::Kind::metrics;
    return command;
  }
  if (kind == "shutdown") {
    command.kind = Command::Kind::shutdown;
    return command;
  }
  if (kind == "explore" || kind == "cancel") {
    const json::Value* id = obj.find("id");
    if (id == nullptr || !id->is_string() || id->as_string().empty())
      return bad_request("\"id\" must be a non-empty string");
    command.id = id->as_string();
    if (kind == "cancel") {
      command.kind = Command::Kind::cancel;
      return command;
    }
    command.kind = Command::Kind::explore;
    Result<api::ExplorationRequest> request = parse_explore(obj);
    if (!request.ok()) return request.status();
    command.request = std::move(*request);
    return command;
  }
  return bad_request("unknown command \"" + kind + "\"");
}

json::Value status_to_json(const api::Status& status) {
  json::Value out = json::Value::object();
  out.set("code", api::status_code_name(status.code()));
  out.set("message", status.message());
  if (!status.trace().empty()) out.set("trace", status.trace());
  if (!status.geometry().empty()) out.set("geometry", status.geometry());
  if (!status.strategy().empty()) out.set("strategy", status.strategy());
  return out;
}

std::string accepted_event(const std::string& id, std::size_t jobs) {
  json::Value out = json::Value::object();
  out.set("event", "accepted");
  out.set("id", id);
  out.set("jobs", static_cast<std::int64_t>(jobs));
  out.set("csv_header", engine::csv_header());
  return out.serialize();
}

std::string cell_event(const std::string& id, const CellEvent& cell) {
  json::Value out = json::Value::object();
  out.set("event", "cell");
  out.set("id", id);
  out.set("index", static_cast<std::int64_t>(cell.index));
  switch (cell.state) {
    case CellEvent::State::done:
      out.set("state", "done");
      out.set("csv", cell.csv);
      break;
    case CellEvent::State::failed:
      out.set("state", "failed");
      out.set("error", status_to_json(cell.error));
      break;
    case CellEvent::State::cancelled:
      out.set("state", "cancelled");
      break;
  }
  return out.serialize();
}

std::string done_event(const std::string& id,
                       const RequestSummary& summary) {
  json::Value out = json::Value::object();
  out.set("event", "done");
  out.set("id", id);
  out.set("cells", static_cast<std::int64_t>(summary.cells));
  out.set("failed", static_cast<std::int64_t>(summary.failed));
  out.set("cancelled", static_cast<std::int64_t>(summary.cancelled));
  out.set("memo_hit", summary.memo_hit);
  out.set("profiles_built",
          static_cast<std::int64_t>(summary.profiles_built));
  out.set("profiles_shared",
          static_cast<std::int64_t>(summary.profiles_shared));
  return out.serialize();
}

std::string error_event(const std::string& id, const api::Status& status) {
  json::Value out = json::Value::object();
  out.set("event", "error");
  if (!id.empty()) out.set("id", id);
  out.set("error", status_to_json(status));
  return out.serialize();
}

std::string status_event(const ServiceStatus& status) {
  json::Value body = json::Value::object();
  body.set("inflight", static_cast<std::int64_t>(status.inflight));
  body.set("queued", static_cast<std::int64_t>(status.queued));
  body.set("accepted", static_cast<std::int64_t>(status.accepted));
  body.set("completed", static_cast<std::int64_t>(status.completed));
  body.set("rejected", static_cast<std::int64_t>(status.rejected));
  body.set("memo_hits", static_cast<std::int64_t>(status.memo_hits));
  body.set("memo_entries", static_cast<std::int64_t>(status.memo_entries));
  json::Value cache = json::Value::object();
  cache.set("entries",
            static_cast<std::int64_t>(status.profile_cache_entries));
  cache.set("bytes", static_cast<std::int64_t>(status.profile_cache_bytes));
  cache.set("budget",
            static_cast<std::int64_t>(status.profile_cache_budget));
  cache.set("evictions",
            static_cast<std::int64_t>(status.profile_cache_evictions));
  body.set("profile_cache", std::move(cache));
  body.set("max_inflight", static_cast<std::int64_t>(status.max_inflight));
  body.set("queue_capacity",
           static_cast<std::int64_t>(status.queue_capacity));
  body.set("engine_threads",
           static_cast<std::int64_t>(status.engine_threads));
  json::Value out = json::Value::object();
  out.set("event", "status");
  out.set("status", std::move(body));
  return out.serialize();
}

std::string metrics_event(const std::string& openmetrics) {
  json::Value out = json::Value::object();
  out.set("event", "metrics");
  out.set("content_type", "application/openmetrics-text");
  out.set("body", openmetrics);
  return out.serialize();
}

}  // namespace xoridx::serve
