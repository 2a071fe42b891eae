// Wire protocol of `xoridx serve`: line-delimited JSON over TCP.
//
// Every line the client sends is one command object; every line the
// server sends back is one event object. One connection may multiplex
// any number of requests (events carry the request id), and the server
// may interleave events of concurrent requests — per-request event
// order is guaranteed, cross-request order is not.
//
// Commands:
//   {"cmd":"explore","id":"r1",
//    "traces":[{"workload":"adpcm_dec","scale":"small"} |
//              {"path":"/t.bin","mmap":true,"name":"t"}],
//    "caches":[1024,4096] | "geometries":[{"size":1024,"block":4,"assoc":1}],
//    "strategies":["base","perm:2"],
//    "hashed_bits":16, "threads":0}
//   {"cmd":"cancel","id":"r1"}
//   {"cmd":"status"}        -> one status event (admission + cache state)
//   {"cmd":"metrics"}       -> one metrics event (OpenMetrics exposition)
//   {"cmd":"shutdown"}      -> stops the daemon (same path as SIGTERM)
//
// Explore events, in per-request order:
//   {"event":"accepted","id":"r1","jobs":N,"csv_header":"trace,..."}
//   {"event":"cell","id":"r1","index":i,"state":"done","csv":"row bytes"}
//   {"event":"cell","id":"r1","index":i,"state":"failed",
//    "error":{"code":"io-error","message":"..."}}
//   {"event":"cell","id":"r1","index":i,"state":"cancelled"}
//   {"event":"done","id":"r1","cells":N,"failed":f,"cancelled":c,
//    "memo_hit":false,"profiles_built":b,"profiles_shared":s}
// or, when the request never starts (validation failure, admission):
//   {"event":"error","id":"r1","error":{"code":"busy","message":"..."}}
//
// The "csv" field of a done cell carries exactly the bytes CsvSink
// would have written for that row (engine::csv_row), and "csv_header"
// exactly its header line — so a client concatenating header + done
// rows reproduces the one-shot CSV byte for byte.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/explorer.hpp"
#include "api/status.hpp"
#include "json/json.hpp"
#include "serve/service.hpp"

namespace xoridx::serve {

struct Command {
  enum class Kind { explore, cancel, status, metrics, shutdown };
  Kind kind = Kind::status;
  std::string id;  ///< explore/cancel
  api::ExplorationRequest request;  ///< explore (cancel token unset)
};

/// Parse one command line. Explore commands resolve workload trace specs
/// through the registry (deterministic synthesis, no files needed) and
/// path specs onto file/streaming TraceRefs; full validation of
/// geometries/strategies still happens in the service, through the same
/// api path as every other frontend.
[[nodiscard]] api::Result<Command> parse_command(const std::string& line);

// --------------------------------------------------- event serialization
// Each builder returns one JSON object serialized onto a single line,
// without the trailing '\n' (the transport adds framing).

[[nodiscard]] std::string accepted_event(const std::string& id,
                                         std::size_t jobs);
[[nodiscard]] std::string cell_event(const std::string& id,
                                     const CellEvent& cell);
[[nodiscard]] std::string done_event(const std::string& id,
                                     const RequestSummary& summary);
[[nodiscard]] std::string error_event(const std::string& id,
                                      const api::Status& status);
[[nodiscard]] std::string status_event(const ServiceStatus& status);
[[nodiscard]] std::string metrics_event(const std::string& openmetrics);

/// {"code":"...","message":"...", + cell context when known} — shared by
/// error_event and failed-cell events.
[[nodiscard]] json::Value status_to_json(const api::Status& status);

}  // namespace xoridx::serve
