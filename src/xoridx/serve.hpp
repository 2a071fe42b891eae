// xoridx/serve.hpp — exploration as a service, part of the stable
// public surface (versioned by XORIDX_VERSION alongside xoridx/api.hpp).
//
// The daemon behind `xoridx serve`, importable as a library so tests,
// benches and embedding frontends can run it in-process:
//
//   Service / ServiceOptions   one shared engine serving concurrent
//                              ExplorationRequests: a cancellable job
//                              graph per request, cells interleaved on
//                              one thread pool, profiles/zeta shared
//                              through a byte-budgeted LRU ProfileCache,
//                              whole-request memoization by fingerprint,
//                              and typed-busy admission control
//   RequestEvents              per-request streaming: accepted, one
//                              event per cell in request order (done
//                              cells carry the exact CSV row bytes),
//                              then done — or a single error
//   Command / parse_command    the NDJSON wire protocol (see
//   *_event builders           serve/protocol.hpp for the line format)
//   Server / ServerOptions     the TCP transport: accept loop, one
//                              reader per connection, signal-safe
//                              request_stop() for graceful shutdown
//   JsonValue / parse_json     aliases of json::Value / json::parse
//                              (json/json.hpp): the repo's one JSON
//                              codec, which reads and writes the
//                              protocol's frames
#pragma once

#include <string_view>

#include "json/json.hpp"       // IWYU pragma: export
#include "serve/protocol.hpp"  // IWYU pragma: export
#include "serve/server.hpp"    // IWYU pragma: export
#include "serve/service.hpp"   // IWYU pragma: export

namespace xoridx::serve {

using JsonValue = json::Value;

[[nodiscard]] inline api::Result<JsonValue> parse_json(std::string_view text) {
  return json::parse(text);
}

}  // namespace xoridx::serve
