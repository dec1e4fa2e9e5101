// focv-serve/v1: the wire protocol of the long-lived simulation query
// server.
//
// Transport: length-prefixed frames over a byte stream (TCP). Each
// frame is a 4-byte big-endian payload length followed by that many
// bytes of UTF-8 JSON. Requests and responses are single JSON objects;
// a connection may pipeline any number of requests and the server may
// answer them out of order — the echoed `id` correlates them.
//
// Request:  {"op":"sizing","id":7,"deadline_ms":250,...op fields...}
// Response: {"schema":"focv-serve/v1","id":7,"ok":true,"result":{...}}
//      or:  {"schema":"focv-serve/v1","id":7,"ok":false,
//            "error":{"code":"bad_spec","message":"...","token":"...",
//                     "hint":"..."}}
//
// Determinism contract: for every query op, identical request JSON
// (ignoring `deadline_ms`) produces byte-identical response JSON no
// matter the server's worker count, batching mode or cache state
// (enforced by tests/serve/server_test.cpp). Load-dependent outcomes —
// `overloaded`, `deadline_exceeded` — and the `stats` op are explicitly
// outside that contract.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "mppt/spec.hpp"

namespace focv::serve {

using focv::Json;

inline constexpr const char* kSchema = "focv-serve/v1";
/// Largest accepted request frame (responses may be larger).
inline constexpr std::uint32_t kMaxRequestFrame = 1u << 20;

/// Machine-readable error codes of the `error.code` field.
namespace errc {
inline constexpr const char* kBadFrame = "bad_frame";
inline constexpr const char* kBadJson = "bad_json";
inline constexpr const char* kBadRequest = "bad_request";
inline constexpr const char* kUnknownOp = "unknown_op";
inline constexpr const char* kUnknownEnv = "unknown_env";
inline constexpr const char* kBadSpec = "bad_spec";
inline constexpr const char* kOverloaded = "overloaded";
inline constexpr const char* kDeadlineExceeded = "deadline_exceeded";
inline constexpr const char* kShuttingDown = "shutting_down";
inline constexpr const char* kInternal = "internal";
}  // namespace errc

/// One parsed request envelope. `body` holds the full object; `id_json`
/// is the canonical rendering of the client's `id` member ("null" when
/// absent) so the response echo is byte-stable.
struct Request {
  std::string op;
  std::string id_json = "null";
  double deadline_ms = 0.0;  ///< 0 = no deadline
  Json body;
};

/// Parse a request payload. On failure returns false and fills `error`
/// with a complete error-response payload (the caller just frames it).
bool parse_request(const std::string& payload, Request& out, std::string& error);

/// Render the success envelope around an already-rendered result
/// payload. `result_json` must be valid JSON (typically Json::dump()).
[[nodiscard]] std::string ok_response(const std::string& id_json,
                                      const std::string& result_json);

/// Render an error envelope. `token` / `hint` are omitted when empty.
[[nodiscard]] std::string error_response(const std::string& id_json, const char* code,
                                         const std::string& message,
                                         const std::string& token = "",
                                         const std::string& hint = "");

/// Map a controller-spec failure onto the structured error surface:
/// code `bad_spec`, the exception message, the offending token
/// extracted from it, and a catalog hint naming the registered
/// controllers. A malformed spec arriving over the wire must produce
/// this response, never terminate a worker (tests/serve/).
[[nodiscard]] std::string error_from_spec(const std::string& id_json,
                                          const mppt::SpecError& error);

/// The quoted token a SpecError message points at (best effort: the
/// second "..."-quoted substring — the first is the whole spec — else
/// the first). Exposed for tests.
[[nodiscard]] std::string offending_token(const std::string& message);

/// The `hint` text of a bad_spec error: the registered controller names
/// plus a pointer at the catalog op.
[[nodiscard]] std::string spec_catalog_hint();

// --- frame codec -----------------------------------------------------

/// 4-byte big-endian length header.
void encode_frame_header(std::uint32_t payload_size, unsigned char out[4]);
[[nodiscard]] std::uint32_t decode_frame_header(const unsigned char in[4]);

/// `payload` wrapped in its frame header, ready to write.
[[nodiscard]] std::string encode_frame(std::string_view payload);

}  // namespace focv::serve
