#pragma once
// Wire protocol of the nsdc_serve timing daemon (DESIGN.md §13).
//
// Transport: length-prefixed frames (net/wire.hpp). Every request payload
// opens with a fixed header
//     u8  type          (ReqType below)
//     u32 request_id    (client-chosen, echoed verbatim in the response)
//     f64 deadline_s    (0 = none; else a per-request wall-clock budget
//                        enforced via CancellationToken)
// followed by type-specific fields. Every response payload opens with
//     u8  status        (Status below)
//     u32 request_id    (echo)
// followed by the type-specific body on kOk, or a u32-length-prefixed
// error message on any other status.
//
// Status codes are the tool exit codes: the daemon maps typed errors to
// statuses exactly the way handle_tool_exception maps them to process exit
// codes, so a client and a shell script read the same numbers — 3 bad
// request / invalid argument, 10 cancelled (deadline), 11 parse, 12 I/O,
// 13 internal.
//
// Numbers travel as binary little-endian ints and IEEE-754 bit patterns,
// never as text, so responses are byte-deterministic per session at any
// server thread count (the engines underneath guarantee bit-identical
// doubles; the encoding preserves them).

#include <cstdint>
#include <string>
#include <string_view>

#include "net/wire.hpp"

namespace nsdc::serve {

inline constexpr std::uint32_t kProtocolVersion = 1;

enum class ReqType : std::uint8_t {
  kPing = 0,          ///< server + design banner
  kArrival = 1,       ///< baseline STA arrival/slew of one net (by name)
  kCritical = 2,      ///< baseline critical PO summary
  kSstaMoments = 3,   ///< analytic-SSTA arrival moments of one net
  kLint = 4,          ///< run the lint rules, return counts + text report
  kNetMc = 5,         ///< Monte-Carlo run with per-request sample budget
  kSessionOpen = 6,   ///< open an edit session (private netlist copy)
  kSessionEdit = 7,   ///< apply an edit batch through IncrementalSta
  kSessionQuery = 8,  ///< arrival of one net in the session's current state
  kSessionClose = 9,  ///< drop the session
  kShutdown = 10,     ///< stop the daemon after responding
};

enum class Status : std::uint8_t {
  kOk = 0,
  kBadRequest = 3,  ///< malformed payload / failed validation (kExitUsage)
  kCancelled = 10,  ///< deadline expired / cancelled (kExitCancelled)
  kParse = 11,      ///< ParseError while serving (kExitParse)
  kIo = 12,         ///< IoError while serving (kExitIo)
  kInternal = 13,   ///< anything else (kExitInternal)
};

/// Edit operations of a kSessionEdit batch.
enum class EditOp : std::uint8_t {
  kSetCellType = 0,  ///< u32 cell index + str new type name (same arity)
  kRewireFanin = 1,  ///< u32 cell, u32 pin, u32 new fanin net
};

struct RequestHeader {
  ReqType type = ReqType::kPing;
  std::uint32_t request_id = 0;
  double deadline_s = 0.0;
};

/// Writes the shared request header.
void write_request_header(net::WireWriter& w, const RequestHeader& h);

/// Reads the shared request header (check `r.ok()` afterwards).
RequestHeader read_request_header(net::WireReader& r);

// --- Client-side request builders ------------------------------------------
// Convenience constructors for the common requests, used by the tests, the
// bench record, and embedders. Each returns a complete request payload
// (not yet framed — Client::call frames it).

std::string make_ping(std::uint32_t id);
std::string make_arrival(std::uint32_t id, std::string_view net_name,
                         double deadline_s = 0.0);
std::string make_critical(std::uint32_t id);
std::string make_ssta_moments(std::uint32_t id, std::string_view net_name,
                              double deadline_s = 0.0);
std::string make_lint(std::uint32_t id, double deadline_s = 0.0);
std::string make_netmc(std::uint32_t id, std::uint32_t samples,
                       std::uint64_t seed, double deadline_s = 0.0);
std::string make_session_open(std::uint32_t id);
std::string make_session_close(std::uint32_t id, std::uint32_t session);
std::string make_session_query(std::uint32_t id, std::uint32_t session,
                               std::string_view net_name);
std::string make_shutdown(std::uint32_t id);

/// Incremental builder for kSessionEdit batches.
class SessionEditRequest {
 public:
  SessionEditRequest(std::uint32_t id, std::uint32_t session,
                     double deadline_s = 0.0);
  SessionEditRequest& set_cell_type(std::uint32_t cell,
                                    std::string_view type_name);
  SessionEditRequest& rewire_fanin(std::uint32_t cell, std::uint32_t pin,
                                   std::uint32_t new_net);
  /// Finishes the payload (edit count is patched into the reserved slot).
  std::string take();

 private:
  net::WireWriter w_;
  std::uint32_t count_ = 0;
  std::size_t count_pos_ = 0;
};

// --- Client-side response decoding ------------------------------------------

struct ResponseHead {
  Status status = Status::kInternal;
  std::uint32_t request_id = 0;
  std::string error;  ///< populated when status != kOk
};

/// Reads the response header; on a non-kOk status also reads the error
/// message. The reader is left positioned at the type-specific body.
ResponseHead read_response_head(net::WireReader& r);

}  // namespace nsdc::serve
