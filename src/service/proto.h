// Wire protocol of the campaign service: deterministic length-prefixed
// frames over a byte stream (unix socket or socketpair).
//
// Frame layout (little-endian, fixed — the full spec lives in DESIGN.md):
//
//   [u32 payload_length] [u8 msg_type] [payload_length bytes of payload]
//
// Payloads are JSON produced by the deterministic telemetry writer
// (sorted keys, fixed layout), so a given message value has exactly one
// wire encoding. Conversation:
//
//   client                          daemon
//   ------                          ------
//   kHello {"proto":1}         ->
//                              <-   kHelloReply {"proto":1,...}
//   kSubmit {"cells":[...]}    ->
//                              <-   kJobAccepted {"cells":N,"job":id}
//   kStatus {"job":id}         ->
//                              <-   kStatusReply {... so-far counts ...}
//   kResults {"job":id}        ->
//                              <-   kCellResult {"cell":0,...}   (streamed,
//                              <-   kCellResult {"cell":1,...}    cell order)
//                              <-   kResultsDone {"job":id}
//   kStats {}                  ->
//                              <-   kStatsReply {service registry JSON}
//   kShutdown {}               ->
//                              <-   kShutdownAck {}
//
// Any malformed or unanswerable request is answered with kError
// {"error":"..."} and the connection stays usable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "fault/cell.h"
#include "support/transport.h"
#include "telemetry/json.h"

namespace ferrum::service {

/// Protocol revision; bumped on any frame-layout or payload change
/// (v2 dropped the cell's `batch` field).
constexpr std::uint32_t kProtoVersion = 2;

/// Frames larger than this are treated as protocol corruption.
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

enum class MsgType : std::uint8_t {
  // client -> daemon
  kHello = 1,
  kSubmit = 2,
  kStatus = 3,
  kResults = 4,
  kStats = 5,
  kShutdown = 6,
  // daemon -> client
  kHelloReply = 64,
  kJobAccepted = 65,
  kStatusReply = 66,
  kCellResult = 67,
  kResultsDone = 68,
  kStatsReply = 69,
  kShutdownAck = 70,
  kError = 127,
};

const char* msg_type_name(MsgType type);

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Writes one frame; false on a broken stream.
bool write_frame(Conn& conn, MsgType type, std::string_view payload);
/// JSON convenience: payload = json.dump() (the deterministic writer).
bool write_frame(Conn& conn, MsgType type, const telemetry::Json& json);

/// Reads one frame; false on EOF, a broken stream, an unknown type byte
/// or a length above kMaxFrameBytes.
bool read_frame(Conn& conn, Frame& frame);

/// Wire form of a campaign cell. `cell_from_json` fills defaulted fields
/// for absent keys, rejects wrong-typed values and unknown keys (a typo'd
/// knob silently meaning "default" would poison cache keys), and runs
/// fault::validate_cell; false with a description in `error`.
telemetry::Json cell_to_json(const fault::CampaignCell& cell);
bool cell_from_json(const telemetry::Json& json, fault::CampaignCell& cell,
                    std::string& error);

}  // namespace ferrum::service
