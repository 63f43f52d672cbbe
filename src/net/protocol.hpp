#pragma once

/// \file protocol.hpp
/// Wire protocol of the network serving front-end.
///
/// Every message is one length-prefixed binary frame:
///
///   offset  size  field
///        0     4  magic      0x31534E47 ("GNS1", little-endian)
///        4     1  version    kProtocolVersion
///        5     1  type       MessageType
///        6     2  reserved   must be zero
///        8     8  request_id client-chosen; replies echo it
///       16     4  payload_len  bytes that follow (<= kMaxPayloadBytes)
///       20     …  payload    message-specific, little-endian throughout
///
/// Request/reply flow: a client sends kRolloutRequest and receives zero or
/// more kRolloutChunk frames (predicted positions, streamed as they are
/// cut from the finished rollout) followed by exactly one terminal frame —
/// kStatusReply (carrying serve::JobStatus, so the scheduler's typed error
/// codes cross the wire unchanged) or kErrorReply (transport-level
/// failures: backpressure, malformed frames, drain in progress). A client
/// may also send kStatsRequest and receive one kStatsReply — a metrics +
/// health snapshot answered by the connection's service task, for live
/// introspection.
///
/// A kRolloutRequest carries a client-chosen 64-bit trace_id plus flags,
/// and a kStatusReply echoes the trace_id with the cache outcome and the
/// per-phase latency breakdown. kHello/kHelloReply is the capability
/// handshake: a backend advertises its protocol version, loaded model
/// names, and in-flight capacity at connect time — what the router needs
/// to place work with no config file.
///
/// Versioning: there is one layout, kProtocolVersion. Every frame carries
/// that byte, and any other value is a fatal BadVersion, exactly like a
/// bad magic. A layout change bumps the version; it never adds a branch.
///
/// Decoding is strict and allocation-safe: the header is validated before
/// any payload allocation, declared lengths are capped (kMaxPayloadBytes,
/// kMaxStringBytes, …), every count inside a payload is cross-checked
/// against the bytes actually received, and a truncated buffer is reported
/// as NeedMore — never read past. Errors are typed; header-level errors
/// that lose framing (bad magic, oversized length, unknown version) are
/// marked fatal so the server can drop the connection, while a bad type
/// or malformed payload skips one well-framed frame and keeps the stream.

#include <cstdint>
#include <string>
#include <vector>

#include "serve/job.hpp"

namespace gns::net {

inline constexpr std::uint32_t kMagic = 0x31534E47u;  ///< "GNS1" on the wire
inline constexpr std::uint8_t kProtocolVersion = 3;
inline constexpr std::size_t kHeaderBytes = 20;

/// Hard cap on one frame's payload. Large enough for a 100k-particle 3-D
/// six-frame window (~20 MB), small enough that a hostile length prefix
/// cannot balloon a connection buffer.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;
inline constexpr std::size_t kMaxStringBytes = 4096;
inline constexpr std::uint32_t kMaxWindowFrames = 64;
inline constexpr std::uint32_t kMaxRolloutSteps = 10'000'000;
/// Cap on a kStatsReply snapshot body (Prometheus/JSON text). Generously
/// above any real registry dump, far below kMaxPayloadBytes.
inline constexpr std::uint32_t kMaxStatsBodyBytes = 4u << 20;
/// Cap on the model list a kHelloReply may advertise.
inline constexpr std::uint32_t kMaxHelloModels = 256;

enum class MessageType : std::uint8_t {
  RolloutRequest = 1,  ///< client -> server: run a rollout
  RolloutChunk = 2,    ///< server -> client: streamed predicted frames
  StatusReply = 3,     ///< server -> client: terminal job outcome
  ErrorReply = 4,      ///< server -> client: transport-level failure
  StatsRequest = 5,    ///< client -> server: snapshot metrics + health
  StatsReply = 6,      ///< server -> client: the snapshot
  Hello = 7,           ///< client -> server: who are you / what do you serve
  HelloReply = 8,      ///< server -> client: capability advertisement
};

/// Transport-level error codes carried by kErrorReply (job-level outcomes
/// travel as serve::JobStatus inside kStatusReply instead).
enum class NetError : std::uint8_t {
  Busy = 1,          ///< backpressure: in-flight cap or queue full; retry
  Malformed = 2,     ///< payload failed validation
  TooLarge = 3,      ///< declared payload_len exceeds kMaxPayloadBytes
  BadMagic = 4,      ///< frame did not start with kMagic
  BadVersion = 5,    ///< unsupported protocol version
  BadType = 6,       ///< unknown MessageType
  ShuttingDown = 7,  ///< server is draining; no new requests
  Internal = 8,      ///< unexpected server-side failure
  BackendLost = 9,   ///< router: backend died after streaming began
};

[[nodiscard]] inline const char* to_string(NetError e) {
  switch (e) {
    case NetError::Busy: return "busy";
    case NetError::Malformed: return "malformed";
    case NetError::TooLarge: return "too_large";
    case NetError::BadMagic: return "bad_magic";
    case NetError::BadVersion: return "bad_version";
    case NetError::BadType: return "bad_type";
    case NetError::ShuttingDown: return "shutting_down";
    case NetError::Internal: return "internal";
    case NetError::BackendLost: return "backend_lost";
  }
  return "unknown";
}

// ---- Message bodies --------------------------------------------------------

/// kRolloutChunk: `data` holds num_frames() consecutive predicted frames of
/// frame_len doubles each, starting at rollout frame `first_frame`.
struct WireChunk {
  std::uint32_t first_frame = 0;
  std::uint32_t frame_len = 0;  ///< doubles per frame (N * dim)
  std::vector<double> data;

  [[nodiscard]] std::uint32_t num_frames() const {
    return frame_len == 0 ? 0
                          : static_cast<std::uint32_t>(data.size() / frame_len);
  }
};

/// kStatusReply: terminal outcome of one request, mirroring
/// serve::RolloutResult minus the frames (those were streamed as chunks).
struct WireStatus {
  serve::JobStatus status = serve::JobStatus::ExecutionError;
  std::uint32_t total_frames = 0;  ///< chunked frames the client should hold
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  double total_ms = 0.0;
  std::string error;
  std::uint64_t trace_id = 0;  ///< echo of the request's trace context
  bool cached = false;
  serve::CacheOutcome cache_outcome = serve::CacheOutcome::None;
  /// Server-side latency breakdown. write_us is reported as 0 on the wire
  /// (the flush hasn't happened when the status is encoded); it lands in
  /// the server's serve.phase.write_us histogram instead.
  serve::PhaseTimeline phases;
};

/// kStatsRequest: ask for a metrics + health snapshot in one format.
struct WireStatsRequest {
  enum Format : std::uint8_t { kJson = 0, kPrometheus = 1 };
  std::uint8_t format = kPrometheus;
};

/// kStatsReply: health header + the full metrics registry rendered as text
/// (Prometheus exposition or the registry's JSON dump, per the request).
struct WireStatsReply {
  double uptime_ms = 0.0;          ///< since Server::start()
  std::uint32_t inflight = 0;      ///< requests submitted, not yet replied
  std::uint32_t queue_depth = 0;   ///< scheduler queue at snapshot time
  std::uint32_t active_connections = 0;
  std::uint8_t draining = 0;       ///< 1 once graceful drain has begun
  std::uint8_t format = WireStatsRequest::kPrometheus;
  std::string body;                ///< <= kMaxStatsBodyBytes
};

/// kErrorReply: transport-level rejection. request_id echoes the offending
/// request when known, 0 when framing was lost before the id was read.
struct WireError {
  NetError code = NetError::Internal;
  std::string message;
};

/// kHello: opens a capability handshake. `kind` says what is connecting —
/// informational today (servers answer identically), on the wire so a
/// future fleet can rate-limit or prioritize by peer class without a
/// version bump.
struct WireHello {
  enum Kind : std::uint8_t { kClient = 0, kRouter = 1 };
  std::uint8_t kind = kClient;
};

/// kHelloReply: everything a router needs to place work on this backend.
/// `max_inflight` is the server's global in-flight cap (requests beyond it
/// get Busy), `current_inflight` the load at handshake time, `models` the
/// registry contents. A router answering on behalf of a fleet advertises
/// the union of its healthy backends' models and the sum of their
/// capacities, so routers stack.
struct WireHelloReply {
  std::uint8_t protocol_version = kProtocolVersion;
  std::uint8_t draining = 0;
  std::uint32_t max_inflight = 0;
  std::uint32_t current_inflight = 0;
  /// SchedulerConfig::workers: max concurrent rollout chains (sizing hint)
  std::uint32_t workers = 0;
  std::vector<std::string> models;  ///< <= kMaxHelloModels names
};

// ---- Encoding --------------------------------------------------------------

/// Serializers produce one complete frame (header + payload), ready to
/// write. Encoding never fails: inputs come from our own code, and
/// violations of the wire caps are programmer errors (GNS_CHECK).
[[nodiscard]] std::vector<std::uint8_t> encode_rollout_request(
    std::uint64_t request_id, const serve::RolloutRequest& request);
[[nodiscard]] std::vector<std::uint8_t> encode_rollout_chunk(
    std::uint64_t request_id, const WireChunk& chunk);
[[nodiscard]] std::vector<std::uint8_t> encode_status_reply(
    std::uint64_t request_id, const WireStatus& status);
[[nodiscard]] std::vector<std::uint8_t> encode_error_reply(
    std::uint64_t request_id, const WireError& error);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_request(
    std::uint64_t request_id, const WireStatsRequest& request);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_reply(
    std::uint64_t request_id, const WireStatsReply& reply);
[[nodiscard]] std::vector<std::uint8_t> encode_hello(
    std::uint64_t request_id, const WireHello& hello);
[[nodiscard]] std::vector<std::uint8_t> encode_hello_reply(
    std::uint64_t request_id, const WireHelloReply& reply);

// ---- Decoding --------------------------------------------------------------

enum class DecodeStatus {
  Ok,        ///< one frame decoded; consume FrameView::frame_bytes
  NeedMore,  ///< buffer holds a frame prefix; read more bytes
  Error,     ///< typed failure; DecodeError says whether framing survives
};

/// One decoded frame header with a borrowed view of its payload bytes
/// (valid only while the caller's buffer is). payload_len is already
/// bounds-checked against the buffer.
struct FrameView {
  MessageType type = MessageType::ErrorReply;
  std::uint64_t request_id = 0;
  const std::uint8_t* payload = nullptr;
  std::uint32_t payload_len = 0;
  std::size_t frame_bytes = 0;  ///< header + payload: bytes to consume
};

struct DecodeError {
  NetError code = NetError::Internal;
  std::string message;
  /// Fatal errors lose framing (bad magic, hostile length, unknown
  /// version): the connection must be closed. Non-fatal errors (unknown
  /// type) skip FrameView::frame_bytes and keep the stream.
  bool fatal = true;
  /// For non-fatal errors: bytes to skip to reach the next frame.
  std::size_t skip_bytes = 0;
  /// request_id to echo in an ErrorReply (0 when framing was lost).
  std::uint64_t request_id = 0;
};

/// Validates the frame at the head of [data, data+len). Never reads past
/// `len`, never allocates, never throws.
[[nodiscard]] DecodeStatus try_decode_frame(const std::uint8_t* data,
                                            std::size_t len, FrameView& out,
                                            DecodeError& error);

/// Payload parsers for a successfully framed message. Strict: every count
/// is cross-checked against payload_len, strings are capped, and trailing
/// bytes are rejected. On failure `error` explains and the output is
/// unspecified.
[[nodiscard]] bool decode_rollout_request(const FrameView& frame,
                                          serve::RolloutRequest& out,
                                          std::string& error);
[[nodiscard]] bool decode_rollout_chunk(const FrameView& frame, WireChunk& out,
                                        std::string& error);
[[nodiscard]] bool decode_status_reply(const FrameView& frame, WireStatus& out,
                                       std::string& error);
[[nodiscard]] bool decode_error_reply(const FrameView& frame, WireError& out,
                                      std::string& error);
[[nodiscard]] bool decode_stats_request(const FrameView& frame,
                                        WireStatsRequest& out,
                                        std::string& error);
[[nodiscard]] bool decode_stats_reply(const FrameView& frame,
                                      WireStatsReply& out,
                                      std::string& error);
[[nodiscard]] bool decode_hello(const FrameView& frame, WireHello& out,
                                std::string& error);
[[nodiscard]] bool decode_hello_reply(const FrameView& frame,
                                      WireHelloReply& out,
                                      std::string& error);

}  // namespace gns::net
