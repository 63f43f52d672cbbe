#include "net/protocol.hpp"

#include <cstring>

#include "util/check.hpp"

namespace gns::net {

namespace {

// ---- Little-endian primitives ---------------------------------------------

void put_u8(std::vector<std::uint8_t>& buf, std::uint8_t v) {
  buf.push_back(v);
}

void put_u16(std::vector<std::uint8_t>& buf, std::uint16_t v) {
  buf.push_back(static_cast<std::uint8_t>(v));
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& buf, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(buf, bits);
}

void put_string(std::vector<std::uint8_t>& buf, const std::string& s) {
  GNS_CHECK_MSG(s.size() <= kMaxStringBytes, "wire string exceeds cap");
  put_u16(buf, static_cast<std::uint16_t>(s.size()));
  buf.insert(buf.end(), s.begin(), s.end());
}

void put_doubles(std::vector<std::uint8_t>& buf,
                 const std::vector<double>& values) {
  for (double v : values) put_f64(buf, v);
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Bounds-checked payload cursor: every read either succeeds inside the
/// payload or flips the error flag; nothing is ever read past `end_`.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t len)
      : cur_(data), end_(data + len) {}

  bool u8(std::uint8_t& v) {
    if (!need(1)) return false;
    v = *cur_++;
    return true;
  }
  bool u16(std::uint16_t& v) {
    if (!need(2)) return false;
    v = static_cast<std::uint16_t>(cur_[0] | (cur_[1] << 8));
    cur_ += 2;
    return true;
  }
  bool u32(std::uint32_t& v) {
    if (!need(4)) return false;
    v = load_u32(cur_);
    cur_ += 4;
    return true;
  }
  bool u64(std::uint64_t& v) {
    if (!need(8)) return false;
    v = load_u64(cur_);
    cur_ += 8;
    return true;
  }
  bool f64(double& v) {
    if (!need(8)) return false;
    const std::uint64_t bits = load_u64(cur_);
    std::memcpy(&v, &bits, sizeof(v));
    cur_ += 8;
    return true;
  }
  bool str(std::string& out) {
    std::uint16_t len = 0;
    if (!u16(len)) return false;
    if (len > kMaxStringBytes || !need(len)) return false;
    out.assign(reinterpret_cast<const char*>(cur_), len);
    cur_ += len;
    return true;
  }
  /// Reads exactly `count` doubles. The caller has already verified that
  /// count*8 bytes remain, so the allocation is bounded by received bytes.
  bool doubles(std::vector<double>& out, std::size_t count) {
    if (!need(count * 8)) return false;
    out.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint64_t bits = load_u64(cur_);
      std::memcpy(&out[i], &bits, sizeof(double));
      cur_ += 8;
    }
    return true;
  }

  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - cur_);
  }
  [[nodiscard]] bool exhausted() const { return cur_ == end_; }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool need(std::size_t n) {
    if (remaining() < n) ok_ = false;
    return ok_;
  }

  const std::uint8_t* cur_;
  const std::uint8_t* end_;
  bool ok_ = true;
};

std::vector<std::uint8_t> make_frame(MessageType type,
                                     std::uint64_t request_id,
                                     std::vector<std::uint8_t> payload) {
  GNS_CHECK_MSG(payload.size() <= kMaxPayloadBytes,
                "encoded payload exceeds kMaxPayloadBytes");
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + payload.size());
  put_u32(frame, kMagic);
  put_u8(frame, kProtocolVersion);
  put_u8(frame, static_cast<std::uint8_t>(type));
  put_u16(frame, 0);  // reserved
  put_u64(frame, request_id);
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

bool fail(std::string& error, const char* what) {
  error = what;
  return false;
}

}  // namespace

// ---- Encoding --------------------------------------------------------------

std::vector<std::uint8_t> encode_rollout_request(
    std::uint64_t request_id, const serve::RolloutRequest& request) {
  GNS_CHECK_MSG(request.steps > 0 &&
                    static_cast<std::uint32_t>(request.steps) <=
                        kMaxRolloutSteps,
                "request steps out of wire range");
  GNS_CHECK_MSG(request.window.size() <= kMaxWindowFrames,
                "request window exceeds wire cap");
  std::vector<std::uint8_t> payload;
  put_string(payload, request.model);
  put_u32(payload, static_cast<std::uint32_t>(request.steps));
  put_f64(payload, request.material);
  put_f64(payload, request.deadline_ms);
  const std::uint32_t frame_len =
      request.window.empty()
          ? 0
          : static_cast<std::uint32_t>(request.window.front().size());
  put_u32(payload, static_cast<std::uint32_t>(request.window.size()));
  put_u32(payload, frame_len);
  for (const auto& frame : request.window) {
    GNS_CHECK_MSG(frame.size() == frame_len,
                  "request window frames differ in length");
    put_doubles(payload, frame);
  }
  put_u32(payload, static_cast<std::uint32_t>(request.node_attrs.size()));
  put_doubles(payload, request.node_attrs);
  put_u64(payload, request.trace_id);
  put_u8(payload, request.trace_flags);
  return make_frame(MessageType::RolloutRequest, request_id,
                    std::move(payload));
}

std::vector<std::uint8_t> encode_rollout_chunk(std::uint64_t request_id,
                                               const WireChunk& chunk) {
  GNS_CHECK_MSG(chunk.frame_len > 0 &&
                    chunk.data.size() % chunk.frame_len == 0,
                "chunk data must be whole frames");
  std::vector<std::uint8_t> payload;
  put_u32(payload, chunk.first_frame);
  put_u32(payload, chunk.num_frames());
  put_u32(payload, chunk.frame_len);
  put_doubles(payload, chunk.data);
  return make_frame(MessageType::RolloutChunk, request_id, std::move(payload));
}

std::vector<std::uint8_t> encode_status_reply(std::uint64_t request_id,
                                              const WireStatus& status) {
  std::vector<std::uint8_t> payload;
  put_u8(payload, static_cast<std::uint8_t>(status.status));
  put_u32(payload, status.total_frames);
  put_f64(payload, status.queue_ms);
  put_f64(payload, status.exec_ms);
  put_f64(payload, status.total_ms);
  std::string message = status.error;
  if (message.size() > kMaxStringBytes) message.resize(kMaxStringBytes);
  put_string(payload, message);
  put_u64(payload, status.trace_id);
  put_u8(payload, status.cached ? 1 : 0);
  put_u8(payload, static_cast<std::uint8_t>(status.cache_outcome));
  put_f64(payload, status.phases.decode_us);
  put_f64(payload, status.phases.cache_us);
  put_f64(payload, status.phases.queue_us);
  put_f64(payload, status.phases.batch_wait_us);
  put_f64(payload, status.phases.compute_us);
  put_f64(payload, status.phases.serialize_us);
  put_f64(payload, status.phases.write_us);
  return make_frame(MessageType::StatusReply, request_id, std::move(payload));
}

std::vector<std::uint8_t> encode_error_reply(std::uint64_t request_id,
                                             const WireError& error) {
  std::vector<std::uint8_t> payload;
  put_u8(payload, static_cast<std::uint8_t>(error.code));
  std::string message = error.message;
  if (message.size() > kMaxStringBytes) message.resize(kMaxStringBytes);
  put_string(payload, message);
  return make_frame(MessageType::ErrorReply, request_id, std::move(payload));
}

std::vector<std::uint8_t> encode_stats_request(
    std::uint64_t request_id, const WireStatsRequest& request) {
  GNS_CHECK_MSG(request.format <= WireStatsRequest::kPrometheus,
                "unknown stats format");
  std::vector<std::uint8_t> payload;
  put_u8(payload, request.format);
  return make_frame(MessageType::StatsRequest, request_id, std::move(payload));
}

std::vector<std::uint8_t> encode_hello(std::uint64_t request_id,
                                       const WireHello& hello) {
  GNS_CHECK_MSG(hello.kind <= WireHello::kRouter, "unknown hello kind");
  std::vector<std::uint8_t> payload;
  put_u8(payload, hello.kind);
  return make_frame(MessageType::Hello, request_id, std::move(payload));
}

std::vector<std::uint8_t> encode_hello_reply(std::uint64_t request_id,
                                             const WireHelloReply& reply) {
  GNS_CHECK_MSG(reply.models.size() <= kMaxHelloModels,
                "hello reply model list exceeds cap");
  std::vector<std::uint8_t> payload;
  put_u8(payload, reply.protocol_version);
  put_u8(payload, reply.draining);
  put_u32(payload, reply.max_inflight);
  put_u32(payload, reply.current_inflight);
  put_u32(payload, reply.workers);
  put_u16(payload, static_cast<std::uint16_t>(reply.models.size()));
  for (const std::string& model : reply.models) put_string(payload, model);
  return make_frame(MessageType::HelloReply, request_id, std::move(payload));
}

std::vector<std::uint8_t> encode_stats_reply(std::uint64_t request_id,
                                             const WireStatsReply& reply) {
  std::string body = reply.body;
  if (body.size() > kMaxStatsBodyBytes) body.resize(kMaxStatsBodyBytes);
  std::vector<std::uint8_t> payload;
  put_f64(payload, reply.uptime_ms);
  put_u32(payload, reply.inflight);
  put_u32(payload, reply.queue_depth);
  put_u32(payload, reply.active_connections);
  put_u8(payload, reply.draining);
  put_u8(payload, reply.format);
  put_u32(payload, static_cast<std::uint32_t>(body.size()));
  payload.insert(payload.end(), body.begin(), body.end());
  return make_frame(MessageType::StatsReply, request_id, std::move(payload));
}

// ---- Decoding --------------------------------------------------------------

DecodeStatus try_decode_frame(const std::uint8_t* data, std::size_t len,
                              FrameView& out, DecodeError& error) {
  if (len < kHeaderBytes) return DecodeStatus::NeedMore;

  // Header checks, in the order that preserves the most framing: magic and
  // version failures mean the byte stream cannot be trusted at all (any
  // version byte but kProtocolVersion is a foreign layout); an
  // oversized length would commit the reader to swallowing an attacker-
  // chosen number of bytes, so it is fatal too.
  if (load_u32(data) != kMagic) {
    error = {NetError::BadMagic, "frame does not start with GNS1 magic",
             /*fatal=*/true, 0, 0};
    return DecodeStatus::Error;
  }
  const std::uint8_t version = data[4];
  const std::uint8_t raw_type = data[5];
  const std::uint16_t reserved =
      static_cast<std::uint16_t>(data[6] | (data[7] << 8));
  const std::uint64_t request_id = load_u64(data + 8);
  const std::uint32_t payload_len = load_u32(data + 16);

  if (version != kProtocolVersion) {
    error = {NetError::BadVersion,
             "unsupported protocol version " + std::to_string(version),
             /*fatal=*/true, 0, request_id};
    return DecodeStatus::Error;
  }
  if (payload_len > kMaxPayloadBytes) {
    error = {NetError::TooLarge,
             "declared payload of " + std::to_string(payload_len) +
                 " bytes exceeds cap",
             /*fatal=*/true, 0, request_id};
    return DecodeStatus::Error;
  }
  const std::size_t frame_bytes = kHeaderBytes + payload_len;
  if (len < frame_bytes) return DecodeStatus::NeedMore;

  if (reserved != 0) {
    error = {NetError::Malformed, "nonzero reserved header field",
             /*fatal=*/false, frame_bytes, request_id};
    return DecodeStatus::Error;
  }
  if (raw_type < static_cast<std::uint8_t>(MessageType::RolloutRequest) ||
      raw_type > static_cast<std::uint8_t>(MessageType::HelloReply)) {
    error = {NetError::BadType,
             "unknown message type " + std::to_string(raw_type),
             /*fatal=*/false, frame_bytes, request_id};
    return DecodeStatus::Error;
  }

  out.type = static_cast<MessageType>(raw_type);
  out.request_id = request_id;
  out.payload = data + kHeaderBytes;
  out.payload_len = payload_len;
  out.frame_bytes = frame_bytes;
  return DecodeStatus::Ok;
}

bool decode_rollout_request(const FrameView& frame,
                            serve::RolloutRequest& out, std::string& error) {
  Reader r(frame.payload, frame.payload_len);
  std::uint32_t steps = 0, num_frames = 0, frame_len = 0, attrs = 0;
  double material = 0.0, deadline_ms = 0.0;
  if (!r.str(out.model)) return fail(error, "bad model string");
  if (!r.u32(steps) || steps == 0 || steps > kMaxRolloutSteps)
    return fail(error, "steps out of range");
  if (!r.f64(material) || !r.f64(deadline_ms))
    return fail(error, "truncated material/deadline");
  if (!r.u32(num_frames) || num_frames == 0 || num_frames > kMaxWindowFrames)
    return fail(error, "window frame count out of range");
  if (!r.u32(frame_len) || frame_len == 0)
    return fail(error, "frame length out of range");
  // Cross-check declared counts against bytes actually present before any
  // allocation: a hostile header cannot force an oversized resize.
  const std::uint64_t window_bytes =
      static_cast<std::uint64_t>(num_frames) * frame_len * 8;
  if (window_bytes > r.remaining())
    return fail(error, "window data truncated");
  out.window.assign(num_frames, {});
  for (auto& f : out.window) {
    if (!r.doubles(f, frame_len)) return fail(error, "window data truncated");
  }
  if (!r.u32(attrs) || static_cast<std::uint64_t>(attrs) * 8 > r.remaining())
    return fail(error, "node_attrs truncated");
  if (!r.doubles(out.node_attrs, attrs))
    return fail(error, "node_attrs truncated");
  if (!r.u64(out.trace_id) || !r.u8(out.trace_flags))
    return fail(error, "truncated trace context");
  if (!r.exhausted()) return fail(error, "trailing bytes after request");
  out.steps = static_cast<int>(steps);
  out.material = material;
  out.deadline_ms = deadline_ms;
  return true;
}

bool decode_rollout_chunk(const FrameView& frame, WireChunk& out,
                          std::string& error) {
  Reader r(frame.payload, frame.payload_len);
  std::uint32_t num_frames = 0;
  if (!r.u32(out.first_frame) || !r.u32(num_frames) || !r.u32(out.frame_len))
    return fail(error, "truncated chunk header");
  if (out.frame_len == 0) return fail(error, "chunk frame length is zero");
  const std::uint64_t data_bytes =
      static_cast<std::uint64_t>(num_frames) * out.frame_len * 8;
  if (data_bytes != r.remaining())
    return fail(error, "chunk data size mismatch");
  if (!r.doubles(out.data,
                 static_cast<std::size_t>(num_frames) * out.frame_len))
    return fail(error, "chunk data truncated");
  return true;
}

bool decode_status_reply(const FrameView& frame, WireStatus& out,
                         std::string& error) {
  Reader r(frame.payload, frame.payload_len);
  std::uint8_t status = 0;
  if (!r.u8(status) ||
      status > static_cast<std::uint8_t>(serve::JobStatus::ShutDown))
    return fail(error, "bad job status");
  if (!r.u32(out.total_frames) || !r.f64(out.queue_ms) ||
      !r.f64(out.exec_ms) || !r.f64(out.total_ms) || !r.str(out.error))
    return fail(error, "truncated status reply");
  std::uint8_t cached = 0, outcome = 0;
  if (!r.u64(out.trace_id) || !r.u8(cached) || !r.u8(outcome))
    return fail(error, "truncated status trace/cache fields");
  if (cached > 1 ||
      outcome > static_cast<std::uint8_t>(serve::CacheOutcome::Joined))
    return fail(error, "bad cache outcome");
  out.cached = cached != 0;
  out.cache_outcome = static_cast<serve::CacheOutcome>(outcome);
  if (!r.f64(out.phases.decode_us) || !r.f64(out.phases.cache_us) ||
      !r.f64(out.phases.queue_us) || !r.f64(out.phases.batch_wait_us) ||
      !r.f64(out.phases.compute_us) || !r.f64(out.phases.serialize_us) ||
      !r.f64(out.phases.write_us))
    return fail(error, "truncated phase breakdown");
  if (!r.exhausted()) return fail(error, "trailing bytes after status");
  out.status = static_cast<serve::JobStatus>(status);
  return true;
}

bool decode_error_reply(const FrameView& frame, WireError& out,
                        std::string& error) {
  Reader r(frame.payload, frame.payload_len);
  std::uint8_t code = 0;
  if (!r.u8(code) || code < static_cast<std::uint8_t>(NetError::Busy) ||
      code > static_cast<std::uint8_t>(NetError::BackendLost))
    return fail(error, "bad error code");
  if (!r.str(out.message)) return fail(error, "truncated error message");
  if (!r.exhausted()) return fail(error, "trailing bytes after error");
  out.code = static_cast<NetError>(code);
  return true;
}

bool decode_stats_request(const FrameView& frame, WireStatsRequest& out,
                          std::string& error) {
  Reader r(frame.payload, frame.payload_len);
  std::uint8_t format = 0;
  if (!r.u8(format) || format > WireStatsRequest::kPrometheus)
    return fail(error, "bad stats format");
  if (!r.exhausted()) return fail(error, "trailing bytes after stats request");
  out.format = format;
  return true;
}

bool decode_stats_reply(const FrameView& frame, WireStatsReply& out,
                        std::string& error) {
  Reader r(frame.payload, frame.payload_len);
  std::uint32_t body_len = 0;
  if (!r.f64(out.uptime_ms) || !r.u32(out.inflight) ||
      !r.u32(out.queue_depth) || !r.u32(out.active_connections) ||
      !r.u8(out.draining) || !r.u8(out.format))
    return fail(error, "truncated stats reply header");
  if (out.format > WireStatsRequest::kPrometheus)
    return fail(error, "bad stats format");
  if (!r.u32(body_len) || body_len > kMaxStatsBodyBytes ||
      body_len != r.remaining())
    return fail(error, "stats body size mismatch");
  out.body.assign(reinterpret_cast<const char*>(frame.payload) +
                      (frame.payload_len - body_len),
                  body_len);
  return true;
}

bool decode_hello(const FrameView& frame, WireHello& out,
                  std::string& error) {
  Reader r(frame.payload, frame.payload_len);
  std::uint8_t kind = 0;
  if (!r.u8(kind) || kind > WireHello::kRouter)
    return fail(error, "bad hello kind");
  if (!r.exhausted()) return fail(error, "trailing bytes after hello");
  out.kind = kind;
  return true;
}

bool decode_hello_reply(const FrameView& frame, WireHelloReply& out,
                        std::string& error) {
  Reader r(frame.payload, frame.payload_len);
  std::uint16_t num_models = 0;
  if (!r.u8(out.protocol_version) || !r.u8(out.draining) ||
      !r.u32(out.max_inflight) || !r.u32(out.current_inflight) ||
      !r.u32(out.workers) || !r.u16(num_models))
    return fail(error, "truncated hello reply");
  if (out.draining > 1) return fail(error, "bad hello draining flag");
  if (out.protocol_version < kProtocolVersion)
    return fail(error, "bad hello protocol version");
  if (num_models > kMaxHelloModels)
    return fail(error, "hello model list exceeds cap");
  // Each name costs at least its 2-byte length prefix, so the count is
  // cross-checked against received bytes before any allocation.
  if (static_cast<std::size_t>(num_models) * 2 > r.remaining())
    return fail(error, "hello model list truncated");
  out.models.assign(num_models, {});
  for (std::string& model : out.models) {
    if (!r.str(model)) return fail(error, "hello model list truncated");
  }
  if (!r.exhausted()) return fail(error, "trailing bytes after hello reply");
  return true;
}

}  // namespace gns::net
