// Wire protocol: round-trip fidelity and fuzz-style decode robustness.
//
// The decode path is the server's attack surface: it must classify
// truncated, bit-flipped, oversized-length, wrong-magic, and plain random
// garbage frames as typed errors (or NeedMore) without crashing, leaking,
// or allocating proportionally to attacker-chosen lengths. This suite runs
// under the ASan/UBSan CI job, so "no crashes/leaks" is machine-checked.

#include <gtest/gtest.h>

#include <cstring>

#include "net/protocol.hpp"
#include "util/rng.hpp"

namespace gns::net {
namespace {

serve::RolloutRequest sample_request() {
  serve::RolloutRequest req;
  req.model = "columns";
  req.steps = 12;
  req.material = 0.577;
  req.deadline_ms = 250.0;
  req.window = {{0.1, 0.2, 0.3, 0.4}, {0.15, 0.25, 0.35, 0.45},
                {0.2, 0.3, 0.4, 0.5}};
  req.node_attrs = {1.0, 0.0};
  return req;
}

/// Decodes the frame at the buffer head, asserting it frames correctly.
FrameView must_frame(const std::vector<std::uint8_t>& wire) {
  FrameView frame;
  DecodeError error;
  EXPECT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
            DecodeStatus::Ok)
      << error.message;
  return frame;
}

/// Runs the payload decoder that matches the frame's type. Fuzz tests feed
/// it every mutant that frames: the decoder must accept or reject it with
/// a message, never crash (ASan/UBSan enforce the memory half).
void decode_payload(const FrameView& frame) {
  std::string error;
  switch (frame.type) {
    case MessageType::RolloutRequest: {
      serve::RolloutRequest out;
      (void)decode_rollout_request(frame, out, error);
      break;
    }
    case MessageType::RolloutChunk: {
      WireChunk out;
      (void)decode_rollout_chunk(frame, out, error);
      break;
    }
    case MessageType::StatusReply: {
      WireStatus out;
      (void)decode_status_reply(frame, out, error);
      break;
    }
    case MessageType::ErrorReply: {
      WireError out;
      (void)decode_error_reply(frame, out, error);
      break;
    }
    case MessageType::StatsRequest: {
      WireStatsRequest out;
      (void)decode_stats_request(frame, out, error);
      break;
    }
    case MessageType::StatsReply: {
      WireStatsReply out;
      (void)decode_stats_reply(frame, out, error);
      break;
    }
    case MessageType::Hello: {
      WireHello out;
      (void)decode_hello(frame, out, error);
      break;
    }
    case MessageType::HelloReply: {
      WireHelloReply out;
      (void)decode_hello_reply(frame, out, error);
      break;
    }
  }
}

TEST(NetProtocol, RolloutRequestRoundTripIsExact) {
  const serve::RolloutRequest req = sample_request();
  const auto wire = encode_rollout_request(77, req);
  const FrameView frame = must_frame(wire);
  EXPECT_EQ(frame.type, MessageType::RolloutRequest);
  EXPECT_EQ(frame.request_id, 77u);
  EXPECT_EQ(frame.frame_bytes, wire.size());

  serve::RolloutRequest out;
  std::string error;
  ASSERT_TRUE(decode_rollout_request(frame, out, error)) << error;
  EXPECT_EQ(out.model, req.model);
  EXPECT_EQ(out.steps, req.steps);
  EXPECT_EQ(out.material, req.material);  // bitwise: doubles travel as-is
  EXPECT_EQ(out.deadline_ms, req.deadline_ms);
  EXPECT_EQ(out.window, req.window);
  EXPECT_EQ(out.node_attrs, req.node_attrs);
}

TEST(NetProtocol, ChunkStatusErrorRoundTrip) {
  WireChunk chunk;
  chunk.first_frame = 5;
  chunk.frame_len = 3;
  chunk.data = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  {
    const auto wire = encode_rollout_chunk(9, chunk);
    WireChunk out;
    std::string error;
    ASSERT_TRUE(decode_rollout_chunk(must_frame(wire), out, error)) << error;
    EXPECT_EQ(out.first_frame, 5u);
    EXPECT_EQ(out.num_frames(), 2u);
    EXPECT_EQ(out.data, chunk.data);
  }
  {
    WireStatus status;
    status.status = serve::JobStatus::DeadlineExceeded;
    status.total_frames = 4;
    status.queue_ms = 1.5;
    status.exec_ms = 2.5;
    status.total_ms = 4.25;
    status.error = "deadline exceeded after 4 of 9 steps";
    const auto wire = encode_status_reply(11, status);
    WireStatus out;
    std::string error;
    ASSERT_TRUE(decode_status_reply(must_frame(wire), out, error)) << error;
    EXPECT_EQ(out.status, serve::JobStatus::DeadlineExceeded);
    EXPECT_EQ(out.total_frames, 4u);
    EXPECT_EQ(out.total_ms, 4.25);
    EXPECT_EQ(out.error, status.error);
  }
  {
    const auto wire = encode_error_reply(13, {NetError::Busy, "try later"});
    WireError out;
    std::string error;
    ASSERT_TRUE(decode_error_reply(must_frame(wire), out, error)) << error;
    EXPECT_EQ(out.code, NetError::Busy);
    EXPECT_EQ(out.message, "try later");
  }
}

TEST(NetProtocol, EveryTruncationIsNeedMoreNeverError) {
  const auto wire = encode_rollout_request(1, sample_request());
  // A prefix of a valid frame is always an incomplete frame — the decoder
  // must ask for more bytes, never misclassify or read past the end.
  for (std::size_t len = 0; len < wire.size(); ++len) {
    FrameView frame;
    DecodeError error;
    EXPECT_EQ(try_decode_frame(wire.data(), len, frame, error),
              DecodeStatus::NeedMore)
        << "prefix length " << len;
  }
}

TEST(NetProtocol, WrongMagicIsFatalTypedError) {
  auto wire = encode_rollout_request(1, sample_request());
  wire[0] ^= 0xFF;
  FrameView frame;
  DecodeError error;
  ASSERT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
            DecodeStatus::Error);
  EXPECT_EQ(error.code, NetError::BadMagic);
  EXPECT_TRUE(error.fatal);
}

TEST(NetProtocol, OversizedLengthRejectedBeforeBufferingOrAllocation) {
  auto wire = encode_rollout_request(1, sample_request());
  const std::uint32_t huge = kMaxPayloadBytes + 1;
  std::memcpy(wire.data() + 16, &huge, sizeof(huge));  // payload_len field
  FrameView frame;
  DecodeError error;
  // Only the 20-byte header is present, yet the verdict is immediate: a
  // hostile length must never make the server buffer toward it.
  ASSERT_EQ(try_decode_frame(wire.data(), kHeaderBytes, frame, error),
            DecodeStatus::Error);
  EXPECT_EQ(error.code, NetError::TooLarge);
  EXPECT_TRUE(error.fatal);
}

TEST(NetProtocol, UnknownVersionAndTypeAreTyped) {
  // One layout: retired versions (1, 2) are as foreign as future ones.
  for (std::uint8_t version : {0, 1, 2, 4, 99}) {
    auto wire = encode_rollout_request(1, sample_request());
    wire[4] = version;
    FrameView frame;
    DecodeError error;
    ASSERT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
              DecodeStatus::Error)
        << "version " << static_cast<int>(version);
    EXPECT_EQ(error.code, NetError::BadVersion);
    EXPECT_TRUE(error.fatal);
  }
  {
    auto wire = encode_rollout_request(42, sample_request());
    wire[5] = 200;  // type: framing survives, the frame is skippable
    FrameView frame;
    DecodeError error;
    ASSERT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
              DecodeStatus::Error);
    EXPECT_EQ(error.code, NetError::BadType);
    EXPECT_FALSE(error.fatal);
    EXPECT_EQ(error.skip_bytes, wire.size());
    EXPECT_EQ(error.request_id, 42u);  // echoable in the ErrorReply
  }
}

TEST(NetProtocol, EveryBitFlipDecodesWithoutCrashing) {
  const auto pristine = encode_rollout_request(7, sample_request());
  // Flip every bit of the frame one at a time; each mutant must decode to
  // Ok / NeedMore / a typed error — and payload parsing, when reached,
  // must validate without crashing (ASan/UBSan enforce the "cleanly" part).
  for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto mutant = pristine;
      mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
      FrameView frame;
      DecodeError error;
      if (try_decode_frame(mutant.data(), mutant.size(), frame, error) ==
          DecodeStatus::Ok)
        decode_payload(frame);
    }
  }
}

TEST(NetProtocol, RandomGarbageNeverCrashes) {
  // Random payloads behind a valid header (magic, version, a type in
  // 1..8, zero reserved, a payload_len that matches): every trial frames,
  // so the garbage reaches the payload decoders instead of dying at the
  // magic check.
  Rng rng(20260807);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto len = static_cast<std::uint32_t>(rng.uniform(0.0, 96.0));
    std::vector<std::uint8_t> wire(kHeaderBytes + len, 0);
    std::memcpy(wire.data(), &kMagic, sizeof(kMagic));
    wire[4] = kProtocolVersion;
    wire[5] = static_cast<std::uint8_t>(rng.uniform(1.0, 9.0));
    std::memcpy(wire.data() + 16, &len, sizeof(len));  // payload_len
    for (std::size_t i = kHeaderBytes; i < wire.size(); ++i)
      wire[i] = static_cast<std::uint8_t>(rng.uniform(0.0, 256.0));
    FrameView frame;
    DecodeError error;
    ASSERT_EQ(try_decode_frame(wire.data(), wire.size(), frame, error),
              DecodeStatus::Ok)
        << "trial " << trial << ": " << error.message;
    decode_payload(frame);
  }
}

TEST(NetProtocol, PayloadCountMismatchesAreMalformed) {
  // Declared window bigger than the bytes present.
  {
    auto wire = encode_rollout_request(1, sample_request());
    FrameView frame = must_frame(wire);
    // Patch num_window_frames (after model string + steps + 2 doubles).
    const std::size_t off = kHeaderBytes + 2 + 7 + 4 + 8 + 8;
    const std::uint32_t bogus = 60;
    std::memcpy(wire.data() + off, &bogus, sizeof(bogus));
    frame = must_frame(wire);
    serve::RolloutRequest out;
    std::string error;
    EXPECT_FALSE(decode_rollout_request(frame, out, error));
    EXPECT_FALSE(error.empty());
  }
  // Trailing bytes after a complete request payload.
  {
    auto wire = encode_rollout_request(1, sample_request());
    wire.insert(wire.end(), {0, 0, 0, 0});  // 4 junk bytes inside the frame
    std::uint32_t payload_len;
    std::memcpy(&payload_len, wire.data() + 16, sizeof(payload_len));
    payload_len += 4;
    std::memcpy(wire.data() + 16, &payload_len, sizeof(payload_len));
    serve::RolloutRequest out;
    std::string error;
    EXPECT_FALSE(decode_rollout_request(must_frame(wire), out, error));
  }
  // Chunk whose data does not tile into whole frames.
  {
    WireChunk chunk;
    chunk.first_frame = 0;
    chunk.frame_len = 3;
    chunk.data = {1.0, 2.0, 3.0};
    auto wire = encode_rollout_chunk(1, chunk);
    // Patch frame_len to 2: 3 doubles no longer tile.
    const std::uint32_t bogus = 2;
    std::memcpy(wire.data() + kHeaderBytes + 8, &bogus, sizeof(bogus));
    WireChunk out;
    std::string error;
    EXPECT_FALSE(decode_rollout_chunk(must_frame(wire), out, error));
  }
  // Status with an out-of-range JobStatus byte.
  {
    WireStatus status;
    auto wire = encode_status_reply(1, status);
    wire[kHeaderBytes] = 250;
    WireStatus out;
    std::string error;
    EXPECT_FALSE(decode_status_reply(must_frame(wire), out, error));
  }
}

// ---- Trace context, phase breakdown, stats frames --------------------------

TEST(NetProtocolV2, RequestTraceContextRoundTrips) {
  serve::RolloutRequest req = sample_request();
  req.trace_id = 0xDEADBEEFCAFEF00Dull;
  req.trace_flags = 3;
  const auto wire = encode_rollout_request(5, req);
  const FrameView frame = must_frame(wire);
  EXPECT_EQ(wire[4], kProtocolVersion);  // header version byte

  serve::RolloutRequest out;
  std::string error;
  ASSERT_TRUE(decode_rollout_request(frame, out, error)) << error;
  EXPECT_EQ(out.trace_id, req.trace_id);
  EXPECT_EQ(out.trace_flags, req.trace_flags);
  EXPECT_EQ(out.window, req.window);
}

WireStatus sample_status() {
  WireStatus status;
  status.status = serve::JobStatus::Ok;
  status.total_frames = 8;
  status.queue_ms = 1.5;
  status.exec_ms = 2.5;
  status.total_ms = 4.25;
  status.trace_id = 0x123456789ABCDEF0ull;
  status.cached = true;
  status.cache_outcome = serve::CacheOutcome::Hit;
  status.phases.decode_us = 11.0;
  status.phases.cache_us = 22.0;
  status.phases.queue_us = 33.0;
  status.phases.batch_wait_us = 44.0;
  status.phases.compute_us = 55.0;
  status.phases.serialize_us = 66.0;
  return status;
}

TEST(NetProtocolV2, StatusReplyPhasesAndOutcomeRoundTrip) {
  const WireStatus status = sample_status();
  const auto wire = encode_status_reply(21, status);
  WireStatus out;
  std::string error;
  ASSERT_TRUE(decode_status_reply(must_frame(wire), out, error)) << error;
  EXPECT_EQ(out.trace_id, status.trace_id);
  EXPECT_TRUE(out.cached);
  EXPECT_EQ(out.cache_outcome, serve::CacheOutcome::Hit);
  EXPECT_EQ(out.phases.decode_us, 11.0);
  EXPECT_EQ(out.phases.cache_us, 22.0);
  EXPECT_EQ(out.phases.queue_us, 33.0);
  EXPECT_EQ(out.phases.batch_wait_us, 44.0);
  EXPECT_EQ(out.phases.compute_us, 55.0);
  EXPECT_EQ(out.phases.serialize_us, 66.0);
  EXPECT_EQ(out.phases.write_us, 0.0);  // by definition 0 on the wire
}

TEST(NetProtocolV2, StatsFramesRoundTrip) {
  {
    WireStatsRequest req;
    req.format = WireStatsRequest::kJson;
    const auto wire = encode_stats_request(31, req);
    const FrameView frame = must_frame(wire);
    EXPECT_EQ(frame.type, MessageType::StatsRequest);
    WireStatsRequest out;
    std::string error;
    ASSERT_TRUE(decode_stats_request(frame, out, error)) << error;
    EXPECT_EQ(out.format, WireStatsRequest::kJson);
  }
  {
    WireStatsReply reply;
    reply.uptime_ms = 1234.5;
    reply.inflight = 3;
    reply.queue_depth = 7;
    reply.active_connections = 2;
    reply.draining = 1;
    reply.format = WireStatsRequest::kPrometheus;
    reply.body = "# HELP x x\nx_total 4\n";
    const auto wire = encode_stats_reply(32, reply);
    const FrameView frame = must_frame(wire);
    EXPECT_EQ(frame.type, MessageType::StatsReply);
    WireStatsReply out;
    std::string error;
    ASSERT_TRUE(decode_stats_reply(frame, out, error)) << error;
    EXPECT_EQ(out.uptime_ms, 1234.5);
    EXPECT_EQ(out.inflight, 3u);
    EXPECT_EQ(out.queue_depth, 7u);
    EXPECT_EQ(out.active_connections, 2u);
    EXPECT_EQ(out.draining, 1u);
    EXPECT_EQ(out.body, reply.body);
  }
}

TEST(NetProtocolV2, OversizedStatsBodyIsTruncatedAtEncode) {
  WireStatsReply reply;
  reply.body.assign(kMaxStatsBodyBytes + 1000, 'x');
  const auto wire = encode_stats_reply(33, reply);
  WireStatsReply out;
  std::string error;
  ASSERT_TRUE(decode_stats_reply(must_frame(wire), out, error)) << error;
  EXPECT_EQ(out.body.size(), kMaxStatsBodyBytes);
}

TEST(NetProtocolV2, NewFramesSurviveTruncationAndBitFlips) {
  WireStatsReply reply;
  reply.uptime_ms = 99.0;
  reply.body = "metric 1\n";
  WireHelloReply hello_reply;
  hello_reply.max_inflight = 8;
  hello_reply.models = {"columns", "m"};
  const std::vector<std::vector<std::uint8_t>> frames = {
      encode_stats_request(41, {}),
      encode_stats_reply(42, reply),
      encode_status_reply(43, sample_status()),
      encode_hello(44, {WireHello::kRouter}),
      encode_hello_reply(45, hello_reply),
  };
  for (const auto& pristine : frames) {
    // Every strict prefix is NeedMore — length-prefix framing is intact.
    for (std::size_t len = 0; len < pristine.size(); ++len) {
      FrameView frame;
      DecodeError error;
      EXPECT_EQ(try_decode_frame(pristine.data(), len, frame, error),
                DecodeStatus::NeedMore)
          << "prefix length " << len;
    }
    // Every single-bit mutant decodes cleanly or fails typed — never
    // crashes (ASan/UBSan enforce the memory half of that claim).
    for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        auto mutant = pristine;
        mutant[byte] ^= static_cast<std::uint8_t>(1u << bit);
        FrameView frame;
        DecodeError error;
        if (try_decode_frame(mutant.data(), mutant.size(), frame, error) ==
            DecodeStatus::Ok)
          decode_payload(frame);
      }
    }
  }
}

// ---- HELLO capability handshake, BackendLost -------------------------------

TEST(NetProtocolV3, HelloRoundTripIsExact) {
  {
    WireHello hello;
    hello.kind = WireHello::kRouter;
    const auto wire = encode_hello(51, hello);
    const FrameView frame = must_frame(wire);
    EXPECT_EQ(frame.type, MessageType::Hello);
    EXPECT_EQ(wire[4], kProtocolVersion);  // header version byte
    WireHello out;
    std::string error;
    ASSERT_TRUE(decode_hello(frame, out, error)) << error;
    EXPECT_EQ(out.kind, WireHello::kRouter);
  }
  {
    WireHelloReply reply;
    reply.protocol_version = kProtocolVersion;
    reply.draining = 1;
    reply.max_inflight = 64;
    reply.current_inflight = 3;
    reply.workers = 4;
    reply.models = {"columns", "sand", "mpm_2d"};
    const auto wire = encode_hello_reply(52, reply);
    const FrameView frame = must_frame(wire);
    EXPECT_EQ(frame.type, MessageType::HelloReply);
    WireHelloReply out;
    std::string error;
    ASSERT_TRUE(decode_hello_reply(frame, out, error)) << error;
    EXPECT_EQ(out.protocol_version, kProtocolVersion);
    EXPECT_EQ(out.draining, 1u);
    EXPECT_EQ(out.max_inflight, 64u);
    EXPECT_EQ(out.current_inflight, 3u);
    EXPECT_EQ(out.workers, 4u);
    EXPECT_EQ(out.models, reply.models);
  }
}

TEST(NetProtocolV3, BackendLostRoundTrips) {
  const auto wire = encode_error_reply(54, {NetError::BackendLost, "gone"});
  WireError out;
  std::string error;
  ASSERT_TRUE(decode_error_reply(must_frame(wire), out, error)) << error;
  EXPECT_EQ(out.code, NetError::BackendLost);
  EXPECT_EQ(out.message, "gone");
}

TEST(NetProtocolV3, HelloReplyModelCountIsBounded) {
  WireHelloReply reply;
  reply.models = {"a", "b"};
  auto wire = encode_hello_reply(55, reply);
  // Patch num_models (u16 after the 14-byte fixed header fields) to claim
  // more entries than the payload holds: must fail, not over-allocate.
  const std::uint16_t bogus = 999;
  std::memcpy(wire.data() + kHeaderBytes + 14, &bogus, sizeof(bogus));
  WireHelloReply out;
  std::string error;
  EXPECT_FALSE(decode_hello_reply(must_frame(wire), out, error));
  EXPECT_FALSE(error.empty());
}

TEST(NetProtocol, BackToBackFramesDecodeSequentially) {
  const auto a = encode_error_reply(1, {NetError::Busy, "a"});
  const auto b = encode_status_reply(2, {});
  std::vector<std::uint8_t> stream = a;
  stream.insert(stream.end(), b.begin(), b.end());

  FrameView frame;
  DecodeError error;
  ASSERT_EQ(try_decode_frame(stream.data(), stream.size(), frame, error),
            DecodeStatus::Ok);
  EXPECT_EQ(frame.type, MessageType::ErrorReply);
  EXPECT_EQ(frame.request_id, 1u);

  ASSERT_EQ(try_decode_frame(stream.data() + frame.frame_bytes,
                             stream.size() - frame.frame_bytes, frame, error),
            DecodeStatus::Ok);
  EXPECT_EQ(frame.type, MessageType::StatusReply);
  EXPECT_EQ(frame.request_id, 2u);
}

}  // namespace
}  // namespace gns::net
