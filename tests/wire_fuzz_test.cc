/// Robustness fuzz for the svc wire decoder and the server's framing
/// path: seeded, deterministic truncations and bit-flips of valid
/// frames (plus pure garbage streams) must always end in a
/// clean outcome — an incomplete frame awaiting more bytes, a
/// malformed-stream verdict (connection drop), or a well-bounded
/// decoded frame. Never a crash, an unbounded loop, an overread (the
/// asan/ubsan presets run this test too), and never a *truncated*
/// frame accepted as complete. The server half sends the same mutated
/// bytes at a live svc::Server and asserts it survives: every mutated
/// connection ends in a disconnect or a parseable reply, and the
/// server still answers a clean client afterwards.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace rococo::svc {
namespace {

std::string
test_socket_path(const std::string& tag)
{
    return "/tmp/rococo_wire_fuzz_" + tag + "_" +
           std::to_string(getpid()) + ".sock";
}

/// One valid frame of every kind the protocol defines.
std::vector<std::vector<uint8_t>>
valid_frames()
{
    WireRequest request;
    request.request_id = 7;
    request.deadline_ns = 1'000'000;
    request.trace_id = 11;
    request.parent_span_id = 13;
    request.offload.reads = {1, 2, 3};
    request.offload.writes = {4, 5};
    request.offload.snapshot_cid = 9;

    WireResponse response;
    response.request_id = 7;
    response.result.verdict = core::Verdict::kCommit;
    response.result.cid = 42;
    response.stages.engine_ns = 500;

    std::vector<std::vector<uint8_t>> frames;
    frames.emplace_back();
    encode_request(frames.back(), request);
    frames.emplace_back();
    encode_response(frames.back(), response);
    frames.emplace_back();
    encode_control(frames.back(), MsgType::kSnapshot);
    frames.emplace_back();
    encode_control(frames.back(), MsgType::kSnapshotReply,
                   "{\"metrics\": {\"counters\": {}},\n\"monitor\": "
                   "{\"enabled\": false},\n\"topk\": {\"shards\": []}}");
    frames.emplace_back();
    encode_control(frames.back(), MsgType::kDump);
    frames.emplace_back();
    encode_control(frames.back(), MsgType::kDumpReply, "{\"ok\": false}");
    return frames;
}

/// Drain @p reader, decoding every completed frame, and assert the
/// stream ends cleanly within the structural bound (every frame
/// consumes at least the 5-byte header, so a finite buffer can only
/// hold finitely many).
void
drain(FrameReader& reader, size_t fed_bytes)
{
    const size_t bound = fed_bytes / kFrameHeaderBytes + 1;
    size_t frames = 0;
    for (;;) {
        ASSERT_LE(frames, bound) << "decoder yielded impossible frame count";
        bool malformed = false;
        const auto frame = reader.next(&malformed);
        if (!frame) {
            // Clean end: either corrupt (caller would disconnect) or
            // waiting for bytes that will never come.
            return;
        }
        ++frames;
        // Whatever survived framing must decode without crashing and
        // within the protocol's own bounds.
        switch (frame->type) {
        case MsgType::kRequestV2: {
            const auto decoded =
                decode_request(frame->type, frame->payload, frame->size);
            if (decoded) {
                ASSERT_LE(decoded->offload.reads.size(), kMaxAddresses);
                ASSERT_LE(decoded->offload.writes.size(), kMaxAddresses);
            }
            break;
        }
        case MsgType::kResponseV2:
            (void)decode_response(frame->type, frame->payload,
                                  frame->size);
            break;
        case MsgType::kSnapshot:
        case MsgType::kSnapshotReply:
        case MsgType::kDump:
        case MsgType::kDumpReply:
            break; // empty / raw JSON payloads; nothing to decode
        }
    }
}

TEST(WireFuzz, TruncationsNeverCompleteAFrame)
{
    for (const auto& frame : valid_frames()) {
        for (size_t keep = 0; keep < frame.size(); ++keep) {
            FrameReader reader;
            reader.append(frame.data(), keep);
            bool malformed = false;
            const auto got = reader.next(&malformed);
            // A strict prefix can never decode as the full frame: the
            // reader either waits for the rest or flags corruption —
            // it must not hand out a short frame.
            ASSERT_FALSE(got.has_value())
                << "truncated frame accepted at " << keep << "/"
                << frame.size() << " bytes";
        }
    }
}

TEST(WireFuzz, BitFlipsEndCleanOrBoundedDecode)
{
    Xoshiro256 rng(2026);
    for (const auto& frame : valid_frames()) {
        // Retagged with a retired type byte (v1's 1-2, the per-section
        // control ops' 9-14), a valid frame is an unknown type.
        for (const uint8_t type : {1, 2, 9, 10, 11, 12, 13, 14}) {
            auto retagged = frame;
            retagged[4] = type;
            FrameReader reader;
            reader.append(retagged.data(), retagged.size());
            bool malformed = false;
            EXPECT_FALSE(reader.next(&malformed).has_value());
            EXPECT_TRUE(malformed) << "type byte " << int(type);
        }
        for (int trial = 0; trial < 200; ++trial) {
            auto mutated = frame;
            // One to three seeded single-bit flips anywhere in the
            // frame (header and payload alike).
            const int flips = 1 + int(rng.below(3));
            for (int f = 0; f < flips; ++f) {
                const size_t byte = size_t(rng.below(mutated.size()));
                mutated[byte] ^= uint8_t(1u << rng.below(8));
            }
            FrameReader reader;
            reader.append(mutated.data(), mutated.size());
            drain(reader, mutated.size());
            if (testing::Test::HasFatalFailure()) return;
        }
    }
}

TEST(WireFuzz, GarbageStreamsEndClean)
{
    Xoshiro256 rng(7);
    for (int trial = 0; trial < 100; ++trial) {
        const size_t size = 1 + size_t(rng.below(4096));
        std::vector<uint8_t> garbage(size);
        for (auto& byte : garbage) byte = uint8_t(rng());
        FrameReader reader;
        // Feed in random-sized chunks to exercise resynchronization
        // across append() boundaries.
        size_t off = 0;
        while (off < garbage.size()) {
            const size_t chunk =
                std::min(garbage.size() - off, 1 + rng.below(97));
            reader.append(garbage.data() + off, chunk);
            off += chunk;
        }
        drain(reader, garbage.size());
        if (testing::Test::HasFatalFailure()) return;
    }
}

/// Raw client socket with a receive timeout so a wedged server shows
/// up as a bounded wait, not a hang. Mutation volleys use a short
/// timeout (a parked half-frame is a *correct* server reaction and
/// must not stall the test); the liveness probe uses a generous one.
int
connect_raw(const std::string& path, unsigned timeout_ms = 5000)
{
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    timeval timeout{};
    timeout.tv_sec = timeout_ms / 1000;
    timeout.tv_usec = suseconds_t(timeout_ms % 1000) * 1000;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        close(fd);
        return -1;
    }
    return fd;
}

bool
send_all(int fd, const std::vector<uint8_t>& bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = send(fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        off += size_t(n);
    }
    return true;
}

/// True when the server answers a clean kSnapshot round trip — the
/// liveness probe run between and after the mutation volleys.
bool
server_answers_snapshot(const std::string& path)
{
    const int fd = connect_raw(path);
    if (fd < 0) return false;
    std::vector<uint8_t> frame;
    encode_control(frame, MsgType::kSnapshot);
    if (!send_all(fd, frame)) {
        close(fd);
        return false;
    }
    FrameReader reader;
    uint8_t buf[64 * 1024];
    for (;;) {
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            close(fd);
            return false;
        }
        reader.append(buf, size_t(n));
        bool malformed = false;
        while (auto got = reader.next(&malformed)) {
            if (got->type == MsgType::kSnapshotReply) {
                close(fd);
                return true;
            }
        }
        if (malformed) {
            close(fd);
            return false;
        }
    }
}

/// Mutation volley against a live server: 120 truncated/bit-flipped
/// frames on fresh connections, periodic and final liveness probes,
/// and the accounting cross-check after stop.
TEST(WireFuzz, ServerSurvivesMutatedFrames)
{
    ServerConfig config;
    config.socket_path = test_socket_path("server");
    Server server(config);
    ASSERT_TRUE(server.start());

    const auto frames = valid_frames();
    Xoshiro256 rng(99);
    for (int trial = 0; trial < 120; ++trial) {
        auto mutated = frames[size_t(rng.below(frames.size()))];
        if (rng.below(2) == 0) {
            // Truncation.
            mutated.resize(size_t(rng.below(mutated.size())));
        } else {
            const int flips = 1 + int(rng.below(3));
            for (int f = 0; f < flips; ++f) {
                const size_t byte = size_t(rng.below(mutated.size()));
                mutated[byte] ^= uint8_t(1u << rng.below(8));
            }
        }
        const int fd = connect_raw(config.socket_path, /*timeout_ms=*/50);
        ASSERT_GE(fd, 0) << "server stopped accepting at trial " << trial;
        if (send_all(fd, mutated)) {
            // Give the server a chance to react; either it answers
            // something (possibly a valid response if only the payload
            // mutated) or it drops us. Both are clean. A timeout here
            // is fine too — e.g. a truncated frame parks the
            // connection waiting for the rest; liveness is checked on
            // a separate clean connection below.
            uint8_t buf[4096];
            (void)recv(fd, buf, sizeof(buf), 0);
        }
        close(fd);
        if (trial % 30 == 0) {
            ASSERT_TRUE(server_answers_snapshot(config.socket_path))
                << "server wedged after trial " << trial;
        }
    }
    // Final liveness: a snapshot answers and the accounting registry is
    // still self-consistent (every counted request got a verdict).
    ASSERT_TRUE(server_answers_snapshot(config.socket_path));
    server.stop();
    const CounterBag stats = server.stats();
    const uint64_t answered = stats.get("svc.verdict.commit") +
                              stats.get("svc.verdict.abort-cycle") +
                              stats.get("svc.verdict.window-overflow") +
                              stats.get("svc.timeout") +
                              stats.get("svc.rejected");
    EXPECT_EQ(stats.get("svc.requests"), answered);
}

} // namespace
} // namespace rococo::svc
