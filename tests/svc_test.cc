/// Tests for the networked validation service (src/svc): wire-protocol
/// round-trips over every field and boundary size, incremental framing,
/// server batching/backpressure/deadline semantics, client failure
/// contract, an end-to-end smoke test with concurrent clients whose
/// abort accounting must sum, and the RococoTm service-backend switch.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/spin_wait.h"
#include "obs/tracer.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/wire.h"
#include "tm/rococo_tm.h"

namespace rococo::svc {
namespace {

std::string
test_socket_path(const char* tag)
{
    return "/tmp/rococo_svc_test_" + std::string(tag) + "_" +
           std::to_string(getpid()) + ".sock";
}

/// Raw connected socket for tests that speak the wire protocol without
/// the client library; -1 on failure.
int
connect_raw(const std::string& path)
{
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        close(fd);
        return -1;
    }
    return fd;
}

/// Blocking-read frames from @p fd until one of type @p want arrives
/// (other types are skipped); nullopt on EOF/error.
std::optional<std::vector<uint8_t>>
read_frame_of_type(int fd, MsgType want)
{
    FrameReader reader;
    uint8_t buf[64 * 1024];
    for (;;) {
        while (auto frame = reader.next()) {
            if (frame->type == want) {
                return std::vector<uint8_t>(frame->payload,
                                            frame->payload + frame->size);
            }
        }
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) return std::nullopt;
        reader.append(buf, static_cast<size_t>(n));
    }
}

/// Send one kSnapshot frame on @p fd and return the reply JSON;
/// nullopt on EOF/error.
std::optional<std::string>
request_snapshot(int fd)
{
    std::vector<uint8_t> frame;
    encode_control(frame, MsgType::kSnapshot);
    if (send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
        return std::nullopt;
    }
    auto payload = read_frame_of_type(fd, MsgType::kSnapshotReply);
    if (!payload) return std::nullopt;
    return std::string(payload->begin(), payload->end());
}

/// A payload-bearing control frame of @p type is malformed: the server
/// must close the connection.
void
expect_payload_disconnects(const std::string& path, MsgType type)
{
    const int bad = connect_raw(path);
    ASSERT_GE(bad, 0);
    const uint8_t junk[kFrameHeaderBytes + 1] = {
        1, 0, 0, 0, static_cast<uint8_t>(type), 0xcc};
    ASSERT_EQ(send(bad, junk, sizeof(junk), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(junk)));
    uint8_t buf[16];
    EXPECT_EQ(recv(bad, buf, sizeof(buf), 0), 0) << "not disconnected";
    close(bad);
}

// ---------------------------------------------------------------------
// Wire protocol

TEST(Wire, RequestRoundTripAllFields)
{
    WireRequest in;
    in.request_id = 0xdeadbeefcafef00dULL;
    in.deadline_ns = 123456789;
    in.trace_id = 0x1122334455667788ULL;
    in.parent_span_id = 0x99aabbccddeeff00ULL;
    in.offload.snapshot_cid = 0xffffffffffffffffULL;
    in.offload.reads = {0, 1, 0x8000000000000000ULL, 42};
    in.offload.writes = {7, 0xabcdef};

    std::vector<uint8_t> bytes;
    encode_request(bytes, in);

    FrameReader reader;
    reader.append(bytes.data(), bytes.size());
    auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->type, MsgType::kRequestV2);

    auto out = decode_request(frame->type, frame->payload, frame->size);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->request_id, in.request_id);
    EXPECT_EQ(out->deadline_ns, in.deadline_ns);
    EXPECT_EQ(out->trace_id, in.trace_id);
    EXPECT_EQ(out->parent_span_id, in.parent_span_id);
    EXPECT_EQ(out->offload.snapshot_cid, in.offload.snapshot_cid);
    EXPECT_EQ(out->offload.reads, in.offload.reads);
    EXPECT_EQ(out->offload.writes, in.offload.writes);
}

TEST(Wire, RequestRoundTripBoundarySizes)
{
    // Empty, single, and large address sets — including the asymmetric
    // corners a packed layout gets wrong first.
    const std::vector<std::pair<size_t, size_t>> shapes = {
        {0, 0}, {1, 0}, {0, 1}, {1, 1}, {4096, 1}, {1, 4096}, {511, 513}};
    for (const auto& [n_reads, n_writes] : shapes) {
        WireRequest in;
        in.request_id = n_reads * 7919 + n_writes;
        for (size_t i = 0; i < n_reads; ++i) in.offload.reads.push_back(i * 3);
        for (size_t i = 0; i < n_writes; ++i) {
            in.offload.writes.push_back(~uint64_t{i});
        }
        std::vector<uint8_t> bytes;
        encode_request(bytes, in);
        FrameReader reader;
        reader.append(bytes.data(), bytes.size());
        auto frame = reader.next();
        ASSERT_TRUE(frame.has_value());
        auto out = decode_request(frame->type, frame->payload, frame->size);
        ASSERT_TRUE(out.has_value()) << n_reads << "/" << n_writes;
        EXPECT_EQ(out->offload.reads, in.offload.reads);
        EXPECT_EQ(out->offload.writes, in.offload.writes);
    }
}

TEST(Wire, ResponseRoundTripAllVerdictsAndReasons)
{
    const core::Verdict verdicts[] = {
        core::Verdict::kCommit, core::Verdict::kAbortCycle,
        core::Verdict::kWindowOverflow, core::Verdict::kTimeout,
        core::Verdict::kRejected};
    for (core::Verdict verdict : verdicts) {
        for (size_t r = 0; r < obs::kAbortReasonCount; ++r) {
            WireResponse in;
            in.request_id = 99;
            in.result = {verdict, 0x123456789abcULL,
                         static_cast<obs::AbortReason>(r)};
            in.result.conflict_cid = 0xfeedULL;
            in.stages = {11, 22, 33, 44};
            std::vector<uint8_t> bytes;
            encode_response(bytes, in);
            FrameReader reader;
            reader.append(bytes.data(), bytes.size());
            auto frame = reader.next();
            ASSERT_TRUE(frame.has_value());
            EXPECT_EQ(frame->type, MsgType::kResponseV2);
            auto out = decode_response(frame->type, frame->payload,
                                       frame->size);
            ASSERT_TRUE(out.has_value());
            EXPECT_EQ(out->request_id, in.request_id);
            EXPECT_EQ(out->result.verdict, in.result.verdict);
            EXPECT_EQ(out->result.reason, in.result.reason);
            EXPECT_EQ(out->result.cid, in.result.cid);
            EXPECT_EQ(out->stages.server_queue_ns, 11u);
            EXPECT_EQ(out->stages.batch_wait_ns, 22u);
            EXPECT_EQ(out->stages.engine_ns, 33u);
            EXPECT_EQ(out->stages.link_ns, 44u);
            // The abort provenance travels verbatim.
            EXPECT_EQ(out->result.conflict_cid, 0xfeedULL);
        }
    }
}

TEST(Wire, DecodeRejectsMalformedPayloads)
{
    // Too short for the fixed request header.
    uint8_t small[8] = {};
    EXPECT_FALSE(decode_request(MsgType::kRequestV2, small, sizeof(small))
                     .has_value());

    // Counts disagreeing with the payload length.
    WireRequest request;
    request.offload.reads = {1, 2, 3};
    std::vector<uint8_t> bytes;
    encode_request(bytes, request);
    const uint8_t* payload = bytes.data() + kFrameHeaderBytes;
    const size_t size = bytes.size() - kFrameHeaderBytes;
    EXPECT_TRUE(
        decode_request(MsgType::kRequestV2, payload, size).has_value());
    EXPECT_FALSE(
        decode_request(MsgType::kRequestV2, payload, size - 8).has_value());

    // Oversized counts must be rejected before any allocation. The
    // counts sit after the fixed v2 fields (40 bytes).
    std::vector<uint8_t> bomb(bytes.begin() + kFrameHeaderBytes,
                              bytes.end());
    const uint32_t huge = kMaxAddresses + 1;
    std::memcpy(bomb.data() + 40, &huge, 4);
    EXPECT_FALSE(decode_request(MsgType::kRequestV2, bomb.data(),
                                bomb.size())
                     .has_value());

    // Responses with enum values off the end of Verdict / AbortReason.
    WireResponse response;
    response.result = {core::Verdict::kCommit, 1, obs::AbortReason::kNone};
    std::vector<uint8_t> rbytes;
    encode_response(rbytes, response);
    std::vector<uint8_t> rpayload(rbytes.begin() + kFrameHeaderBytes,
                                  rbytes.end());
    EXPECT_TRUE(decode_response(MsgType::kResponseV2, rpayload.data(),
                                rpayload.size())
                    .has_value());
    rpayload[8] = 200; // verdict
    EXPECT_FALSE(decode_response(MsgType::kResponseV2, rpayload.data(),
                                 rpayload.size())
                     .has_value());
    rpayload[8] = 0;
    rpayload[9] = 200; // reason
    EXPECT_FALSE(decode_response(MsgType::kResponseV2, rpayload.data(),
                                 rpayload.size())
                     .has_value());
    EXPECT_FALSE(decode_response(MsgType::kResponseV2, rpayload.data(),
                                 rpayload.size() - 1)
                     .has_value());
}

TEST(Wire, FrameReaderReassemblesByteAtATime)
{
    WireRequest request;
    request.request_id = 7;
    request.offload.reads = {10, 20, 30};
    request.offload.writes = {40};
    std::vector<uint8_t> bytes;
    encode_request(bytes, request);

    FrameReader reader;
    for (size_t i = 0; i < bytes.size(); ++i) {
        EXPECT_FALSE(reader.next().has_value());
        reader.append(&bytes[i], 1);
    }
    auto frame = reader.next();
    ASSERT_TRUE(frame.has_value());
    auto out = decode_request(frame->type, frame->payload, frame->size);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->offload.reads, request.offload.reads);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Wire, FrameReaderExtractsBackToBackFrames)
{
    std::vector<uint8_t> bytes;
    for (uint64_t id = 0; id < 5; ++id) {
        WireRequest request;
        request.request_id = id;
        encode_request(bytes, request);
    }
    FrameReader reader;
    reader.append(bytes.data(), bytes.size());
    for (uint64_t id = 0; id < 5; ++id) {
        auto frame = reader.next();
        ASSERT_TRUE(frame.has_value());
        auto out = decode_request(frame->type, frame->payload, frame->size);
        ASSERT_TRUE(out.has_value());
        EXPECT_EQ(out->request_id, id);
    }
    EXPECT_FALSE(reader.next().has_value());
}

TEST(Wire, FrameReaderFlagsCorruptStreams)
{
    // Unknown frame type.
    uint8_t bad_type[kFrameHeaderBytes] = {0, 0, 0, 0, 99};
    FrameReader reader;
    reader.append(bad_type, sizeof(bad_type));
    bool malformed = false;
    EXPECT_FALSE(reader.next(&malformed).has_value());
    EXPECT_TRUE(malformed);

    // Length claiming more than any well-formed frame can carry.
    FrameReader reader2;
    uint8_t bad_len[kFrameHeaderBytes] = {0xff, 0xff, 0xff, 0xff, 1};
    reader2.append(bad_len, sizeof(bad_len));
    malformed = false;
    EXPECT_FALSE(reader2.next(&malformed).has_value());
    EXPECT_TRUE(malformed);
}

// ---------------------------------------------------------------------
// Server + client

TEST(SvcServer, StartStopIsIdempotentAndRebindable)
{
    ServerConfig config;
    config.socket_path = test_socket_path("startstop");
    {
        Server server(config);
        ASSERT_TRUE(server.start());
        EXPECT_TRUE(server.start()); // already running
        server.stop();
        server.stop();
        ASSERT_TRUE(server.start()); // rebind after stop
    }
    // Destructor stopped it; path must be gone.
    Server again(config);
    ASSERT_TRUE(again.start());
    again.stop();
}

TEST(SvcServer, RefusesUnbindablePath)
{
    ServerConfig config;
    config.socket_path = "/nonexistent-dir/x.sock";
    Server server(config);
    EXPECT_FALSE(server.start());
}

TEST(SvcClient, RejectsWhenServerAbsent)
{
    ClientConfig config;
    config.socket_path = test_socket_path("absent");
    ValidationClient client(config);
    EXPECT_FALSE(client.connected());
    auto result = client.validate({{1}, {2}, 0});
    EXPECT_EQ(result.verdict, core::Verdict::kRejected);
    EXPECT_EQ(result.reason, obs::AbortReason::kBackpressure);
    EXPECT_EQ(client.stats().get("rejected"), 1u);
}

TEST(SvcClient, CommitsThroughServer)
{
    ServerConfig config;
    config.socket_path = test_socket_path("commit");
    Server server(config);
    ASSERT_TRUE(server.start());

    ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    ValidationClient client(client_config);
    ASSERT_TRUE(client.connected());

    // Disjoint writes, current snapshots: everything commits, and cids
    // come from the single server-owned window, in order.
    for (uint64_t i = 0; i < 16; ++i) {
        auto result =
            client.validate({{}, {100 + i}, /*snapshot_cid=*/i});
        ASSERT_EQ(result.verdict, core::Verdict::kCommit);
        EXPECT_EQ(result.cid, i);
        EXPECT_EQ(result.reason, obs::AbortReason::kNone);
    }
    EXPECT_EQ(client.stats().get("commit"), 16u);
    client.stop();
    server.stop();
    EXPECT_EQ(server.stats().get("svc.verdict.commit"), 16u);
    EXPECT_EQ(server.stats().get("svc.requests"), 16u);
}

/// Abort provenance end-to-end: an engine-side cycle abort names the
/// committed cid it collided with, the v2 wire field carries it to the
/// client, and the client both surfaces it on the result and counts
/// the attribution in its own registry.
TEST(SvcClient, ReceivesConflictProvenanceOverTheWire)
{
    ServerConfig config;
    config.socket_path = test_socket_path("provenance");
    Server server(config);
    ASSERT_TRUE(server.start());

    ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    ValidationClient client(client_config);
    ASSERT_TRUE(client.connected());

    // A writer of address 1 commits as cid 0; a stale reader+writer of
    // the same address must abort *because of cid 0*, by name.
    auto writer = client.validate({{}, {1}, /*snapshot_cid=*/0});
    ASSERT_EQ(writer.verdict, core::Verdict::kCommit);
    ASSERT_EQ(writer.cid, 0u);
    EXPECT_EQ(writer.conflict_cid, core::kNoConflictCid);

    auto victim = client.validate({{1}, {1}, /*snapshot_cid=*/0});
    ASSERT_EQ(victim.verdict, core::Verdict::kAbortCycle);
    EXPECT_EQ(victim.conflict_cid, 0u)
        << "abort did not name the committed cid it collided with";

    obs::Registry exported;
    client.export_metrics(exported);
    EXPECT_EQ(
        exported.counter("svc.client.conflict.attributed").value(), 1u);

    client.stop();
    server.stop();
    EXPECT_EQ(server.stats().get("svc.verdict.abort-cycle"), 1u);
}

/// kSnapshot is answered inline from the service thread — never
/// queued, never an engine pass — and its "topk" section carries the
/// per-shard hot-key table that the abort below fed. A kSnapshot frame
/// with a payload is malformed.
TEST(SvcServer, AnswersTopKInline)
{
    ServerConfig config;
    config.socket_path = test_socket_path("topk");
    Server server(config);
    ASSERT_TRUE(server.start());

    // Plant one conflict on address 1 so the sketch has an entry.
    ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    ValidationClient client(client_config);
    ASSERT_TRUE(client.connected());
    ASSERT_EQ(client.validate({{}, {1}, 0}).verdict,
              core::Verdict::kCommit);
    ASSERT_EQ(client.validate({{1}, {1}, 0}).verdict,
              core::Verdict::kAbortCycle);
    client.stop();

    const int fd = connect_raw(config.socket_path);
    ASSERT_GE(fd, 0);
    const auto json = request_snapshot(fd);
    ASSERT_TRUE(json.has_value()) << "no kSnapshotReply frame";
    const size_t topk = json->find("\n\"topk\": {\"shards\"");
    ASSERT_NE(topk, std::string::npos) << *json;
#ifndef ROCOCO_FORENSICS_OFF
    EXPECT_NE(json->find("\"key\": 1", topk), std::string::npos) << *json;
#endif
    close(fd);

    expect_payload_disconnects(config.socket_path, MsgType::kSnapshot);

    server.stop();
    EXPECT_EQ(server.stats().get("svc.snapshot"), 1u);
    EXPECT_EQ(server.stats().get("svc.malformed"), 1u);
    // Introspection sits outside the request ledger.
    EXPECT_EQ(server.stats().get("svc.requests"), 2u);
}

/// kDump without a recorder fails softly with a JSON error; with the
/// recorder enabled it writes an incident file and replies with its
/// path. An armed recorder brings the monitor along even when
/// monitor.enabled is off, so the incident carries the sampler rings.
TEST(SvcServer, DumpAnswersInlineAndWritesIncidents)
{
    // Disabled recorder: {"ok": false}, connection stays usable.
    {
        ServerConfig config;
        config.socket_path = test_socket_path("dumpoff");
        Server server(config);
        ASSERT_TRUE(server.start());
        const int fd = connect_raw(config.socket_path);
        ASSERT_GE(fd, 0);
        std::vector<uint8_t> frame;
        encode_control(frame, MsgType::kDump);
        ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(frame.size()));
        auto payload = read_frame_of_type(fd, MsgType::kDumpReply);
        ASSERT_TRUE(payload.has_value()) << "no kDumpReply frame";
        const std::string json(payload->begin(), payload->end());
        EXPECT_NE(json.find("\"ok\": false"), std::string::npos) << json;
        EXPECT_NE(json.find("recorder disabled"), std::string::npos)
            << json;
        close(fd);
        server.stop();
        EXPECT_EQ(server.stats().get("svc.dump"), 1u);
    }
    // Enabled recorder: {"ok": true, "path": ...} and the file exists.
    {
        const std::string prefix = "/tmp/rococo_svc_test_dump_" +
                                   std::to_string(getpid());
        ServerConfig config;
        config.socket_path = test_socket_path("dumpon");
        config.recorder.enabled = true;
        config.recorder.output_prefix = prefix;
        config.monitor.enabled = false;
        Server server(config);
        ASSERT_TRUE(server.start());
        const int fd = connect_raw(config.socket_path);
        ASSERT_GE(fd, 0);
        std::vector<uint8_t> frame;
        encode_control(frame, MsgType::kDump);
        ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(frame.size()));
        auto payload = read_frame_of_type(fd, MsgType::kDumpReply);
        ASSERT_TRUE(payload.has_value()) << "no kDumpReply frame";
        const std::string json(payload->begin(), payload->end());
        EXPECT_NE(json.find("\"ok\": true"), std::string::npos) << json;
        const std::string expect_path = prefix + "-1.json";
        EXPECT_NE(json.find(expect_path), std::string::npos) << json;
        std::ifstream in(expect_path);
        ASSERT_TRUE(in.good()) << "incident file missing: " << expect_path;
        std::stringstream incident;
        incident << in.rdbuf();
        EXPECT_NE(incident.str().find("\"enabled\": true"),
                  std::string::npos);
        EXPECT_NE(incident.str().find("\"svc.abort_rate\""),
                  std::string::npos);
        close(fd);
        server.stop();
        unlink(expect_path.c_str());
    }
}

TEST(SvcServer, ShedsLoadWhenQueueFull)
{
    ServerConfig config;
    config.socket_path = test_socket_path("backpressure");
    config.max_pending = 0; // every request overflows the bounded queue
    Server server(config);
    ASSERT_TRUE(server.start());

    ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    ValidationClient client(client_config);
    for (int i = 0; i < 8; ++i) {
        auto result = client.validate({{}, {1}, 0});
        EXPECT_EQ(result.verdict, core::Verdict::kRejected);
        EXPECT_EQ(result.reason, obs::AbortReason::kBackpressure);
    }
    client.stop();
    server.stop();
    EXPECT_EQ(server.stats().get("svc.rejected"), 8u);
    EXPECT_EQ(server.stats().get("svc.requests"), 8u);
}

/// Speak the wire protocol raw (no client library) and let a 1 ns
/// relative deadline expire while the request waits: the server must
/// answer kTimeout without an engine pass. Also pins the interop
/// contract: anything that encodes the documented layout is a valid
/// client.
TEST(SvcServer, ExpiresQueuedRequestsPastTheirDeadline)
{
    ServerConfig config;
    config.socket_path = test_socket_path("deadline");
    Server server(config);
    ASSERT_TRUE(server.start());

    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);

    WireRequest request;
    request.request_id = 31337;
    request.deadline_ns = 1; // expires before any engine pass can start
    request.offload.writes = {1};
    std::vector<uint8_t> bytes;
    encode_request(bytes, request);
    ASSERT_EQ(send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));

    FrameReader reader;
    std::optional<WireResponse> response;
    uint8_t buf[512];
    while (!response) {
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0);
        reader.append(buf, static_cast<size_t>(n));
        if (auto frame = reader.next()) {
            ASSERT_EQ(frame->type, MsgType::kResponseV2);
            response =
                decode_response(frame->type, frame->payload, frame->size);
        }
    }
    EXPECT_EQ(response->request_id, request.request_id);
    EXPECT_EQ(response->result.verdict, core::Verdict::kTimeout);
    EXPECT_EQ(response->result.reason, obs::AbortReason::kTimeout);
    close(fd);
    server.stop();
    EXPECT_EQ(server.stats().get("svc.timeout"), 1u);
}

TEST(SvcServer, DropsMalformedConnections)
{
    ServerConfig config;
    config.socket_path = test_socket_path("malformed");
    Server server(config);
    ASSERT_TRUE(server.start());

    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);

    const uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef, 0xff, 0xff};
    ASSERT_EQ(send(fd, garbage, sizeof(garbage), 0),
              static_cast<ssize_t>(sizeof(garbage)));

    // The server closes the connection; recv sees EOF.
    uint8_t buf[16];
    EXPECT_EQ(recv(fd, buf, sizeof(buf), 0), 0);
    close(fd);
    server.stop();
    EXPECT_EQ(server.stats().get("svc.malformed"), 1u);
}

/// The retired v1 frames (type bytes 1 and 2) take the unknown-type
/// path: the connection that sent one is closed with svc.malformed
/// accounted, while the server keeps serving every other connection
/// and the request ledger stays balanced.
TEST(SvcServer, ClosesConnectionOnV1Frame)
{
    ServerConfig config;
    config.socket_path = test_socket_path("v1closed");
    Server server(config);
    ASSERT_TRUE(server.start());

    const int bystander = connect_raw(config.socket_path);
    ASSERT_GE(bystander, 0);
    for (const uint8_t type : {uint8_t{1}, uint8_t{2}}) {
        const int fd = connect_raw(config.socket_path);
        ASSERT_GE(fd, 0);
        // A well-formed v1 request body (ids, deadline, one write):
        // only the type byte makes it unacceptable.
        std::vector<uint8_t> bytes = {40, 0, 0, 0, type};
        bytes.resize(kFrameHeaderBytes + 40, 0);
        bytes[kFrameHeaderBytes + 28] = 1; // n_writes
        ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
        uint8_t buf[16];
        EXPECT_EQ(recv(fd, buf, sizeof(buf), 0), 0)
            << "type " << int(type) << " frame did not close";
        close(fd);
    }

    // The connection opened before the v1 frames is still served.
    WireRequest request;
    request.request_id = 42;
    request.offload.writes = {7};
    std::vector<uint8_t> bytes;
    encode_request(bytes, request);
    ASSERT_EQ(send(bystander, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
    auto payload = read_frame_of_type(bystander, MsgType::kResponseV2);
    ASSERT_TRUE(payload.has_value()) << "bystander got no response";
    auto response = decode_response(MsgType::kResponseV2, payload->data(),
                                    payload->size());
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->request_id, request.request_id);
    EXPECT_EQ(response->result.verdict, core::Verdict::kCommit);
    close(bystander);

    server.stop();
    const CounterBag stats = server.stats();
    EXPECT_EQ(stats.get("svc.malformed"), 2u);
    EXPECT_EQ(stats.get("svc.requests"), 1u);
    uint64_t answered = stats.get("svc.timeout") + stats.get("svc.rejected");
    for (size_t v = 0; v < core::kVerdictCount; ++v) {
        answered += stats.get(std::string("svc.verdict.") +
                              core::to_string(static_cast<core::Verdict>(v)));
    }
    EXPECT_EQ(answered, stats.get("svc.requests"));
}

/// An op the server does not serve (here: a response type and an
/// entirely unknown tag) must disconnect the peer with svc.malformed
/// accounted — the versioning escape hatch never silently drops frames.
TEST(SvcServer, DisconnectsUnknownOps)
{
    ServerConfig config;
    config.socket_path = test_socket_path("unknownop");
    Server server(config);
    ASSERT_TRUE(server.start());

    // A frame type outside the protocol entirely (9, one past
    // kDumpReply): flagged by the frame reader itself.
    {
        const int fd = connect_raw(config.socket_path);
        ASSERT_GE(fd, 0);
        const uint8_t unknown[kFrameHeaderBytes] = {0, 0, 0, 0, 9};
        ASSERT_EQ(send(fd, unknown, sizeof(unknown), MSG_NOSIGNAL),
                  static_cast<ssize_t>(sizeof(unknown)));
        uint8_t buf[16];
        EXPECT_EQ(recv(fd, buf, sizeof(buf), 0), 0) << "not disconnected";
        close(fd);
    }
    // A known frame type the server does not accept (a client-bound
    // kResponseV2): well-framed, still not a request.
    {
        const int fd = connect_raw(config.socket_path);
        ASSERT_GE(fd, 0);
        std::vector<uint8_t> bytes;
        WireResponse response;
        response.request_id = 1;
        response.result = {core::Verdict::kCommit, 0, obs::AbortReason::kNone};
        encode_response(bytes, response);
        ASSERT_EQ(send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
        uint8_t buf[16];
        EXPECT_EQ(recv(fd, buf, sizeof(buf), 0), 0) << "not disconnected";
        close(fd);
    }
    server.stop();
    EXPECT_EQ(server.stats().get("svc.malformed"), 2u);
    EXPECT_EQ(server.stats().get("svc.requests"), 0u);
}

/// A client that disconnects with requests still queued must never see
/// its verdicts delivered to a *different* client that accept() handed
/// the recycled fd number: every queued request is answered against
/// (fd, generation), not the raw fd.
TEST(SvcServer, DoesNotDeliverStaleVerdictsToRecycledFd)
{
    ServerConfig config;
    config.socket_path = test_socket_path("fdreuse");
    config.max_batch = 1;      // drain the backlog one verdict per pass
    config.max_pending = 8192; // keep the backlog queued, not rejected
    Server server(config);
    ASSERT_TRUE(server.start());

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    const auto wait_for = [](auto&& pred) {
        for (int i = 0; i < 20000; ++i) {
            if (pred()) return true;
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        return false;
    };

    // Allocate B's socket first so closing A frees the lowest fd
    // numbers in the process — the ones accept() will hand to B.
    const int fd_b = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd_b, 0);
    const int fd_a = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd_a, 0);
    ASSERT_EQ(connect(fd_a, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
              0);

    // Heavy requests (512 reads each) so the one-per-pass drain takes
    // milliseconds — long enough that the backlog is still queued when
    // the second client is accepted below.
    constexpr uint64_t kBacklog = 4096;
    {
        std::vector<uint8_t> bytes;
        for (uint64_t id = 1; id <= kBacklog; ++id) {
            WireRequest request;
            request.request_id = id;
            for (uint64_t r = 0; r < 512; ++r) {
                request.offload.reads.push_back(r);
            }
            request.offload.writes = {id};
            encode_request(bytes, request);
        }
        ASSERT_EQ(send(fd_a, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }
    // Wait until the whole backlog is decoded and queued, then
    // half-close: the server sees EOF and frees its side of A while the
    // backlog is still draining one request per pass. SHUT_WR (not
    // close) keeps the test-side fd number occupied so the number the
    // kernel recycles for B is the server-side one in the queue.
    ASSERT_TRUE(wait_for(
        [&] { return server.stats().get("svc.requests") >= kBacklog; }));
    ASSERT_EQ(shutdown(fd_a, SHUT_WR), 0);
    ASSERT_TRUE(wait_for(
        [&] { return server.stats().get("svc.disconnects") >= 1; }));

    ASSERT_EQ(connect(fd_b, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
              0);
    WireRequest probe;
    probe.request_id = 0x5ca1ab1eULL; // outside A's id range
    probe.offload.writes = {99999};
    std::vector<uint8_t> bytes;
    encode_request(bytes, probe);
    ASSERT_EQ(send(fd_b, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));

    // B must receive exactly one response — its own. Any other id is a
    // stale verdict from A's backlog leaking through the recycled fd.
    timeval timeout{5, 0};
    setsockopt(fd_b, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    FrameReader reader;
    uint8_t buf[4096];
    std::optional<WireResponse> response;
    while (!response) {
        const ssize_t n = recv(fd_b, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0);
        reader.append(buf, static_cast<size_t>(n));
        while (auto frame = reader.next()) {
            auto decoded =
                decode_response(frame->type, frame->payload, frame->size);
            ASSERT_TRUE(decoded.has_value());
            ASSERT_EQ(decoded->request_id, probe.request_id)
                << "stale verdict delivered to a recycled fd";
            response = decoded;
        }
    }
    close(fd_a);
    close(fd_b);
    server.stop();

    // The dropped backlog is still accounted: answered exactly once.
    const CounterBag stats = server.stats();
    const uint64_t accounted = stats.get("svc.verdict.commit") +
                               stats.get("svc.verdict.abort-cycle") +
                               stats.get("svc.verdict.window-overflow") +
                               stats.get("svc.timeout") +
                               stats.get("svc.rejected");
    EXPECT_EQ(stats.get("svc.requests"), kBacklog + 1);
    EXPECT_EQ(accounted, stats.get("svc.requests"));
}

/// A client that floods requests but never reads a response must be
/// disconnected once its outbound buffer hits max_out_bytes — the
/// server never buffers unread responses without bound.
TEST(SvcServer, ClosesConnectionsThatStopReadingResponses)
{
    ServerConfig config;
    config.socket_path = test_socket_path("outcap");
    config.max_pending = 16;     // most of the flood draws instant rejects
    config.max_out_bytes = 4096; // small cap so the test fills it quickly
    Server server(config);
    ASSERT_TRUE(server.start());

    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, config.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);

    // 64 tiny requests per send; the kernel's socket buffer absorbs the
    // first responses, after which the server-side buffer grows past
    // the cap and the connection is dropped mid-flood.
    std::vector<uint8_t> burst;
    for (int i = 0; i < 64; ++i) {
        WireRequest request;
        request.request_id = static_cast<uint64_t>(i);
        request.offload.writes = {1};
        encode_request(burst, request);
    }
    bool closed = false;
    for (int i = 0; i < 20000 && !closed; ++i) {
        if (send(fd, burst.data(), burst.size(), MSG_NOSIGNAL) < 0) {
            closed = true;
        }
    }
    EXPECT_TRUE(closed) << "server kept buffering for a non-reading peer";
    close(fd);
    server.stop();

    const CounterBag stats = server.stats();
    EXPECT_GE(stats.get("svc.overflow"), 1u);
    // Accounting survives the disconnect: every counted request was
    // answered (delivery of the dropped bytes is not part of the
    // invariant).
    const uint64_t accounted = stats.get("svc.verdict.commit") +
                               stats.get("svc.verdict.abort-cycle") +
                               stats.get("svc.verdict.window-overflow") +
                               stats.get("svc.timeout") +
                               stats.get("svc.rejected");
    EXPECT_EQ(accounted, stats.get("svc.requests"));
}

/// An address set beyond kMaxAddresses must be rejected client-side: on
/// the wire the server would drop it as malformed and close the
/// connection, poisoning every outstanding request.
TEST(SvcClient, RejectsOversizedRequestsWithoutPoisoningConnection)
{
    ServerConfig config;
    config.socket_path = test_socket_path("oversized");
    Server server(config);
    ASSERT_TRUE(server.start());

    ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    ValidationClient client(client_config);
    ASSERT_TRUE(client.connected());

    fpga::OffloadRequest big;
    big.reads.assign(size_t{kMaxAddresses} + 1, 1);
    auto result = client.validate(std::move(big));
    EXPECT_EQ(result.verdict, core::Verdict::kRejected);
    EXPECT_EQ(result.reason, obs::AbortReason::kBackpressure);
    EXPECT_EQ(client.stats().get("oversized"), 1u);

    // The connection is still healthy: a normal request commits.
    EXPECT_TRUE(client.connected());
    auto ok = client.validate({{}, {5}, 0});
    EXPECT_EQ(ok.verdict, core::Verdict::kCommit);

    client.stop();
    server.stop();
    // The oversized request never reached the server.
    EXPECT_EQ(server.stats().get("svc.requests"), 1u);
    EXPECT_EQ(server.stats().get("svc.malformed"), 0u);
}

/// A server that accepts but never answers: validate(timeout) must
/// resolve locally with a typed timeout, not hang.
TEST(SvcClient, TimesOutLocallyAgainstSilentServer)
{
    const std::string path = test_socket_path("silent");
    const int listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listen_fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    unlink(path.c_str());
    ASSERT_EQ(bind(listen_fd, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
              0);
    ASSERT_EQ(listen(listen_fd, 1), 0);

    ClientConfig config;
    config.socket_path = path;
    ValidationClient client(config);
    ASSERT_TRUE(client.connected());
    const int conn = accept(listen_fd, nullptr, nullptr);
    ASSERT_GE(conn, 0);

    auto result =
        client.validate({{}, {1}, 0}, std::chrono::milliseconds(20));
    EXPECT_EQ(result.verdict, core::Verdict::kTimeout);
    EXPECT_EQ(result.reason, obs::AbortReason::kTimeout);
    EXPECT_EQ(client.stats().get("timeout"), 1u);

    client.stop();
    close(conn);
    close(listen_fd);
    unlink(path.c_str());
}

/// A hand-driven server end: accepts one client and lets the test read
/// its requests and answer them when it chooses, so a verdict can be
/// held back past the client's spin budget.
class ScriptedServer
{
  public:
    explicit ScriptedServer(const char* tag)
        : path_(test_socket_path(tag))
    {
        listen_fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path_.c_str(),
                     sizeof(addr.sun_path) - 1);
        unlink(path_.c_str());
        bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
        listen(listen_fd_, 1);
    }

    ~ScriptedServer()
    {
        if (conn_ >= 0) close(conn_);
        close(listen_fd_);
        unlink(path_.c_str());
    }

    ScriptedServer(const ScriptedServer&) = delete;
    ScriptedServer& operator=(const ScriptedServer&) = delete;

    const std::string& path() const { return path_; }

    /// Accept the client's connection (call after constructing it).
    bool
    accept_client()
    {
        conn_ = accept(listen_fd_, nullptr, nullptr);
        return conn_ >= 0;
    }

    /// Block until @p n more requests have arrived; returns their ids.
    std::vector<uint64_t>
    read_requests(size_t n)
    {
        std::vector<uint64_t> ids;
        uint8_t buf[64 * 1024];
        while (ids.size() < n) {
            while (auto frame = reader_.next()) {
                auto request = decode_request(frame->type, frame->payload,
                                              frame->size);
                if (request) ids.push_back(request->request_id);
            }
            if (ids.size() >= n) break;
            const ssize_t got = recv(conn_, buf, sizeof(buf), 0);
            if (got <= 0) break;
            reader_.append(buf, static_cast<size_t>(got));
        }
        return ids;
    }

    /// Answer every request in @p ids with a commit verdict.
    void
    commit_all(const std::vector<uint64_t>& ids)
    {
        std::vector<uint8_t> bytes;
        for (size_t i = 0; i < ids.size(); ++i) {
            WireResponse response;
            response.request_id = ids[i];
            response.result = {core::Verdict::kCommit, i + 1,
                               obs::AbortReason::kNone};
            encode_response(bytes, response);
        }
        ASSERT_EQ(send(conn_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(bytes.size()));
    }

  private:
    std::string path_;
    int listen_fd_ = -1;
    int conn_ = -1;
    FrameReader reader_;
};

TEST(SvcClient, VerdictPastTheSpinBudgetArrivesThroughPark)
{
    ScriptedServer server("park");
    ClientConfig config;
    config.socket_path = server.path();
    ValidationClient client(config);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(server.accept_client());

    constexpr int kWaiters = 4;
    std::vector<core::ValidationResult> results(kWaiters);
    std::vector<std::thread> waiters;
    for (int t = 0; t < kWaiters; ++t) {
        waiters.emplace_back([&, t] {
            results[t] = client.validate({{}, {uint64_t(t)}, 0});
        });
    }
    const auto ids = server.read_requests(kWaiters);
    ASSERT_EQ(ids.size(), size_t{kWaiters});
    // Hold the verdicts well past the spin budget: every waiter parks.
    std::this_thread::sleep_for(100 * kSpinBudget);
    server.commit_all(ids);
    for (auto& waiter : waiters) waiter.join();
    for (const auto& r : results) {
        EXPECT_EQ(r.verdict, core::Verdict::kCommit);
    }
    const CounterBag bag = client.stats();
    EXPECT_EQ(bag.get("submitted"), uint64_t{kWaiters});
    EXPECT_EQ(bag.get("commit"), bag.get("submitted"));
    client.stop();
}

TEST(SvcClient, StopResolvesSpinningWaitersWithRejection)
{
    ScriptedServer server("spinstop");
    ClientConfig config;
    config.socket_path = server.path();
    ValidationClient client(config);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(server.accept_client());

    constexpr int kWaiters = 4;
    std::vector<core::ValidationResult> results(kWaiters);
    std::vector<std::thread> waiters;
    for (int t = 0; t < kWaiters; ++t) {
        waiters.emplace_back([&, t] {
            results[t] = client.validate({{}, {uint64_t(t)}, 0});
        });
    }
    // Every request is on the wire and unanswered: stop while the
    // waiters spin (or have just parked).
    ASSERT_EQ(server.read_requests(kWaiters).size(), size_t{kWaiters});
    client.stop();
    for (auto& waiter : waiters) waiter.join(); // none hangs
    for (const auto& r : results) {
        EXPECT_EQ(r.verdict, core::Verdict::kRejected);
        EXPECT_EQ(r.reason, obs::AbortReason::kBackpressure);
    }
    EXPECT_EQ(client.stats().get("rejected"), uint64_t{kWaiters});
}

TEST(SvcClient, DeadlineShorterThanTheSpinBudgetIsHonoured)
{
    // A silent server: validate(req, d) must give up about d after the
    // call, not after the spin budget. The minimum over a few calls
    // filters out scheduler preemption.
    ScriptedServer server("spindeadline");
    ClientConfig config;
    config.socket_path = server.path();
    ValidationClient client(config);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(server.accept_client());

    constexpr auto kDeadline = kSpinBudget / 10;
    auto fastest = std::chrono::steady_clock::duration::max();
    constexpr int kCalls = 5;
    for (int i = 0; i < kCalls; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const auto r = client.validate({{}, {uint64_t(i)}, 0}, kDeadline);
        fastest = std::min(fastest, std::chrono::steady_clock::now() - start);
        EXPECT_EQ(r.verdict, core::Verdict::kTimeout);
        EXPECT_EQ(r.reason, obs::AbortReason::kTimeout);
    }
    EXPECT_GE(fastest, kDeadline);
    // Without a spin (one CPU) the wait is a timed futex sleep, whose
    // timer slack alone can exceed the budget.
    if (spin_allowed()) {
        EXPECT_LT(fastest, kSpinBudget);
    }
    EXPECT_EQ(client.stats().get("timeout"), uint64_t{kCalls});
    client.stop();
}

TEST(SvcClient, ServerShutdownResolvesOutstandingFutures)
{
    ServerConfig config;
    config.socket_path = test_socket_path("shutdown");
    Server server(config);
    ASSERT_TRUE(server.start());

    ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    ValidationClient client(client_config);
    ASSERT_TRUE(client.connected());

    std::vector<std::future<core::ValidationResult>> futures;
    for (uint64_t i = 0; i < 64; ++i) {
        futures.push_back(client.submit({{}, {i}, i}));
    }
    server.stop();
    // Every future resolves — with a real verdict (answered before the
    // shutdown) or a typed rejection (resolved at disconnect) — and
    // none throws broken_promise.
    for (auto& future : futures) {
        auto result = future.get();
        if (result.verdict != core::Verdict::kCommit) {
            EXPECT_EQ(result.verdict, core::Verdict::kRejected);
            EXPECT_EQ(result.reason, obs::AbortReason::kBackpressure);
        }
    }
    client.stop();
}

// ---------------------------------------------------------------------
// End-to-end smoke: concurrent clients, accounting sums

TEST(SvcSmoke, ConcurrentClientsAccountingSums)
{
    ServerConfig config;
    config.socket_path = test_socket_path("smoke");
    config.max_batch = 8;
    config.max_pending = 64;
    Server server(config);
    ASSERT_TRUE(server.start());

    constexpr int kClients = 4;
    constexpr uint64_t kPerClient = 400;
    std::atomic<uint64_t> answered{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            ClientConfig client_config;
            client_config.socket_path = config.socket_path;
            ValidationClient client(client_config);
            ASSERT_TRUE(client.connected());
            Xoshiro256 rng(7 + c);
            std::vector<std::future<core::ValidationResult>> inflight;
            for (uint64_t i = 0; i < kPerClient; ++i) {
                fpga::OffloadRequest request;
                // Overlapping footprints + stale snapshots: all three
                // engine verdicts occur.
                for (int r = 0; r < 4; ++r) {
                    request.reads.push_back(rng.below(64));
                }
                request.writes.push_back(rng.below(64));
                request.snapshot_cid = rng.below(2) == 0
                                           ? uint64_t{0}
                                           : kPerClient * kClients;
                inflight.push_back(client.submit(std::move(request)));
                if (inflight.size() >= 16) {
                    for (auto& f : inflight) {
                        f.get();
                        answered.fetch_add(1);
                    }
                    inflight.clear();
                }
            }
            for (auto& f : inflight) {
                f.get();
                answered.fetch_add(1);
            }
            // Per-client accounting: every submission is accounted as a
            // verdict, a timeout or a rejection.
            const CounterBag stats = client.stats();
            const uint64_t verdicts =
                stats.get("commit") + stats.get("abort-cycle") +
                stats.get("window-overflow") + stats.get("timeout") +
                stats.get("rejected");
            EXPECT_EQ(verdicts, kPerClient);
            client.stop();
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(answered.load(), kClients * kPerClient);

    server.stop();
    const CounterBag stats = server.stats();
    const uint64_t requests = stats.get("svc.requests");
    const uint64_t accounted = stats.get("svc.verdict.commit") +
                               stats.get("svc.verdict.abort-cycle") +
                               stats.get("svc.verdict.window-overflow") +
                               stats.get("svc.timeout") +
                               stats.get("svc.rejected");
    EXPECT_EQ(requests, kClients * kPerClient);
    EXPECT_EQ(accounted, requests);

    // The batching layer actually engaged: the batch-size histogram saw
    // every engine pass, and with 4 pipelined clients at least one pass
    // coalesced more than one request.
    obs::Registry exported;
    server.export_metrics(exported);
    const auto& batches = exported.histogram("svc.batch_size");
    EXPECT_GT(batches.count(), 0u);
    EXPECT_GT(batches.max(), 1u);
}

// ---------------------------------------------------------------------
// Control op (kSnapshot) and stage attribution

/// kSnapshot must be answered inline — no engine pass, not queued, not
/// counted as a request — even while the pending queue is saturated
/// with a slow-draining backlog, and it must not perturb the
/// accounting invariant.
TEST(SvcStats, SnapshotSucceedsUnderSaturatedQueueWithoutPerturbation)
{
    ServerConfig config;
    config.socket_path = test_socket_path("stats");
    config.max_batch = 1;   // drain one heavy request per pass
    config.max_pending = 64; // small bound: the flood saturates it
    Server server(config);
    ASSERT_TRUE(server.start());

    // Saturate: a background flooder pumps bursts of heavy requests
    // (512 reads each) for the entire stats exchange. One burst is
    // larger than the socket buffer, so every send blocks until the
    // server reads — unread data is always available, the bounded
    // queue stays full, and overflow draws instant backpressure
    // rejections while the queued remainder drains at one per pass.
    const int flood_fd = connect_raw(config.socket_path);
    ASSERT_GE(flood_fd, 0);
    constexpr uint64_t kBurst = 64;
    std::vector<uint8_t> burst;
    for (uint64_t id = 1; id <= kBurst; ++id) {
        WireRequest request;
        request.request_id = id;
        for (uint64_t r = 0; r < 512; ++r) {
            request.offload.reads.push_back(r);
        }
        request.offload.writes = {id};
        encode_request(burst, request);
    }
    const size_t frame_bytes = burst.size() / kBurst;
    std::atomic<bool> stop_flooding{false};
    std::atomic<uint64_t> sent_bytes{0};
    std::thread flooder([&] {
        uint8_t discard[64 * 1024];
        while (!stop_flooding.load(std::memory_order_relaxed)) {
            const ssize_t n =
                send(flood_fd, burst.data(), burst.size(), MSG_NOSIGNAL);
            if (n > 0) {
                sent_bytes.fetch_add(static_cast<uint64_t>(n),
                                     std::memory_order_relaxed);
            }
            if (n != static_cast<ssize_t>(burst.size())) break;
            // Discard the responses so the server's outbound cap never
            // triggers its flood-protection disconnect (svc.overflow);
            // this test wants the connection alive and saturating.
            while (recv(flood_fd, discard, sizeof(discard),
                        MSG_DONTWAIT) > 0) {
            }
        }
    });
    for (int i = 0; i < 20000; ++i) {
        if (server.stats().get("svc.requests") >= config.max_pending) break;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ASSERT_GE(server.stats().get("svc.requests"), config.max_pending);

    // Stats from a second connection, answered while the backlog is
    // still queued.
    const int stats_fd = connect_raw(config.socket_path);
    ASSERT_GE(stats_fd, 0);
    const auto json = request_snapshot(stats_fd);
    ASSERT_TRUE(json.has_value()) << "no snapshot reply under load";
    EXPECT_NE(json->find("\"svc.requests\""), std::string::npos);
    EXPECT_NE(json->find("\"svc.queue_depth\""), std::string::npos);
    EXPECT_NE(json->find("\"svc.window_occupancy\""), std::string::npos);
    EXPECT_NE(json->find("\"svc.snapshot\""), std::string::npos);

    // The snapshot was served mid-flood, and the flood really builds a
    // backlog: while the flooder keeps pumping, the server must be
    // observable with queued-but-unanswered requests (sampling
    // svc.requests before the answer counters biases the comparison
    // toward equality, so a hit is genuine backlog, not sampling skew).
    bool saw_backlog = false;
    for (int i = 0; i < 20000 && !saw_backlog; ++i) {
        const CounterBag mid = server.stats();
        const uint64_t received = mid.get("svc.requests");
        const uint64_t answered = mid.get("svc.verdict.commit") +
                                  mid.get("svc.verdict.abort-cycle") +
                                  mid.get("svc.verdict.window-overflow") +
                                  mid.get("svc.timeout") +
                                  mid.get("svc.rejected");
        saw_backlog = answered < received;
        if (!saw_backlog) {
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
    }
    EXPECT_TRUE(saw_backlog) << "flood never built a request backlog";

    close(stats_fd);
    stop_flooding.store(true, std::memory_order_relaxed);
    flooder.join();
    // Every sent byte is in the kernel; the server will read them all,
    // decoding exactly floor(sent / frame) complete requests (a short
    // final send may leave a fragment parked in its FrameReader). Wait
    // for that count so the final accounting is deterministic.
    const uint64_t total_flooded =
        sent_bytes.load(std::memory_order_relaxed) / frame_bytes;
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.stats().get("svc.requests") < total_flooded &&
           std::chrono::steady_clock::now() < drain_deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    close(flood_fd);
    server.stop();

    // Snapshot ops never enter the request accounting — the invariant
    // holds exactly, and the poll is visible only under svc.snapshot.
    const CounterBag stats = server.stats();
    EXPECT_EQ(stats.get("svc.snapshot"), 1u);
    EXPECT_EQ(stats.get("svc.requests"), total_flooded);
    const uint64_t accounted = stats.get("svc.verdict.commit") +
                               stats.get("svc.verdict.abort-cycle") +
                               stats.get("svc.verdict.window-overflow") +
                               stats.get("svc.timeout") +
                               stats.get("svc.rejected");
    EXPECT_EQ(accounted, stats.get("svc.requests"));
}

/// One kSnapshot reply carries the three operator sections: the
/// service + shard metrics, the monitor's rings + health verdicts and
/// the conflict top-K table. It is answered from read_client() without
/// an engine pass, counted under svc.snapshot, never in svc.requests.
TEST(SvcServer, AnswersSnapshotInline)
{
    ServerConfig config;
    config.socket_path = test_socket_path("snapshot");
    config.shards = 2;
    Server server(config);
    ASSERT_TRUE(server.start());

    // Some traffic so the metrics section has non-trivial counters.
    ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    ValidationClient client(client_config);
    ASSERT_TRUE(client.connected());
    for (uint64_t i = 0; i < 8; ++i) {
        ASSERT_EQ(client.validate({{}, {100 + i}, i}).verdict,
                  core::Verdict::kCommit);
    }
    client.stop();

    const int fd = connect_raw(config.socket_path);
    ASSERT_GE(fd, 0);
    const auto json = request_snapshot(fd);
    ASSERT_TRUE(json.has_value()) << "no kSnapshotReply frame";
    close(fd);
    const size_t monitor = json->find(",\n\"monitor\": {");
    const size_t topk = json->find(",\n\"topk\": {");
    ASSERT_EQ(json->rfind("{\"metrics\": {", 0), 0u) << *json;
    ASSERT_NE(monitor, std::string::npos) << *json;
    ASSERT_NE(topk, std::string::npos) << *json;
    ASSERT_LT(monitor, topk);
    const std::string metrics = json->substr(0, monitor);
    const std::string health = json->substr(monitor, topk - monitor);
    // metrics: the service ledger next to the shard metrics.
    EXPECT_NE(metrics.find("\"svc.requests\": 8"), std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("\"svc.rpc_ns\": {\"count\": 8"),
              std::string::npos)
        << metrics;
    EXPECT_NE(metrics.find("\"shard.1.validations\""), std::string::npos);
    // monitor: the default-on sampler and SLO rules.
    EXPECT_NE(health.find("\"enabled\": true"), std::string::npos)
        << health;
    EXPECT_NE(health.find("\"svc.requests\""), std::string::npos);
    EXPECT_NE(health.find("\"svc.abort_rate\""), std::string::npos);
    EXPECT_NE(health.find("\"abort-rate\""), std::string::npos)
        << "default SLO rule missing: " << health;
    EXPECT_NE(health.find("\"state\": \"ok\""), std::string::npos);
    // topk: one table per shard.
    EXPECT_NE(json->find("\"shard\": 1", topk), std::string::npos);

    expect_payload_disconnects(config.socket_path, MsgType::kSnapshot);

    server.stop();
    EXPECT_EQ(server.stats().get("svc.snapshot"), 1u);
    EXPECT_EQ(server.stats().get("svc.malformed"), 1u);
    // Control ops sit outside the request ledger.
    EXPECT_EQ(server.stats().get("svc.requests"), 8u);
}

/// A server that has answered no request still lists every service
/// counter in its snapshot, at zero: a merged registry keeps the
/// counters that never moved, so a poller can tell "zero" from "absent".
TEST(SvcServer, FreshServerSnapshotListsZeroCounters)
{
    ServerConfig config;
    config.socket_path = test_socket_path("fresh");
    Server server(config);
    ASSERT_TRUE(server.start());
    const int fd = connect_raw(config.socket_path);
    ASSERT_GE(fd, 0);
    const auto json = request_snapshot(fd);
    ASSERT_TRUE(json.has_value()) << "no kSnapshotReply frame";
    close(fd);
    server.stop();
    EXPECT_NE(json->find("\"svc.requests\": 0"), std::string::npos)
        << *json;
    EXPECT_NE(json->find("\"svc.timeout\": 0"), std::string::npos);
    EXPECT_NE(json->find("\"svc.rejected\": 0"), std::string::npos);
    for (size_t v = 0; v < core::kVerdictCount; ++v) {
        const std::string key =
            std::string("\"svc.verdict.") +
            core::to_string(static_cast<core::Verdict>(v)) + "\": 0";
        EXPECT_NE(json->find(key), std::string::npos) << key;
    }
}

/// A server running without a monitor still answers kSnapshot — its
/// "monitor" section is an explicit "enabled": false with no series, so
/// svcctl watch shows no series instead of misreading an empty ring as
/// idleness.
TEST(SvcServer, SeriesReportsMonitorDisabled)
{
    ServerConfig config;
    config.socket_path = test_socket_path("seriesoff");
    config.monitor.enabled = false;
    Server server(config);
    ASSERT_TRUE(server.start());

    const int fd = connect_raw(config.socket_path);
    ASSERT_GE(fd, 0);
    const auto json = request_snapshot(fd);
    ASSERT_TRUE(json.has_value()) << "no kSnapshotReply frame";
    EXPECT_NE(json->find("\"monitor\": {\"enabled\": false"),
              std::string::npos)
        << *json;
    close(fd);
    server.stop();
}

/// A kSnapshot flood — hundreds of polls interleaved with real traffic
/// — must leave the accounting invariant untouched: control ops never
/// enter svc.requests, and every real request still gets exactly one
/// verdict.
TEST(SvcStats, SeriesFloodDoesNotPerturbAccounting)
{
    ServerConfig config;
    config.socket_path = test_socket_path("seriesflood");
    Server server(config);
    ASSERT_TRUE(server.start());

    ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    ValidationClient client(client_config);
    ASSERT_TRUE(client.connected());

    const int poll_fd = connect_raw(config.socket_path);
    ASSERT_GE(poll_fd, 0);

    constexpr uint64_t kPolls = 200;
    constexpr uint64_t kRequests = 200;
    std::atomic<bool> poller_ok{true};
    std::thread poller([&] {
        for (uint64_t i = 0; i < kPolls; ++i) {
            if (!request_snapshot(poll_fd)) {
                poller_ok = false;
                return;
            }
        }
    });
    for (uint64_t i = 0; i < kRequests; ++i) {
        const auto result = client.validate({{}, {1000 + i}, i});
        ASSERT_EQ(result.verdict, core::Verdict::kCommit);
    }
    poller.join();
    EXPECT_TRUE(poller_ok) << "kSnapshot poll failed mid-flood";
    close(poll_fd);
    client.stop();
    server.stop();

    const CounterBag stats = server.stats();
    EXPECT_EQ(stats.get("svc.snapshot"), kPolls);
    EXPECT_EQ(stats.get("svc.requests"), kRequests);
    const uint64_t accounted = stats.get("svc.verdict.commit") +
                               stats.get("svc.verdict.abort-cycle") +
                               stats.get("svc.verdict.window-overflow") +
                               stats.get("svc.timeout") +
                               stats.get("svc.rejected");
    EXPECT_EQ(accounted, stats.get("svc.requests"));
}

/// v2 responses carry the server's stage breakdown; the client folds it
/// into svc.stage.* histograms whose wall-clock stages sum to the
/// measured round trip by construction (wire is the residual).
TEST(SvcClient, RecordsStageBreakdownFromV2Responses)
{
    ServerConfig config;
    config.socket_path = test_socket_path("stages");
    Server server(config);
    ASSERT_TRUE(server.start());

    ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    ValidationClient client(client_config);
    ASSERT_TRUE(client.connected());

    constexpr uint64_t kRequests = 64;
    for (uint64_t i = 0; i < kRequests; ++i) {
        auto result = client.validate({{}, {100 + i}, i});
        ASSERT_EQ(result.verdict, core::Verdict::kCommit);
    }

    obs::Registry exported;
    client.export_metrics(exported);
    const char* kStages[] = {"client_queue", "wire", "server_queue",
                             "batch_wait", "engine", "link"};
    for (const char* stage : kStages) {
        EXPECT_EQ(exported.histogram("svc.stage." + std::string(stage))
                      .count(),
                  kRequests)
            << stage;
    }
    // The modeled link cost is never zero for a non-empty request.
    EXPECT_GT(exported.histogram("svc.stage.link").mean(), 0.0);

    // Wall-clock stages (link excluded: it is modeled, not measured)
    // sum to the measured end-to-end mean.
    const double stage_sum =
        exported.histogram("svc.stage.client_queue").mean() +
        exported.histogram("svc.stage.wire").mean() +
        exported.histogram("svc.stage.server_queue").mean() +
        exported.histogram("svc.stage.batch_wait").mean() +
        exported.histogram("svc.stage.engine").mean();
    const double e2e = exported.histogram("svc.client.rpc_ns").mean();
    EXPECT_GT(e2e, 0.0);
    EXPECT_NEAR(stage_sum, e2e, 0.05 * e2e);

    // The server kept its own (authoritative) copies of its stages.
    obs::Registry server_metrics;
    client.stop();
    server.stop();
    server.export_metrics(server_metrics);
    EXPECT_EQ(server_metrics.histogram("svc.stage.server_queue").count(),
              kRequests);
    EXPECT_EQ(server_metrics.histogram("svc.stage.engine").count(),
              kRequests);
}

#if ROCOCO_TRACE_ENABLED
/// Trace-context propagation end to end (in-process edition): every
/// validated request yields a client span + flow-start and a server
/// span + flow-end sharing the same id, which is what lets a merged
/// multi-process trace draw one causal arrow per validation.
TEST(SvcTrace, FlowEventsLinkClientAndServerSpans)
{
    auto& tracer = obs::Tracer::instance();
    tracer.reset();
    tracer.start();

    constexpr uint64_t kRequests = 8;
    {
        ServerConfig config;
        config.socket_path = test_socket_path("flows");
        Server server(config);
        ASSERT_TRUE(server.start());
        ClientConfig client_config;
        client_config.socket_path = config.socket_path;
        ValidationClient client(client_config);
        ASSERT_TRUE(client.connected());
        for (uint64_t i = 0; i < kRequests; ++i) {
            ASSERT_EQ(client.validate({{}, {i}, i}).verdict,
                      core::Verdict::kCommit);
        }
        client.stop();
        server.stop();
    }
    tracer.stop();

    std::set<uint64_t> starts, ends;
    uint64_t client_spans = 0, server_spans = 0;
    for (const auto& event : tracer.snapshot()) {
        if (event.name == nullptr) continue;
        const std::string name = event.name;
        if (event.phase == obs::EventPhase::kFlowStart &&
            name == "svc.validate_flow") {
            starts.insert(event.arg_value);
        } else if (event.phase == obs::EventPhase::kFlowEnd &&
                   name == "svc.validate_flow") {
            ends.insert(event.arg_value);
        } else if (name == "svc.rpc") {
            ++client_spans;
        } else if (name == "svc.server.validate") {
            ++server_spans;
        }
    }
    EXPECT_EQ(client_spans, kRequests);
    EXPECT_EQ(server_spans, kRequests);
    EXPECT_EQ(starts.size(), kRequests);
    // Every arrow head has its tail: the ids the server finished are
    // exactly the ids the client started.
    EXPECT_EQ(ends, starts);
    tracer.reset();
}
#endif // ROCOCO_TRACE_ENABLED

// ---------------------------------------------------------------------
// RococoTm backend switch

TEST(SvcTm, RococoTmRunsAgainstValidationService)
{
    ServerConfig server_config;
    server_config.socket_path = test_socket_path("tm");
    Server server(server_config);
    ASSERT_TRUE(server.start());

    tm::RococoTmConfig config;
    config.validation_service = server_config.socket_path;
    config.validation_timeout_ns = 500'000'000; // 500 ms safety net
    tm::RococoTm runtime(config);

    constexpr int kThreads = 4;
    constexpr int kTxPerThread = 100;
    std::vector<tm::TmCell> cells(8);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            runtime.thread_init(static_cast<unsigned>(t));
            Xoshiro256 rng(100 + t);
            for (int i = 0; i < kTxPerThread; ++i) {
                const size_t a = rng.below(cells.size());
                const size_t b =
                    (a + 1 + rng.below(cells.size() - 1)) % cells.size();
                runtime.execute([&](tm::Tx& tx) {
                    // Move one unit a -> b; total is conserved iff the
                    // histories serialize.
                    const tm::Word va = tx.load(cells[a]);
                    const tm::Word vb = tx.load(cells[b]);
                    tx.store(cells[a], va - 1);
                    tx.store(cells[b], vb + 1);
                });
            }
            runtime.thread_fini();
        });
    }
    for (auto& thread : threads) thread.join();

    tm::Word total = 0;
    for (const auto& cell : cells) total += cell.value.load();
    EXPECT_EQ(total, 0) << "service-validated histories must serialize";

    const CounterBag stats = runtime.stats();
    EXPECT_EQ(stats.get(tm::stat::kCommits),
              static_cast<uint64_t>(kThreads * kTxPerThread));

    // The server really did the validating: it saw at least as many
    // requests as there were writing commits.
    EXPECT_GE(server.stats().get("svc.requests"),
              stats.get(tm::stat::kCommits));
    server.stop();
}

/// A wrong or unreachable service path must fail RococoTm construction
/// loudly — a disconnected backend rejects every validation, which
/// try_execute would otherwise retry silently forever.
TEST(SvcTmDeathTest, UnreachableServiceFailsConstructionLoudly)
{
    tm::RococoTmConfig config;
    config.validation_service = test_socket_path("unreachable");
    EXPECT_DEATH({ tm::RococoTm runtime(config); },
                 "validation service unreachable");
}

} // namespace
} // namespace rococo::svc
