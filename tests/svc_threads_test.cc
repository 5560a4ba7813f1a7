/// Stress tests for the validation server under concurrency: client
/// threads racing the one service thread with overlapping single- and
/// cross-shard footprints, kSnapshot floods racing live validation
/// traffic, and restart cycles. Each test
/// re-proves the service accounting invariant
///   svc.requests == sum(svc.verdict.*) + svc.timeout + svc.rejected.
/// These are the tests the TSan preset leans on: every handoff between
/// the service thread, the client callers that pass the socket's read
/// role among themselves and the caller of start()/stop()/stats() gets
/// exercised under real contention.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/wire.h"

namespace rococo::svc {
namespace {

std::string
test_socket_path(const char* tag)
{
    return "/tmp/rococo_svc_threads_" + std::string(tag) + "_" +
           std::to_string(getpid()) + ".sock";
}

/// Raw connected socket for the introspection flood; -1 on failure.
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

/// Sum of the server-side accounting sinks that must equal
/// svc.requests once the server has stopped (every accepted request is
/// answered exactly once: verdict, timeout or rejection).
uint64_t
accounted(const CounterBag& stats)
{
    return stats.get("svc.verdict.commit") +
           stats.get("svc.verdict.abort-cycle") +
           stats.get("svc.verdict.window-overflow") +
           stats.get("svc.timeout") + stats.get("svc.rejected");
}

/// Pump @p per_client requests through one ValidationClient with
/// footprints that exercise both router paths: most requests touch a
/// narrow key range (usually lands on one shard) and every fourth
/// spans the whole address space (cross-shard two-phase).
/// Returns the number of resolved futures.
uint64_t
pump_traffic(const std::string& socket_path, uint64_t per_client,
             uint64_t seed)
{
    ClientConfig client_config;
    client_config.socket_path = socket_path;
    ValidationClient client(client_config);
    if (!client.connected()) return 0;
    Xoshiro256 rng(seed);
    uint64_t answered = 0;
    std::vector<std::future<core::ValidationResult>> inflight;
    for (uint64_t i = 0; i < per_client; ++i) {
        fpga::OffloadRequest request;
        if (i % 4 == 3) {
            // Wide footprint: reads spread over the full key space so
            // the split hits several shards and the router's ascending
            // cross-shard lock path runs.
            for (int r = 0; r < 8; ++r) {
                request.reads.push_back(rng.below(4096));
            }
            request.writes.push_back(rng.below(4096));
        } else {
            // Narrow footprint: a 64-key hot set, overlapping across
            // clients so all three verdicts occur; usually one shard.
            for (int r = 0; r < 4; ++r) {
                request.reads.push_back(rng.below(64));
            }
            request.writes.push_back(rng.below(64));
        }
        request.snapshot_cid = rng.below(2) == 0 ? uint64_t{0} : per_client;
        inflight.push_back(client.submit(std::move(request)));
        if (inflight.size() >= 16) {
            for (auto& f : inflight) {
                f.get();
                ++answered;
            }
            inflight.clear();
        }
    }
    for (auto& f : inflight) {
        f.get();
        ++answered;
    }
    client.stop();
    return answered;
}

// ---------------------------------------------------------------------
// Concurrent clients vs. the service thread

TEST(SvcThreads, ConcurrentClientsAccountingSumsWithWorkers)
{
    ServerConfig config;
    config.socket_path = test_socket_path("mt_smoke");
    config.shards = 4;
    config.max_pending = 64;
    Server server(config);
    ASSERT_TRUE(server.start());

    constexpr int kClients = 4;
    constexpr uint64_t kPerClient = 400;
    std::atomic<uint64_t> answered{0};
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            answered.fetch_add(
                pump_traffic(config.socket_path, kPerClient, 7 + c));
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(answered.load(), kClients * kPerClient);

    server.stop();
    const CounterBag stats = server.stats();
    const uint64_t requests = stats.get("svc.requests");
    EXPECT_EQ(requests, kClients * kPerClient);
    EXPECT_EQ(accounted(stats), requests);
}

// ---------------------------------------------------------------------
// Introspection racing validation traffic

TEST(SvcThreads, StatsAndSeriesFloodDuringWorkerTraffic)
{
    ServerConfig config;
    config.socket_path = test_socket_path("mt_stats");
    config.shards = 2;
    config.max_pending = 32;
    Server server(config);
    ASSERT_TRUE(server.start());

    // Background validation traffic for the whole introspection
    // exchange, so stats snapshots race live engine batches.
    std::atomic<bool> stop_traffic{false};
    std::atomic<uint64_t> pumped{0};
    std::thread traffic([&] {
        while (!stop_traffic.load(std::memory_order_relaxed)) {
            pumped.fetch_add(
                pump_traffic(config.socket_path, 64, pumped.load() + 1),
                std::memory_order_relaxed);
        }
    });

    const int fd = connect_raw(config.socket_path);
    ASSERT_GE(fd, 0);
    std::vector<uint8_t> frame;
    encode_control(frame, MsgType::kSnapshot);
    for (int round = 0; round < 50; ++round) {
        ASSERT_EQ(send(fd, frame.data(), frame.size(), MSG_NOSIGNAL),
                  static_cast<ssize_t>(frame.size()));
        auto payload = read_frame_of_type(fd, MsgType::kSnapshotReply);
        ASSERT_TRUE(payload.has_value())
            << "no snapshot reply in round " << round;
        const std::string json(payload->begin(), payload->end());
        // Live gauges are refreshed right before the snapshot and
        // always merge into it, traffic or not; the monitor section
        // rides along in the same reply.
        EXPECT_NE(json.find("\"svc.queue_depth\""), std::string::npos);
        EXPECT_NE(json.find("\"svc.window_occupancy\""), std::string::npos);
        EXPECT_NE(json.find("\"monitor\": {\"enabled\": true"),
                  std::string::npos);
    }
    close(fd);

    // On a loaded host the 50 rounds can finish before the traffic
    // thread is first scheduled; give it time to complete one pump so
    // the check below tests the traffic, not the scheduler.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (pumped.load() == 0 && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
    }
    stop_traffic.store(true, std::memory_order_relaxed);
    traffic.join();
    EXPECT_GT(pumped.load(), 0u);

    server.stop();
    const CounterBag stats = server.stats();
    EXPECT_EQ(accounted(stats), stats.get("svc.requests"));
}

// ---------------------------------------------------------------------
// Restart cycles

TEST(SvcThreads, RestartCyclesDrainWorkersAndRebind)
{
    ServerConfig config;
    config.socket_path = test_socket_path("mt_restart");
    config.shards = 2;
    config.max_pending = 16;
    Server server(config);

    uint64_t total_requests = 0;
    for (int cycle = 0; cycle < 3; ++cycle) {
        ASSERT_TRUE(server.start()) << "cycle " << cycle;
        std::vector<std::thread> threads;
        std::atomic<uint64_t> answered{0};
        for (int c = 0; c < 2; ++c) {
            threads.emplace_back([&, c, cycle] {
                answered.fetch_add(pump_traffic(config.socket_path, 100,
                                                cycle * 10 + c));
            });
        }
        for (auto& thread : threads) thread.join();
        EXPECT_EQ(answered.load(), 200u);
        total_requests += answered.load();
        server.stop();
        // stop() joined the service thread and rejected whatever was
        // still queued, so the ledger balances at every cycle
        // boundary, not just at process exit.
        const CounterBag stats = server.stats();
        EXPECT_EQ(stats.get("svc.requests"), total_requests);
        EXPECT_EQ(accounted(stats), total_requests);
    }
}

// ---------------------------------------------------------------------
// Threads

/// Threads of this process, from /proc/self/task.
size_t
thread_count()
{
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return static_cast<size_t>(std::distance(begin(tasks), end(tasks)));
}

/// The client has no reader thread: the callers that wait read the
/// socket themselves, so connecting and validating start no thread.
TEST(SvcThreads, ConnectedClientStartsNoThread)
{
    ServerConfig config;
    config.socket_path = test_socket_path("nothread");
    Server server(config);
    ASSERT_TRUE(server.start());

    const size_t before = thread_count();
    {
        ClientConfig client_config;
        client_config.socket_path = config.socket_path;
        ValidationClient client(client_config);
        ASSERT_TRUE(client.connected());
        EXPECT_EQ(thread_count(), before);
        EXPECT_EQ(client.validate({{}, {1}, 0}).verdict,
                  core::Verdict::kCommit);
        EXPECT_EQ(thread_count(), before);
        client.stop();
    }
    server.stop();
}

} // namespace
} // namespace rococo::svc
