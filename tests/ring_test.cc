/// Tests for the validation service's shared-memory byte rings
/// (src/svc/ring.h). Producer and consumer share one mapping here, so
/// ThreadSanitizer sees both ends' synchronization; svc_test maps every
/// segment twice (client and server in one process), which hides it.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "svc/ring.h"
#include "svc/wire.h"

namespace rococo::svc {
namespace {

/// Both ends of the to_server ring of one fresh segment.
struct Ring
{
    Ring()
    {
        int fd = -1;
        mapping = create_segment(&fd);
        if (fd >= 0) close(fd);
        if (mapping) {
            writer = RingWriter(&mapping->to_server,
                                mapping->to_server_bytes);
            reader = RingReader(&mapping->to_server,
                                mapping->to_server_bytes);
        }
    }

    /// Everything readable, appended to @p out; the read() result.
    ssize_t
    drain(std::vector<uint8_t>& out)
    {
        return reader.read([&out](const uint8_t* p, size_t size) {
            out.insert(out.end(), p, p + size);
        });
    }

    SegmentMapping mapping;
    RingWriter writer;
    RingReader reader;
};

TEST(Ring, SegmentIsSealedAndSizedForBothRings)
{
    int fd = -1;
    SegmentMapping mapping = create_segment(&fd);
    ASSERT_TRUE(mapping);
    ASSERT_GE(fd, 0);
    const int seals = fcntl(fd, F_GET_SEALS);
    EXPECT_NE(seals & F_SEAL_SHRINK, 0);
    EXPECT_NE(seals & F_SEAL_GROW, 0);
    EXPECT_NE(seals & F_SEAL_SEAL, 0);
    EXPECT_NE(ftruncate(fd, 0), 0); // sealed: a peer cannot shrink it
    // A second mapping of the same file sees the first one's writes.
    SegmentMapping other = map_segment(fd);
    ASSERT_TRUE(other);
    mapping->closed.store(1);
    EXPECT_EQ(other->closed.load(), 1u);
    close(fd);
}

TEST(Ring, AttachRefusesAnUnsealedOrMisSizedFile)
{
    const int fd = memfd_create("ring-test", MFD_CLOEXEC);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(ftruncate(fd, sizeof(Segment)), 0);
    EXPECT_FALSE(map_segment(fd)); // can still shrink
    ASSERT_EQ(ftruncate(fd, 4096), 0);
    EXPECT_FALSE(map_segment(fd));
    close(fd);
}

TEST(Ring, WrapsAroundAtEveryOffset)
{
    Ring ring;
    ASSERT_TRUE(ring.mapping);
    // An odd chunk advances the ring position by an amount coprime with
    // its power-of-two size, so kRingBytes chunks start at every offset
    // once, and every split point of a wrapping chunk occurs.
    constexpr size_t kChunk = 97;
    std::vector<uint8_t> chunk(kChunk), got;
    for (size_t i = 0; i < kRingBytes; ++i) {
        for (size_t b = 0; b < kChunk; ++b) chunk[b] = uint8_t(i * 31 + b);
        ASSERT_EQ(ring.writer.write(chunk.data(), kChunk), ssize_t(kChunk));
        got.clear();
        ASSERT_EQ(ring.drain(got), ssize_t(kChunk));
        ASSERT_EQ(got, chunk) << "chunk " << i;
    }
    EXPECT_FALSE(ring.reader.readable());
}

TEST(Ring, FullRingPushesBack)
{
    Ring ring;
    ASSERT_TRUE(ring.mapping);
    std::vector<uint8_t> bytes(kRingBytes + 100, 7), got;
    EXPECT_EQ(ring.writer.write(bytes.data(), bytes.size()),
              ssize_t(kRingBytes));
    EXPECT_EQ(ring.writer.write(bytes.data(), 1), 0);
    ASSERT_EQ(ring.drain(got), ssize_t(kRingBytes));
    EXPECT_EQ(ring.writer.write(bytes.data(), 100), 100);

    // Threaded: a producer far faster than a lagging consumer hits the
    // full ring, and nothing is lost or reordered across the stalls.
    Ring stream;
    ASSERT_TRUE(stream.mapping);
    constexpr uint64_t kBytes = 8 * kRingBytes + 13;
    uint64_t stalls = 0;
    std::thread producer([&] {
        uint8_t buf[1000];
        uint64_t sent = 0;
        while (sent < kBytes) {
            const size_t n = std::min<uint64_t>(sizeof(buf), kBytes - sent);
            for (size_t b = 0; b < n; ++b) buf[b] = uint8_t((sent + b) % 251);
            size_t off = 0;
            while (off < n) {
                const ssize_t w = stream.writer.write(buf + off, n - off);
                ASSERT_GE(w, 0);
                if (w == 0) {
                    ++stalls;
                    std::this_thread::yield();
                }
                off += size_t(w);
            }
            sent += n;
        }
    });
    uint64_t seen = 0;
    while (seen < kBytes) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        const ssize_t n = stream.reader.read([&](const uint8_t* p, size_t s) {
            for (size_t b = 0; b < s; ++b) {
                ASSERT_EQ(p[b], uint8_t((seen + b) % 251));
            }
            seen += s;
        });
        ASSERT_GE(n, 0);
        ASSERT_LE(size_t(n), kRingBytes);
    }
    producer.join();
    EXPECT_EQ(seen, kBytes);
    EXPECT_GT(stalls, 0u);
}

TEST(Ring, StreamsFramesLargerThanTheRing)
{
    Ring ring;
    ASSERT_TRUE(ring.mapping);
    // Request frames from a few bytes to several ring sizes, written in
    // whatever pieces fit and framed again on the other side.
    std::vector<WireRequest> requests;
    Xoshiro256 rng(5);
    for (size_t i = 0; i < 24; ++i) {
        WireRequest request;
        request.request_id = i;
        const size_t n = i % 3 == 0 ? 3 * kRingBytes / 8 + i : i;
        for (size_t a = 0; a < n; ++a) request.offload.reads.push_back(rng());
        for (size_t a = 0; a < n / 2; ++a) {
            request.offload.writes.push_back(rng());
        }
        requests.push_back(std::move(request));
    }
    std::thread producer([&] {
        std::vector<uint8_t> frame;
        for (const WireRequest& request : requests) {
            frame.clear();
            encode_request(frame, request);
            size_t off = 0;
            while (off < frame.size()) {
                const ssize_t w =
                    ring.writer.write(frame.data() + off, frame.size() - off);
                ASSERT_GE(w, 0);
                if (w == 0) std::this_thread::yield();
                off += size_t(w);
            }
        }
    });
    FrameReader reader;
    size_t decoded = 0;
    while (decoded < requests.size()) {
        const ssize_t n = ring.reader.read([&](const uint8_t* p, size_t s) {
            reader.append(p, s);
        });
        ASSERT_GE(n, 0);
        bool malformed = false;
        while (auto frame = reader.next(&malformed)) {
            const auto got =
                decode_request(frame->type, frame->payload, frame->size);
            ASSERT_TRUE(got.has_value());
            const WireRequest& want = requests[decoded++];
            EXPECT_EQ(got->request_id, want.request_id);
            EXPECT_EQ(got->offload.reads, want.offload.reads);
            EXPECT_EQ(got->offload.writes, want.offload.writes);
        }
        ASSERT_FALSE(malformed);
        if (n == 0) std::this_thread::yield();
    }
    producer.join();
}

/// A consumer that parks as soon as its ring is empty, and a producer
/// that rings the doorbell whenever it finds the consumer parked: over
/// every handoff, the consumer either sees the message when it
/// re-checks, or the doorbell arrives. A lost wake-up leaves it asleep,
/// and the poll timeout turns that into a failure instead of a hang.
TEST(Ring, ParkedReaderNeverMissesADoorbell)
{
    Ring ring;
    ASSERT_TRUE(ring.mapping);
    int bell[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, bell), 0);
    constexpr uint64_t kHandoffs = 100'000;
    std::atomic<uint64_t> consumed{0};
    std::atomic<bool> lost{false};
    std::atomic<uint64_t> sleeps{0};

    std::thread consumer([&] {
        uint64_t expect = 0;
        while (expect < kHandoffs && !lost.load()) {
            const ssize_t n = ring.reader.read([&](const uint8_t* p, size_t s) {
                for (size_t off = 0; off + 8 <= s; off += 8) {
                    uint64_t v;
                    std::memcpy(&v, p + off, 8);
                    EXPECT_EQ(v, expect);
                    ++expect;
                }
            });
            ASSERT_GE(n, 0);
            if (n > 0) {
                consumed.store(expect, std::memory_order_release);
                continue;
            }
            if (!ring.reader.park()) continue;
            pollfd pfd{bell[1], POLLIN, 0};
            const int ready = poll(&pfd, 1, 10'000);
            ring.reader.unpark();
            if (ready == 0) {
                lost.store(true);
                break;
            }
            sleeps.fetch_add(1, std::memory_order_relaxed);
            uint8_t drain[64];
            while (recv(bell[1], drain, sizeof(drain), MSG_DONTWAIT) > 0) {}
        }
    });
    for (uint64_t i = 0; i < kHandoffs && !lost.load(); ++i) {
        uint8_t word[8];
        std::memcpy(word, &i, 8);
        ASSERT_EQ(ring.writer.write(word, 8), 8); // at most one in flight
        if (ring.writer.consumer_parked()) ring_doorbell(bell[0]);
        // Hand off one message at a time, so that the consumer empties
        // the ring and parks between most of them.
        while (consumed.load(std::memory_order_acquire) <= i &&
               !lost.load()) {
            std::this_thread::yield();
        }
    }
    consumer.join();
    close(bell[0]);
    close(bell[1]);
    EXPECT_FALSE(lost.load()) << "a parked consumer missed its doorbell";
    EXPECT_EQ(consumed.load(), kHandoffs);
    EXPECT_GT(sleeps.load(), 0u);
}

/// The other direction: a producer that finds the ring full marks
/// itself waiting and sleeps, and a consumer that frees space rings
/// when it finds the mark. Every block fills the whole ring, so the
/// producer stops at every handoff; a lost wake-up leaves it asleep
/// until the poll timeout fails the test.
TEST(Ring, WaitingWriterNeverMissesADoorbell)
{
    Ring ring;
    ASSERT_TRUE(ring.mapping);
    int bell[2];
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, bell), 0);
    constexpr uint64_t kBlocks = 20'000;
    std::vector<uint8_t> block(kRingBytes);
    std::atomic<bool> lost{false};
    uint64_t sleeps = 0;

    std::thread producer([&] {
        for (uint64_t i = 0; i < kBlocks && !lost.load(); ++i) {
            size_t off = 0;
            while (off < block.size()) {
                const ssize_t w =
                    ring.writer.write(block.data() + off, block.size() - off);
                ASSERT_GE(w, 0);
                off += size_t(w);
                if (off == block.size() || !ring.writer.wait_for_space()) {
                    continue;
                }
                pollfd pfd{bell[1], POLLIN, 0};
                const int ready = poll(&pfd, 1, 10'000);
                ring.writer.stop_waiting();
                if (ready == 0) {
                    lost.store(true);
                    return;
                }
                ++sleeps;
                uint8_t drain[64];
                while (recv(bell[1], drain, sizeof(drain), MSG_DONTWAIT) >
                       0) {}
            }
        }
    });
    uint64_t seen = 0;
    while (seen < kBlocks * kRingBytes && !lost.load()) {
        const ssize_t n =
            ring.reader.read([&](const uint8_t*, size_t s) { seen += s; });
        ASSERT_GE(n, 0);
        if (n > 0 && ring.reader.producer_waiting()) ring_doorbell(bell[0]);
    }
    producer.join();
    close(bell[0]);
    close(bell[1]);
    EXPECT_FALSE(lost.load()) << "a waiting producer missed its doorbell";
    EXPECT_EQ(seen, kBlocks * kRingBytes);
    EXPECT_GT(sleeps, 0u);
}

/// The peer's index is untrusted: a head past the ring's capacity or
/// behind the reader's tail, or a tail ahead of the writer's head,
/// fails the call without touching a byte outside the ring.
TEST(Ring, ImpossiblePeerIndicesAreRefused)
{
    {
        Ring ring;
        ASSERT_TRUE(ring.mapping);
        bool touched = false;
        const auto sink = [&](const uint8_t*, size_t) { touched = true; };
        ring.mapping->to_server.head.store(kRingBytes + 1);
        EXPECT_EQ(ring.reader.read(sink), -1);
        ring.mapping->to_server.head.store(~uint64_t{0} - 5);
        EXPECT_EQ(ring.reader.read(sink), -1);
        EXPECT_FALSE(touched);
    }
    {
        Ring ring;
        ASSERT_TRUE(ring.mapping);
        std::vector<uint8_t> bytes(64, 1), got;
        ASSERT_EQ(ring.writer.write(bytes.data(), 64), 64);
        ASSERT_EQ(ring.drain(got), 64);
        ring.mapping->to_server.head.store(10); // behind the tail (64)
        EXPECT_EQ(ring.drain(got), -1);
    }
    {
        Ring ring;
        ASSERT_TRUE(ring.mapping);
        uint8_t byte = 0;
        ring.mapping->to_server.tail.store(1); // ahead of the head (0)
        EXPECT_EQ(ring.writer.write(&byte, 1), -1);
        ring.mapping->to_server.tail.store(~uint64_t{0} - kRingBytes);
        EXPECT_EQ(ring.writer.write(&byte, 1), -1);
    }
}

} // namespace
} // namespace rococo::svc
