/// @file
/// Shared-memory byte rings: the validation service's data plane, the
/// software counterpart of the cache-line queues the paper's CCI link
/// shares between CPU and FPGA (§5.3).
///
/// A Segment holds two single-producer/single-consumer byte rings, one
/// per direction, carrying the wire frames of wire.h unchanged. The
/// server creates it in a sealed memfd and passes the descriptor to the
/// client over the connection's socket (kAttach / kAttachReply); from
/// then on a round trip is two memcpys and four index updates, with no
/// syscall on either side.
///
/// Indices are free-running byte counts: the producer owns head, the
/// consumer tail, and each end keeps its own copy of the index it owns,
/// reading only the peer's index from the segment. The peer's index is
/// untrusted: one that lies behind the owner's, or more than
/// kRingBytes ahead of it, makes read() / write() return -1, and no
/// byte outside the segment is ever touched.
///
/// Sleeping. A consumer that has spun out its budget parks: it sets
/// the ring's parked word, re-checks head, and only then sleeps on the
/// socket. A producer loads parked after every write and, if set,
/// claims it and sends one doorbell byte. Both sides use seq_cst for the
/// store-then-load pair (the same handshake as ValidationPipeline's
/// idle flag), so a parking consumer either sees the new head or the
/// producer sees the parked word: no wake-up is lost. The same
/// handshake runs the other way for a producer that a full ring stops:
/// it sets writer_waiting, re-checks tail and sleeps; the consumer
/// loads writer_waiting after every read and rings once.
#pragma once

#include <sys/types.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/spin_wait.h"

namespace rococo::svc {

/// Bytes per direction (a power of two). A frame larger than this
/// streams through in pieces, as through a socket's send buffer.
inline constexpr size_t kRingBytes = 16 * 1024;
static_assert((kRingBytes & (kRingBytes - 1)) == 0);

/// How long a client waits for the server's kAttachReply before it
/// counts the connection as failed: a listener that accepts but never
/// answers must not hang the client's constructor.
inline constexpr std::chrono::milliseconds kAttachTimeout{1000};

/// The indices of one ring. head and writer_waiting share a line
/// (producer writes); tail and parked share another (consumer writes).
struct RingIndices
{
    alignas(kCacheLine) std::atomic<uint64_t> head{0};
    std::atomic<uint32_t> writer_waiting{0};
    alignas(kCacheLine) std::atomic<uint64_t> tail{0};
    std::atomic<uint32_t> parked{0};
};

/// The shared segment of one connection.
struct Segment
{
    RingIndices to_server;
    RingIndices to_client;
    /// Set by the server's stop() before it closes the socket, so a
    /// client spinning on its ring (not asleep on the socket) sees the
    /// end at once.
    alignas(kCacheLine) std::atomic<uint32_t> closed{0};
    alignas(kCacheLine) uint8_t to_server_bytes[kRingBytes];
    uint8_t to_client_bytes[kRingBytes];
};

/// The producing end of one ring.
class RingWriter
{
  public:
    RingWriter() = default;
    RingWriter(RingIndices* indices, uint8_t* bytes)
        : ix_(indices), bytes_(bytes)
    {
    }

    /// Copy up to @p size bytes in; the count written (0 when the ring
    /// is full), or -1 when the consumer's tail is impossible.
    ssize_t write(const uint8_t* data, size_t size);

    /// After a write: true iff the consumer had parked. Claims the park,
    /// so the caller sends exactly one doorbell per park.
    bool consumer_parked()
    {
        return ix_->parked.load(std::memory_order_seq_cst) != 0 &&
               ix_->parked.exchange(0, std::memory_order_seq_cst) != 0;
    }

    /// Announce that this producer, stopped by a full ring, is about to
    /// sleep on the socket. False (and not waiting) when space was
    /// freed meanwhile: write instead of sleeping.
    bool wait_for_space()
    {
        ix_->writer_waiting.store(1, std::memory_order_seq_cst);
        if (head_ - ix_->tail.load(std::memory_order_seq_cst) != kRingBytes) {
            stop_waiting();
            return false;
        }
        return true;
    }

    void stop_waiting()
    {
        ix_->writer_waiting.store(0, std::memory_order_relaxed);
    }

  private:
    RingIndices* ix_ = nullptr;
    uint8_t* bytes_ = nullptr;
    uint64_t head_ = 0;
};

/// The consuming end of one ring.
class RingReader
{
  public:
    RingReader() = default;
    RingReader(RingIndices* indices, const uint8_t* bytes)
        : ix_(indices), bytes_(bytes)
    {
    }

    /// Hand every readable byte to @p sink(const uint8_t*, size_t) (in
    /// at most two pieces, at the wrap) and free it; the count read, or
    /// -1 when the producer's head is impossible.
    template <class Sink>
    ssize_t read(Sink&& sink)
    {
        const uint64_t head = ix_->head.load(std::memory_order_acquire);
        const uint64_t avail = head - tail_;
        if (avail > kRingBytes) return -1;
        if (avail == 0) return 0;
        const size_t at = tail_ & (kRingBytes - 1);
        const size_t first = std::min<size_t>(avail, kRingBytes - at);
        sink(bytes_ + at, first);
        if (first < avail) sink(bytes_, avail - first);
        tail_ = head;
        // seq_cst: ordered before producer_waiting()'s load.
        ix_->tail.store(tail_, std::memory_order_seq_cst);
        return static_cast<ssize_t>(avail);
    }

    /// After a read: true iff the producer was waiting for space. Claims
    /// the wait, so the caller sends exactly one doorbell per wait.
    bool producer_waiting()
    {
        return ix_->writer_waiting.load(std::memory_order_seq_cst) != 0 &&
               ix_->writer_waiting.exchange(0, std::memory_order_seq_cst) !=
                   0;
    }

    /// True when bytes are waiting (or the head is corrupt, which the
    /// next read() reports).
    bool readable() const
    {
        return ix_->head.load(std::memory_order_acquire) != tail_;
    }

    /// Announce that this consumer is about to sleep on the socket.
    /// False (and not parked) when bytes arrived meanwhile: read them
    /// instead of sleeping.
    bool park()
    {
        ix_->parked.store(1, std::memory_order_seq_cst);
        if (ix_->head.load(std::memory_order_seq_cst) == tail_) return true;
        unpark();
        return false;
    }

    void unpark() { ix_->parked.store(0, std::memory_order_relaxed); }

  private:
    RingIndices* ix_ = nullptr;
    const uint8_t* bytes_ = nullptr;
    uint64_t tail_ = 0;
};

/// One mapping of a Segment; unmaps on destruction.
struct SegmentUnmap
{
    void operator()(Segment* segment) const;
};
using SegmentMapping = std::unique_ptr<Segment, SegmentUnmap>;

/// A fresh, sealed (no shrink, no grow, no more seals) segment; its
/// descriptor goes to @p *fd, which the caller closes once it has
/// passed it on. Empty on failure.
SegmentMapping create_segment(int* fd);

/// Map the segment behind @p fd (not closed here). Empty unless it is a
/// segment of the right size that can no longer shrink.
SegmentMapping map_segment(int fd);

/// Client half of the attach handshake (wire.h kAttach): ask the server
/// on the connected, blocking socket @p sock for the connection's
/// segment and map it. Empty on failure, or when no reply came within
/// kAttachTimeout.
SegmentMapping request_segment(int sock);

/// Server half: create a segment and send it with a kAttachReply on
/// @p sock, which must have nothing else waiting to go out. Empty on
/// failure.
SegmentMapping grant_segment(int sock);

/// One doorbell byte on @p sock, never blocking: a full socket buffer
/// already holds a doorbell.
void ring_doorbell(int sock);

} // namespace rococo::svc
