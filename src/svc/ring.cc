#include "svc/ring.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <new>
#include <vector>

#include "svc/wire.h"

namespace rococo::svc {

ssize_t
RingWriter::write(const uint8_t* data, size_t size)
{
    const uint64_t used = head_ - ix_->tail.load(std::memory_order_acquire);
    if (used > kRingBytes) return -1;
    const size_t n = std::min<size_t>(size, kRingBytes - used);
    if (n == 0) return 0;
    const size_t at = head_ & (kRingBytes - 1);
    const size_t first = std::min(n, kRingBytes - at);
    std::memcpy(bytes_ + at, data, first);
    std::memcpy(bytes_, data + first, n - first);
    head_ += n;
    // seq_cst: ordered before consumer_parked()'s load (see the file
    // comment).
    ix_->head.store(head_, std::memory_order_seq_cst);
    return static_cast<ssize_t>(n);
}

void
SegmentUnmap::operator()(Segment* segment) const
{
    munmap(segment, sizeof(Segment));
}

SegmentMapping
create_segment(int* fd)
{
    *fd = memfd_create("rococo-svc-ring", MFD_CLOEXEC | MFD_ALLOW_SEALING);
    if (*fd < 0) return {};
    SegmentMapping mapping;
    if (ftruncate(*fd, sizeof(Segment)) == 0 &&
        fcntl(*fd, F_ADD_SEALS, F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL) ==
            0) {
        mapping = map_segment(*fd);
    }
    if (!mapping) {
        close(*fd);
        *fd = -1;
        return {};
    }
    // The file is zero-filled, which is every index's initial value;
    // construct the atomics formally.
    new (mapping.get()) Segment;
    return mapping;
}

SegmentMapping
map_segment(int fd)
{
    struct stat st;
    if (fstat(fd, &st) != 0 ||
        static_cast<size_t>(st.st_size) != sizeof(Segment) ||
        (fcntl(fd, F_GET_SEALS) & F_SEAL_SHRINK) == 0) {
        return {};
    }
    void* at = mmap(nullptr, sizeof(Segment), PROT_READ | PROT_WRITE,
                    MAP_SHARED, fd, 0);
    if (at == MAP_FAILED) return {};
    return SegmentMapping(static_cast<Segment*>(at));
}

namespace {

/// Send @p size bytes on the stream socket @p sock in one message
/// carrying descriptor @p fd (SCM_RIGHTS). False unless all were sent.
bool
send_with_fd(int sock, const uint8_t* data, size_t size, int fd)
{
    iovec iov{const_cast<uint8_t*>(data), size};
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
    cmsg->cmsg_level = SOL_SOCKET;
    cmsg->cmsg_type = SCM_RIGHTS;
    cmsg->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(cmsg), &fd, sizeof(int));
    ssize_t n;
    do {
        n = sendmsg(sock, &msg, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    return n == static_cast<ssize_t>(size);
}

/// Receive exactly @p size bytes from the blocking stream socket
/// @p sock, and the descriptor that came with them (-1 if none) in
/// @p *fd. False on EOF, error or the socket's receive timeout.
bool
recv_with_fd(int sock, uint8_t* data, size_t size, int* fd)
{
    *fd = -1;
    iovec iov{data, size};
    alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    ssize_t n;
    do {
        n = recvmsg(sock, &msg, MSG_WAITALL | MSG_CMSG_CLOEXEC);
    } while (n < 0 && errno == EINTR);
    for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr;
         cmsg = CMSG_NXTHDR(&msg, cmsg)) {
        if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS &&
            cmsg->cmsg_len == CMSG_LEN(sizeof(int))) {
            std::memcpy(fd, CMSG_DATA(cmsg), sizeof(int));
        }
    }
    if (n == static_cast<ssize_t>(size)) return true;
    if (*fd >= 0) close(*fd);
    *fd = -1;
    return false;
}

} // namespace

SegmentMapping
request_segment(int sock)
{
    std::vector<uint8_t> frame;
    encode_control(frame, MsgType::kAttach);
    uint8_t reply[kFrameHeaderBytes];
    int fd = -1;
    // Bound the wait for the reply, for the handshake only: the
    // socket's own receive timeout is restored afterwards.
    timeval saved{};
    socklen_t saved_size = sizeof(saved);
    const timeval bound{
        static_cast<time_t>(kAttachTimeout.count() / 1000),
        static_cast<suseconds_t>(kAttachTimeout.count() % 1000 * 1000)};
    if (getsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &saved, &saved_size) != 0 ||
        setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &bound, sizeof(bound)) !=
            0) {
        return {};
    }
    const bool replied =
        send(sock, frame.data(), frame.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(frame.size()) &&
        recv_with_fd(sock, reply, sizeof(reply), &fd);
    setsockopt(sock, SOL_SOCKET, SO_RCVTIMEO, &saved, sizeof(saved));
    if (!replied) return {};
    FrameReader reader;
    reader.append(reply, sizeof(reply));
    const auto got = reader.next();
    SegmentMapping segment;
    if (got && got->type == MsgType::kAttachReply && got->size == 0 &&
        fd >= 0) {
        segment = map_segment(fd);
    }
    if (fd >= 0) close(fd);
    return segment;
}

SegmentMapping
grant_segment(int sock)
{
    int fd = -1;
    SegmentMapping segment = create_segment(&fd);
    if (!segment) return {};
    std::vector<uint8_t> reply;
    encode_control(reply, MsgType::kAttachReply);
    const bool sent = send_with_fd(sock, reply.data(), reply.size(), fd);
    close(fd);
    if (!sent) segment.reset();
    return segment;
}

void
ring_doorbell(int sock)
{
    const uint8_t byte = 0;
    [[maybe_unused]] ssize_t n =
        send(sock, &byte, 1, MSG_DONTWAIT | MSG_NOSIGNAL);
}

} // namespace rococo::svc
