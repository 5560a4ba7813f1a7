#include "svc/client.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <thread>

#include "common/check.h"
#include "common/spin_wait.h"
#include "obs/clock.h"
#include "obs/tracer.h"

namespace rococo::svc {
namespace {

#if ROCOCO_TRACE_ENABLED
/// Trace ids must be unique across every client object of every process
/// feeding one merged trace: high bits are the pid, low bits a
/// process-wide sequence (never 0 — 0 means "no trace context").
uint64_t
next_trace_id()
{
    static std::atomic<uint64_t> sequence{0};
    const uint64_t seq = sequence.fetch_add(1, std::memory_order_relaxed) + 1;
    return (static_cast<uint64_t>(getpid()) << 40) | (seq & 0xFFFFFFFFFF);
}
#endif

using Clock = std::chrono::steady_clock;
using fpga::kNoDeadline;

/// lock.lock(), but spinning on try_lock() for up to kSpinBudget first:
/// the client mutex is held only for short sections, far shorter than
/// the futex sleep and wake-up that contention on it would otherwise
/// cost.
void
lock_spinning(std::unique_lock<std::mutex>& lock)
{
    if (!spin_until([&] { return lock.try_lock(); })) lock.lock();
}

core::ValidationResult
rejected_result()
{
    return {core::Verdict::kRejected, 0, obs::AbortReason::kBackpressure};
}

std::future<core::ValidationResult>
resolved(const core::ValidationResult& result)
{
    std::promise<core::ValidationResult> promise;
    promise.set_value(result);
    return promise.get_future();
}

} // namespace

ValidationClient::ValidationClient(const ClientConfig& config)
    : config_(config),
      sig_config_(std::make_shared<const sig::SignatureConfig>(
          config.engine.signature_bits, config.engine.signature_hashes,
          config.engine.hash_seed)),
      submitted_(registry_.counter("svc.client.submitted")),
      oversized_(registry_.counter("svc.client.oversized")),
      rejected_(registry_.counter("svc.client.rejected")),
      timeout_(registry_.counter("svc.client.timeout")),
      late_(registry_.counter("svc.client.late")),
      doorbells_(registry_.counter("svc.client.doorbells")),
      conflict_attributed_(
          registry_.counter("svc.client.conflict.attributed")),
      rpc_ns_(registry_.histogram("svc.client.rpc_ns")),
      stage_client_queue_(registry_.histogram("svc.stage.client_queue")),
      stage_wire_(registry_.histogram("svc.stage.wire")),
      stage_server_queue_(registry_.histogram("svc.stage.server_queue")),
      stage_batch_wait_(registry_.histogram("svc.stage.batch_wait")),
      stage_engine_(registry_.histogram("svc.stage.engine")),
      stage_link_(registry_.histogram("svc.stage.link"))
{
    for (size_t i = 0; i < core::kVerdictCount; ++i) {
        verdict_[i] = &registry_.counter(
            std::string("svc.client.verdict.") +
            core::to_string(static_cast<core::Verdict>(i)));
    }
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        closed_ = true;
        return;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
        close(fd);
        closed_ = true;
        return;
    }
    std::strncpy(addr.sun_path, config_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        !(segment_ = request_segment(fd))) {
        close(fd);
        closed_ = true;
        return;
    }
    fd_ = fd;
    requests_ = RingWriter(&segment_->to_server, segment_->to_server_bytes);
    responses_ = RingReader(&segment_->to_client, segment_->to_client_bytes);
}

ValidationClient::~ValidationClient()
{
    stop();
}

bool
ValidationClient::connected() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return !closed_;
}

uint32_t
ValidationClient::acquire_index_locked()
{
    if (!free_.empty()) {
        const uint32_t index = free_.back();
        free_.pop_back();
        return index;
    }
    ROCOCO_CHECK(slab_.size() < (size_t{1} << kSlotBits));
    slab_.emplace_back();
    return static_cast<uint32_t>(slab_.size() - 1);
}

void
ValidationClient::release_slot_locked(Slot* slot)
{
    slot->state = Slot::State::kFree;
    slot->done.store(false, std::memory_order_relaxed);
    // Every acquired slot had its id assigned in send_locked() before
    // any release path can run, so the id's low bits are the index.
    free_.push_back(static_cast<uint32_t>(slot->id & kSlotMask));
}

ValidationClient::Slot*
ValidationClient::send_locked(fpga::OffloadRequest&& request,
                              uint64_t deadline_ns, uint64_t enter_ns)
{
    submitted_.add(1);
    if (request.reads.size() > kMaxAddresses ||
        request.writes.size() > kMaxAddresses) {
        // The server's decoder would treat the frame as malformed and
        // drop the whole connection; reject the one oversized request
        // locally instead of poisoning every outstanding one.
        oversized_.add(1);
        rejected_.add(1);
        return nullptr;
    }
    if (closed_) {
        rejected_.add(1);
        return nullptr;
    }
    const uint32_t index = acquire_index_locked();
    Slot* slot = &slab_[index];
    const uint64_t id = (next_seq_++ << kSlotBits) | index;
    uint64_t trace_id = 0;
#if ROCOCO_TRACE_ENABLED
    if (obs::Tracer::instance().active()) trace_id = next_trace_id();
#endif
    frame_.clear();
    encode_request(frame_,
                   {id, deadline_ns, trace_id, trace_id,
                    std::move(request)});

    slot->state = Slot::State::kWaiting;
    slot->id = id;
    slot->enter_ns = enter_ns;
    // Stamp before the first byte leaves: the client_queue stage must
    // end before the server can possibly start its stages, or the
    // per-stage durations overlap and their sum exceeds the measured
    // round trip. Time spent blocked in send() lands in the wire
    // residual instead.
    const uint64_t sent_ns = obs::now_ns();
    slot->sent_ns = sent_ns;

    // Write the whole frame under the lock: frames from concurrent
    // submitters must not interleave on the ring. A full ring throttles
    // submitters here — the transport-level half of the backpressure
    // story. The server drains every ring on each pass, so a submitter
    // spins for space, and past the spin budget checks that the server
    // still lives before it yields.
    size_t off = 0;
    while (off < frame_.size()) {
        ssize_t n = 0;
        const auto wrote = [&] {
            n = requests_.write(frame_.data() + off, frame_.size() - off);
            return n != 0 ||
                   segment_->closed.load(std::memory_order_relaxed) != 0;
        };
        while (!wrote() && !spin_until(wrote) && peer_open()) {
            std::this_thread::yield();
        }
        if (n <= 0) {
            release_slot_locked(slot);
            closed_ = true;
            rejected_.add(1);
            return nullptr;
        }
        off += static_cast<size_t>(n);
        if (requests_.consumer_parked()) {
            ring_doorbell(fd_);
            doorbells_.add(1);
        }
    }
#if ROCOCO_TRACE_ENABLED
    if (trace_id != 0) {
        // The local half of the distributed trace: the span the server
        // span will point back at, and the flow-start event the arrow
        // leaves from. (cat, name, id) must match the server's flow-end.
        obs::TraceEvent span;
        span.name = "svc.rpc";
        span.cat = "svc";
        span.arg_name = "trace_id";
        span.arg_value = trace_id;
        span.ts_ns = enter_ns;
        span.dur_ns = sent_ns - enter_ns;
        span.phase = obs::EventPhase::kComplete;
        obs::Tracer::instance().record(span);
        obs::Tracer::instance().flow(obs::EventPhase::kFlowStart, "svc",
                                     "svc.validate_flow", trace_id,
                                     enter_ns + (sent_ns - enter_ns) / 2);
    }
#endif
    return slot;
}

std::future<core::ValidationResult>
ValidationClient::submit(fpga::OffloadRequest request)
{
    // client_queue starts before the lock: contention on the socket
    // mutex between concurrent submitters is exactly what that stage is
    // supposed to show.
    const uint64_t enter_ns = obs::now_ns();
    std::unique_lock<std::mutex> lock(mutex_);
    Slot* slot = send_locked(std::move(request), 0, enter_ns);
    if (slot == nullptr) return resolved(rejected_result());
    // Nothing reads the socket until some caller waits. A pipelining
    // caller that keeps submitting would let responses pile up until the
    // server's outbound cap drops the connection, so while others are
    // outstanding and the role is free, take what has arrived.
    if (slab_.size() - free_.size() > 1 &&
        !reading_.load(std::memory_order_relaxed) && !closed_) {
        lead(lock, nullptr, kNoDeadline, false);
    }
    return std::async(std::launch::deferred, [this, slot] {
        std::unique_lock<std::mutex> wait_lock(mutex_);
        return await(wait_lock, slot, kNoDeadline, false);
    });
}

core::ValidationResult
ValidationClient::validate(fpga::OffloadRequest request,
                           fpga::Deadline deadline)
{
    const uint64_t enter_ns = obs::now_ns();
    // The wire carries the time left, at least 1 ns; 0 means none.
    uint64_t deadline_ns = 0;
    if (deadline != kNoDeadline) {
        deadline_ns = static_cast<uint64_t>(std::max<int64_t>(
            std::chrono::nanoseconds(deadline - Clock::now()).count(), 1));
    }
    std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
    lock_spinning(lock);
    Slot* slot = send_locked(std::move(request), deadline_ns, enter_ns);
    if (slot == nullptr) return rejected_result();
    return await(lock, slot, deadline, true);
}

core::ValidationResult
ValidationClient::await(std::unique_lock<std::mutex>& lock, Slot* slot,
                        Clock::time_point deadline, bool spin)
{
    const auto landed = [slot] {
        return slot->done.load(std::memory_order_acquire);
    };
    const auto ready = [&] {
        return landed() || !reading_.load(std::memory_order_acquire);
    };
    for (;;) {
        if (landed()) {
            const core::ValidationResult result = slot->result;
            release_slot_locked(slot);
            return result;
        }
        if (Clock::now() >= deadline) {
            // Recycle the slot now: its id changes with the next use,
            // so a late verdict matches nothing and is discarded.
            release_slot_locked(slot);
            timeout_.add(1);
            return {core::Verdict::kTimeout, 0, obs::AbortReason::kTimeout};
        }
        if (reading_.load(std::memory_order_relaxed)) {
            ++waiters_;
            if (!spin) {
                slot->cv.wait(lock, ready);
            } else if (deadline == kNoDeadline) {
                spin_then_wait(lock, slot->cv, ready);
            } else {
                spin_then_wait_until(lock, slot->cv, deadline, ready);
            }
            --waiters_;
        } else if (closed_) {
            fail_outstanding_locked(); // nobody will read the stream again
        } else {
            lead(lock, slot, deadline, spin);
        }
    }
}

void
ValidationClient::lead(std::unique_lock<std::mutex>& lock, const Slot* slot,
                       Clock::time_point deadline, bool spin)
{
    reading_.store(true, std::memory_order_relaxed);
    lock.unlock();
    const auto landed = [slot] {
        return slot == nullptr || slot->done.load(std::memory_order_acquire);
    };
    // Spin on the ring first: a verdict due within the budget then
    // costs no sleep in the kernel and no wake-up. Without the spin,
    // take what has already arrived.
    bool alive = true;
    const auto pumped = [&] { return !(alive = pump()) || landed(); };
    if (spin) {
        spin_until(pumped, deadline);
    } else {
        pumped();
    }
    // Then park on the socket: the server rings the doorbell when it
    // writes to a parked ring, and its EOF ends the wait as well.
    while (alive && !landed()) {
        timespec limit{};
        if (deadline != kNoDeadline) {
            const int64_t left = std::chrono::duration_cast<
                std::chrono::nanoseconds>(deadline - Clock::now()).count();
            if (left <= 0) break;
            limit = {time_t(left / 1'000'000'000), long(left % 1'000'000'000)};
        }
        if (!responses_.park()) {
            alive = pump();
            continue;
        }
        pollfd pfd{fd_, POLLIN, 0};
        const int ready =
            ppoll(&pfd, 1, deadline == kNoDeadline ? nullptr : &limit, nullptr);
        responses_.unpark();
        if (ready == 0) break; // deadline
        if (ready < 0) {
            alive = errno == EINTR;
            continue;
        }
        const bool open = drain_doorbells();
        alive = pump() && open; // what came before an EOF still counts
    }
    lock_spinning(lock);
    reading_.store(false, std::memory_order_release);
    if (!alive) fail_outstanding_locked();
    // Wake every waiter whose verdict is still out: the first to re-take
    // the lock takes the role and the rest wait again. Waking only one
    // could pick a timed waiter that then leaves with the role unowned.
    if (waiters_ > 0) {
        for (Slot& other : slab_) {
            if (other.state == Slot::State::kWaiting) other.cv.notify_one();
        }
    }
    role_freed_.notify_all();
}

bool
ValidationClient::pump()
{
    // Read the closed word first: every response the server wrote
    // before it stopped is then in the ring and completes below.
    const bool closed =
        segment_->closed.load(std::memory_order_acquire) != 0;
    const ssize_t n = responses_.read([this](const uint8_t* p, size_t size) {
        inbox_.append(p, size);
    });
    if (n < 0) return false; // impossible head: the server is corrupt
    if (n == 0) return !closed;
    if (responses_.producer_waiting()) {
        ring_doorbell(fd_); // the server sleeps on a full response ring
        doorbells_.add(1);
    }
    bool malformed = false;
    std::unique_lock<std::mutex> lock(mutex_, std::defer_lock);
    lock_spinning(lock);
    while (auto frame = inbox_.next(&malformed)) {
        auto response =
            decode_response(frame->type, frame->payload, frame->size);
        if (response) complete_locked(*response);
    }
    return !malformed && !closed; // server speaking garbage: disconnect
}

bool
ValidationClient::drain_doorbells()
{
    uint8_t buf[64];
    for (;;) {
        const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) continue;
        if (n == 0) return false; // EOF / shutdown()
        return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    }
}

bool
ValidationClient::peer_open() const
{
    uint8_t byte;
    const ssize_t n = recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
    return n > 0 || (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                               errno == EINTR));
}

void
ValidationClient::complete_locked(const WireResponse& response)
{
    const size_t index = response.request_id & kSlotMask;
    Slot* slot = index < slab_.size() ? &slab_[index] : nullptr;
    if (slot == nullptr || slot->id != response.request_id ||
        slot->state != Slot::State::kWaiting) {
        // Stale response for a recycled or unknown slot (its caller
        // timed out locally): drop the verdict.
        late_.add(1);
        return;
    }
    // Record metrics before the waiter can observe the verdict: the
    // moment the last validate() returns, the caller may
    // export_metrics(), and every answered request must already be in
    // the histograms.
    verdict_[static_cast<size_t>(response.result.verdict)]->add(1);
    if (response.result.conflict_cid != core::kNoConflictCid) {
        // Abort provenance arrived over the wire: the verdict names the
        // committed cid it collided with.
        conflict_attributed_.add(1);
    }
    const uint64_t rtt_ns = obs::now_ns() - slot->enter_ns;
    rpc_ns_.record(rtt_ns);
    // Stage attribution: client_queue is measured here, server stages
    // travel in the response, and wire is the residual — so the stage
    // means sum to the measured round trip by construction (link is
    // modeled, never part of the sum).
    const StageTimestamps& s = response.stages;
    const uint64_t client_queue_ns = slot->sent_ns - slot->enter_ns;
    const uint64_t server_ns =
        s.server_queue_ns + s.batch_wait_ns + s.engine_ns;
    const uint64_t wire_ns = rtt_ns > client_queue_ns + server_ns
                                 ? rtt_ns - client_queue_ns - server_ns
                                 : 0;
    stage_client_queue_.record(client_queue_ns);
    stage_wire_.record(wire_ns);
    stage_server_queue_.record(s.server_queue_ns);
    stage_batch_wait_.record(s.batch_wait_ns);
    stage_engine_.record(s.engine_ns);
    stage_link_.record(s.link_ns);
    slot->result = response.result;
    slot->state = Slot::State::kDone;
    slot->done.store(true, std::memory_order_release);
    slot->cv.notify_one();
}

void
ValidationClient::fail_outstanding_locked()
{
    closed_ = true;
    for (Slot& slot : slab_) {
        if (slot.state == Slot::State::kWaiting) {
            rejected_.add(1);
            slot.result = rejected_result();
            slot.state = Slot::State::kDone;
            slot.done.store(true, std::memory_order_release);
            slot.cv.notify_one();
        }
    }
}

void
ValidationClient::stop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    closed_ = true;
    if (fd_ < 0) return;
    // Wake a role holder blocked in poll(); the descriptor stays open
    // until it has let go, so the number cannot be recycled under it.
    shutdown(fd_, SHUT_RDWR);
    role_freed_.wait(lock, [this] {
        return !reading_.load(std::memory_order_relaxed);
    });
    fail_outstanding_locked();
    close(fd_);
    fd_ = -1;
    segment_.reset();
}

CounterBag
ValidationClient::stats() const
{
    // Same bare keys as ValidationPipeline::stats() so callers can swap
    // backends without re-learning counter names.
    static constexpr char kPrefix[] = "svc.client.";
    CounterBag bag;
    const CounterBag raw = registry_.to_counter_bag();
    for (const auto& [name, value] : raw.counters()) {
        if (name.rfind(kPrefix, 0) != 0) continue;
        std::string key = name.substr(sizeof(kPrefix) - 1);
        if (key.rfind("verdict.", 0) == 0) key = key.substr(8);
        bag.bump(key, value);
    }
    return bag;
}

void
ValidationClient::export_metrics(obs::Registry& registry) const
{
    registry.merge(registry_);
}

std::shared_ptr<const sig::SignatureConfig>
ValidationClient::signature_config() const
{
    return sig_config_;
}

} // namespace rococo::svc
