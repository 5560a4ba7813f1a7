#include "svc/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

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
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        close(fd);
        closed_ = true;
        return;
    }
    fd_ = fd;
    reader_ = std::thread([this] { reader_loop(); });
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
    slot->promised = false;
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
    // submitters must not interleave on the stream. The socket is
    // blocking, so a full send buffer throttles submitters here — the
    // transport-level half of the backpressure story.
    size_t off = 0;
    while (off < frame_.size()) {
        const ssize_t n = send(fd_, frame_.data() + off,
                               frame_.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
            release_slot_locked(slot);
            closed_ = true;
            rejected_.add(1);
            return nullptr;
        }
        off += static_cast<size_t>(n);
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
    std::lock_guard<std::mutex> lock(mutex_);
    Slot* slot = send_locked(std::move(request), 0, enter_ns);
    if (slot == nullptr) return resolved(rejected_result());
    slot->promised = true;
    slot->promise = std::promise<core::ValidationResult>{};
    return slot->promise.get_future();
}

core::ValidationResult
ValidationClient::validate(fpga::OffloadRequest request)
{
    const uint64_t enter_ns = obs::now_ns();
    std::unique_lock<std::mutex> lock(mutex_);
    Slot* slot = send_locked(std::move(request), 0, enter_ns);
    if (slot == nullptr) return rejected_result();
    spin_then_wait(lock, slot->cv, [slot] {
        return slot->done.load(std::memory_order_acquire);
    });
    const core::ValidationResult result = slot->result;
    release_slot_locked(slot);
    return result;
}

core::ValidationResult
ValidationClient::validate(fpga::OffloadRequest request,
                           std::chrono::nanoseconds timeout)
{
    const uint64_t enter_ns = obs::now_ns();
    const uint64_t deadline_ns =
        static_cast<uint64_t>(std::max<int64_t>(timeout.count(), 1));
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    std::unique_lock<std::mutex> lock(mutex_);
    Slot* slot = send_locked(std::move(request), deadline_ns, enter_ns);
    if (slot == nullptr) return rejected_result();
    if (!spin_then_wait_until(lock, slot->cv, deadline, [slot] {
            return slot->done.load(std::memory_order_acquire);
        }) &&
        slot->state != Slot::State::kDone) {
        // Abandon the slot so the reader discards (and recycles) the
        // late verdict. A verdict that landed by the time the lock was
        // re-taken wins.
        slot->state = Slot::State::kAbandoned;
        timeout_.add(1);
        return {core::Verdict::kTimeout, 0, obs::AbortReason::kTimeout};
    }
    const core::ValidationResult result = slot->result;
    release_slot_locked(slot);
    return result;
}

void
ValidationClient::reader_loop()
{
    FrameReader reader;
    uint8_t buf[64 * 1024];
    for (;;) {
        const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break; // EOF / error / shutdown()
        reader.append(buf, static_cast<size_t>(n));
        bool malformed = false;
        while (auto frame = reader.next(&malformed)) {
            auto response = decode_response(frame->type, frame->payload,
                                            frame->size);
            if (!response) continue;
            const size_t index = response->request_id & kSlotMask;
            std::unique_lock<std::mutex> lock(mutex_);
            if (index >= slab_.size()) {
                late_.add(1);
                continue;
            }
            Slot* slot = &slab_[index];
            if (slot->state == Slot::State::kFree ||
                slot->id != response->request_id) {
                // Stale response for a recycled or unknown slot.
                late_.add(1);
                continue;
            }
            if (slot->state == Slot::State::kAbandoned) {
                // Caller already timed out locally; drop the verdict.
                release_slot_locked(slot);
                late_.add(1);
                continue;
            }
            const uint64_t enter_ns = slot->enter_ns;
            const uint64_t sent_ns = slot->sent_ns;
            // Record metrics before the waiter can observe the verdict:
            // the moment the last validate() returns, the caller may
            // export_metrics(), and every answered request must already
            // be in the histograms. The instruments are atomic, so the
            // extra work under the mutex is a few counter bumps.
            verdict_[static_cast<size_t>(response->result.verdict)]->add(1);
            if (response->result.conflict_cid != core::kNoConflictCid) {
                // Abort provenance arrived over the wire: the verdict
                // names the committed cid it collided with.
                conflict_attributed_.add(1);
            }
            const uint64_t rtt_ns = obs::now_ns() - enter_ns;
            rpc_ns_.record(rtt_ns);
            // Stage attribution: client_queue is measured here,
            // server stages travel in the response, and wire is the
            // residual — so the stage means sum to the measured
            // round trip by construction (link is modeled, never
            // part of the sum).
            const StageTimestamps& s = response->stages;
            const uint64_t client_queue_ns = sent_ns - enter_ns;
            const uint64_t server_ns = s.server_queue_ns +
                                       s.batch_wait_ns + s.engine_ns;
            const uint64_t wire_ns =
                rtt_ns > client_queue_ns + server_ns
                    ? rtt_ns - client_queue_ns - server_ns
                    : 0;
            stage_client_queue_.record(client_queue_ns);
            stage_wire_.record(wire_ns);
            stage_server_queue_.record(s.server_queue_ns);
            stage_batch_wait_.record(s.batch_wait_ns);
            stage_engine_.record(s.engine_ns);
            stage_link_.record(s.link_ns);
            bool promised = false;
            std::promise<core::ValidationResult> promise;
            if (slot->promised) {
                promised = true;
                promise = std::move(slot->promise);
                release_slot_locked(slot);
            } else {
                slot->result = response->result;
                slot->state = Slot::State::kDone;
                slot->done.store(true, std::memory_order_release);
                slot->cv.notify_one();
            }
            lock.unlock();
            if (promised) promise.set_value(response->result);
        }
        if (malformed) break; // server speaking garbage: disconnect
    }
    fail_outstanding();
}

void
ValidationClient::fail_outstanding()
{
    std::vector<std::promise<core::ValidationResult>> orphans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        for (Slot& slot : slab_) {
            if (slot.state == Slot::State::kWaiting) {
                rejected_.add(1);
                if (slot.promised) {
                    orphans.push_back(std::move(slot.promise));
                    release_slot_locked(&slot);
                } else {
                    slot.result = rejected_result();
                    slot.state = Slot::State::kDone;
                    slot.done.store(true, std::memory_order_release);
                    slot.cv.notify_one();
                }
            } else if (slot.state == Slot::State::kAbandoned) {
                release_slot_locked(&slot);
            }
        }
    }
    for (auto& promise : orphans) {
        promise.set_value(rejected_result());
    }
}

void
ValidationClient::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        // Wake the reader; fd stays open until the reader has exited so
        // the descriptor cannot be recycled under it.
        if (fd_ >= 0) shutdown(fd_, SHUT_RDWR);
    }
    if (reader_.joinable()) reader_.join();
    fail_outstanding();
    if (fd_ >= 0) {
        close(fd_);
        fd_ = -1;
    }
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
