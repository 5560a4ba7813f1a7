/// @file
/// Client side of the networked validation service: a
/// fpga::ValidationBackend whose engine lives in the server process
/// (svc/server.h), so many client processes share one sliding window.
/// RococoTm switches deployment shapes via config behind the same
/// validate() as the in-process backends.
///
/// Transport: the constructor connects to the server's socket and
/// attaches (wire.h kAttach): the server hands back a shared-memory
/// segment with two byte rings (svc/ring.h), requests one way and
/// responses the other. Every frame after that travels through the
/// rings; the socket only carries one-byte doorbells, sent when the
/// other side has parked, and EOF. A steady-state round trip makes no
/// syscall on either side. There is no socket fallback: a connection
/// that cannot attach, or gets no attach reply within kAttachTimeout,
/// counts as not connected.
///
/// Concurrency model: there is no reader thread. submit() and
/// validate() write the request into the ring under one mutex (frames
/// must not interleave) and park it in a completion slot keyed by
/// request id. A waiting caller takes the ring's "read role" if it is
/// free (held under the mutex, mirrored in an atomic): it reads the
/// response ring for up to kSpinBudget (common/spin_wait.h), then parks
/// on the socket (the ring's parked word, then ppoll()) until a
/// doorbell, EOF or its deadline, completing every slot in the frames
/// it decodes. When its own verdict lands or its deadline passes it
/// gives the role up and wakes every waiter still without a verdict;
/// the first to re-take the mutex leads. Other callers spin on their
/// slot's done flag or on the role coming free, then park on the slot's
/// cv. So a round trip wakes no client thread. The mutex is taken
/// spinning first (lock_spinning): its sections are far shorter than a
/// futex sleep and wake-up.
///
/// The request path is allocation-free in steady state: outstanding
/// requests live in a slab of reusable slots (the slot index is packed
/// into the low bits of the request id, so a response resolves its slot
/// in O(1) with no map), and the encode buffer and frame reader are
/// reused across calls. submit() still allocates a future's shared
/// state: the future is std::launch::deferred, and get() runs the same
/// wait without the spins (wait_for() reports deferred). Only
/// validate() spins: its caller is a transaction stalled on the
/// verdict, while a spinning get() in every pipelining client process
/// costs the tail once processes outnumber CPUs (docs/SERVICE.md). A
/// submit() made while others are outstanding and the role is free
/// reads what has arrived, so a pipelining caller drains responses as
/// it goes instead of piling them up against the server's outbound cap.
///
/// Failure contract: no caller ever sees a broken promise. Disconnect
/// or stop() resolves every outstanding request as Verdict::kRejected /
/// AbortReason::kBackpressure, and submit() on a dead client returns
/// an already-resolved rejected future. The server's stop() sets the
/// segment's closed word before it closes the socket, so a reader
/// still spinning on the ring sees the end at once; a parked one sees
/// EOF. A request whose address sets
/// exceed wire.h's kMaxAddresses is likewise resolved rejected locally
/// ("oversized") — sending it would make the server drop the connection
/// as malformed, taking every outstanding request down with it. A
/// validate() with a deadline ships the deadline on the wire (so the
/// server can drop the request from its queue) and, on local expiry,
/// recycles the slot at once — a late verdict then matches no slot's id
/// and is discarded. stop() shuts the socket down to wake a role holder
/// parked in the kernel, and closes the descriptor and unmaps the
/// segment only once the role has been dropped.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <vector>

#include "common/spin_wait.h"
#include "fpga/validation_backend.h"
#include "fpga/validation_engine.h"
#include "obs/registry.h"
#include "svc/ring.h"
#include "svc/wire.h"

namespace rococo::svc {

struct ClientConfig
{
    /// Unix-domain socket path of the server.
    std::string socket_path = "/tmp/rococo-validation.sock";
    /// Engine geometry the server was started with; only the signature
    /// fields matter client-side (CPU-side eager detection must hash
    /// like the server's Detector).
    fpga::EngineConfig engine;
};

class ValidationClient final : public fpga::ValidationBackend
{
  public:
    explicit ValidationClient(const ClientConfig& config = {});
    ~ValidationClient() override;

    /// True if the constructor's connect succeeded and no disconnect
    /// has been observed since.
    bool connected() const;

    /// Pipelined form of validate() for load generators: sends now and
    /// returns a deferred future (see the file comment) that never
    /// throws. A caller may keep any number outstanding, but each must
    /// be get()-ed before the client is destroyed, or its slot is never
    /// recycled.
    std::future<core::ValidationResult> submit(fpga::OffloadRequest request);

    core::ValidationResult validate(
        fpga::OffloadRequest request,
        fpga::Deadline deadline = fpga::kNoDeadline) override;

    /// Client-side counters: per-verdict counts as seen over the wire,
    /// "submitted", "timeout" (local deadline expiries), "rejected"
    /// (backpressure verdicts, disconnect and oversized resolutions),
    /// "oversized" (requests beyond kMaxAddresses, a subset of
    /// "rejected") and "doorbells" (request writes that found the
    /// server parked, and response reads that found it waiting for
    /// space).
    CounterBag stats() const override;

    /// Merge client metrics ("svc.client.*", including the
    /// svc.client.rpc_ns round-trip histogram and the client-observed
    /// per-stage breakdown svc.stage.{client_queue,wire,server_queue,
    /// batch_wait,engine,link} fed from the responses) into @p registry.
    /// client_queue and the wire residual are measured here; the server
    /// stages are the durations the server shipped back.
    void export_metrics(obs::Registry& registry) const override;

    std::shared_ptr<const sig::SignatureConfig> signature_config()
        const override;

    /// Close the connection; outstanding futures resolve as rejected.
    /// Idempotent.
    void stop() override;

  private:
    /// Low bits of a request id address the slot; high bits are a
    /// sequence number, so a late response for a recycled slot never
    /// matches the slot's current id.
    static constexpr unsigned kSlotBits = 20;
    static constexpr uint64_t kSlotMask = (uint64_t{1} << kSlotBits) - 1;

    /// A reusable outstanding-request slot (see the file comment). Each
    /// starts a cache line, so a waiter spinning on its done flag is not
    /// disturbed by the leader completing a neighbour.
    struct alignas(kCacheLine) Slot
    {
        enum class State : uint8_t
        {
            kFree,    ///< on the free list
            kWaiting, ///< sent; awaiting the server's response
            kDone,    ///< result ready; the waiter will release
        };

        State state = State::kFree;
        core::ValidationResult result;
        uint64_t id = 0;       ///< full request id of the current use
        uint64_t enter_ns = 0; ///< submit() entry (rpc_ns starts here)
        uint64_t sent_ns = 0;  ///< last frame byte handed to the kernel
        std::condition_variable cv; ///< kDone or the read role is free
        /// Mirrors state == kDone for the waiter's unlocked spin;
        /// written under mutex_ together with state.
        std::atomic<bool> done{false};
    };

    /// Acquire a slot, encode and send the request; requires mutex_.
    /// Returns nullptr when the request was rejected locally (closed,
    /// oversized, send failure) — the caller resolves it rejected.
    Slot* send_locked(fpga::OffloadRequest&& request, uint64_t deadline_ns,
                      uint64_t enter_ns);
    uint32_t acquire_index_locked();
    void release_slot_locked(Slot* slot);

    /// Wait for @p slot's verdict (taking the read role when it is
    /// free) and recycle the slot; past @p deadline, return a timeout.
    /// Only a @p spin wait spins before it parks or blocks in poll().
    core::ValidationResult await(
        std::unique_lock<std::mutex>& lock, Slot* slot,
        std::chrono::steady_clock::time_point deadline, bool spin);
    /// Hold the read role until @p slot is done, @p deadline passes or
    /// the stream dies, then hand it on. A null @p slot takes only what
    /// has already arrived.
    void lead(std::unique_lock<std::mutex>& lock, const Slot* slot,
              std::chrono::steady_clock::time_point deadline, bool spin);
    /// Read the response ring once; completes the slots of every frame
    /// it decodes. False once the stream is dead (server stopped,
    /// corrupt index, malformed frame).
    bool pump();
    /// Consume the doorbell bytes on the socket; false on EOF or error.
    bool drain_doorbells();
    /// The socket has not reached EOF or failed (does not consume).
    bool peer_open() const;
    void complete_locked(const WireResponse& response);

    /// Resolve every outstanding request as rejected (on disconnect and
    /// from stop()); requires mutex_.
    void fail_outstanding_locked();

    ClientConfig config_;
    std::shared_ptr<const sig::SignatureConfig> sig_config_;

    mutable std::mutex mutex_; ///< ring writes + slab/free list + seq
    int fd_ = -1;
    SegmentMapping segment_;
    RingWriter requests_;  ///< under mutex_
    RingReader responses_; ///< role holder only
    bool closed_ = false;
    /// The read role; written under mutex_, read unlocked by spinners.
    /// Starts a cache line, away from the mutex that every call takes.
    alignas(kCacheLine) std::atomic<bool> reading_{false};
    unsigned waiters_ = 0; ///< callers spinning or parked in await()
    std::condition_variable role_freed_; ///< stop() waits for the role
    FrameReader inbox_; ///< role holder only
    uint64_t next_seq_ = 1;
    std::deque<Slot> slab_;       ///< all slots ever created
    std::vector<uint32_t> free_;  ///< recycled slot indices
    std::vector<uint8_t> frame_;  ///< reused encode buffer

    obs::Registry registry_; ///< svc.client.* metrics

    /// Metric handles hoisted out of the request and response paths:
    /// Registry lookup takes a mutex and builds a name string; the
    /// references stay valid for the registry's lifetime.
    obs::Counter& submitted_;
    obs::Counter& oversized_;
    obs::Counter& rejected_;
    obs::Counter& timeout_;
    obs::Counter& late_;
    obs::Counter& doorbells_; ///< doorbells sent to the server
    /// Wire verdicts carrying abort provenance (a non-sentinel
    /// conflict_cid in a response).
    obs::Counter& conflict_attributed_;
    obs::Counter* verdict_[core::kVerdictCount];
    obs::LatencyHistogram& rpc_ns_;
    obs::LatencyHistogram& stage_client_queue_;
    obs::LatencyHistogram& stage_wire_;
    obs::LatencyHistogram& stage_server_queue_;
    obs::LatencyHistogram& stage_batch_wait_;
    obs::LatencyHistogram& stage_engine_;
    obs::LatencyHistogram& stage_link_;
};

} // namespace rococo::svc
