/// @file
/// Client side of the networked validation service: a
/// fpga::ValidationBackend whose engine lives in the server process
/// (svc/server.h), so many client processes share one sliding window —
/// exactly the API the in-process ValidationPipeline offers, which is
/// what lets RococoTm switch deployment shapes via config.
///
/// Concurrency model: submit() encodes and sends the request under one
/// mutex (writes to a SOCK_STREAM socket must not interleave) and parks
/// the request in a completion slot keyed by request id; a reader
/// thread decodes responses and resolves slots in arrival order. Many
/// TM threads can be in submit()/validate() at once — the service
/// batches whatever they have in flight.
///
/// The request path is allocation-free in steady state: outstanding
/// requests live in a slab of reusable slots (the slot index is packed
/// into the low bits of the request id, so the reader resolves a
/// response in O(1) with no map), the encode buffer is reused across
/// calls, and synchronous validate() waits on the slot's condition
/// variable instead of a heap-allocated promise. submit() still hands
/// out a std::future (allocating its shared state). That wait spins
/// briefly on the slot's atomic done flag before parking
/// (common/spin_wait.h), so a verdict that arrives within the spin
/// budget costs no futex wake-up of the waiting thread.
///
/// Failure contract (mirrors ValidationPipeline): no caller ever sees a
/// broken promise. Disconnect or stop() resolves every outstanding
/// future as Verdict::kRejected / AbortReason::kBackpressure, and
/// submit() on a dead client returns an already-resolved rejected
/// future. A request whose address sets exceed wire.h's kMaxAddresses
/// is likewise resolved rejected locally ("oversized") — sending it
/// would make the server drop the connection as malformed, taking every
/// outstanding request down with it. validate(timeout) additionally
/// ships the deadline on the wire (so the server can drop the request
/// from its queue) and, on local expiry, abandons the slot — a late
/// verdict is then discarded by the reader.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fpga/validation_backend.h"
#include "fpga/validation_engine.h"
#include "obs/registry.h"
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

    std::future<core::ValidationResult> submit(
        fpga::OffloadRequest request) override;

    core::ValidationResult validate(fpga::OffloadRequest request) override;

    core::ValidationResult validate(
        fpga::OffloadRequest request,
        std::chrono::nanoseconds timeout) override;

    /// Client-side counters: per-verdict counts as seen over the wire,
    /// "submitted", "timeout" (local deadline expiries), "rejected"
    /// (backpressure verdicts, disconnect and oversized resolutions)
    /// and "oversized" (requests beyond kMaxAddresses, a subset of
    /// "rejected").
    CounterBag stats() const override;

    /// Merge client metrics ("svc.client.*", including the
    /// svc.client.rpc_ns round-trip histogram and the client-observed
    /// per-stage breakdown svc.stage.{client_queue,wire,server_queue,
    /// batch_wait,engine,link} fed from v2 responses) into @p registry.
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

    /// A reusable outstanding-request slot (see the file comment).
    struct Slot
    {
        enum class State : uint8_t
        {
            kFree,      ///< on the free list
            kWaiting,   ///< sent; awaiting the server's response
            kDone,      ///< result ready; sync waiter will release
            kAbandoned, ///< sync waiter timed out; reader releases
        };

        State state = State::kFree;
        /// True when a future was handed out (submit() path): the
        /// reader resolves the promise and releases the slot itself.
        bool promised = false;
        std::promise<core::ValidationResult> promise;
        core::ValidationResult result;
        uint64_t id = 0;       ///< full request id of the current use
        uint64_t enter_ns = 0; ///< submit() entry (rpc_ns starts here)
        uint64_t sent_ns = 0;  ///< last frame byte handed to the kernel
        std::condition_variable cv; ///< signals kDone to a sync waiter
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

    void reader_loop();

    /// Resolve every outstanding request as rejected (called on
    /// disconnect and from stop()).
    void fail_outstanding();

    ClientConfig config_;
    std::shared_ptr<const sig::SignatureConfig> sig_config_;

    mutable std::mutex mutex_; ///< socket writes + slab/free list + seq
    int fd_ = -1;
    bool closed_ = false;
    uint64_t next_seq_ = 1;
    std::deque<Slot> slab_;       ///< all slots ever created
    std::vector<uint32_t> free_;  ///< recycled slot indices
    std::vector<uint8_t> frame_;  ///< reused encode buffer

    std::thread reader_;
    obs::Registry registry_; ///< svc.client.* metrics

    /// Metric handles hoisted out of the request path and reader loop:
    /// Registry lookup takes a mutex and builds a name string; the
    /// references stay valid for the registry's lifetime.
    obs::Counter& submitted_;
    obs::Counter& oversized_;
    obs::Counter& rejected_;
    obs::Counter& timeout_;
    obs::Counter& late_;
    /// Wire verdicts carrying abort provenance (a non-sentinel
    /// conflict_cid in a v2 response).
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
