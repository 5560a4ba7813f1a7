/// @file
/// Real-thread validation pipeline: the software stand-in for the FPGA
/// in the live ROCoCoTM runtime.
///
/// A dedicated worker thread owns a ValidationEngine and drains the
/// pull queue in arrival order, exactly like the hardware pipeline
/// drains cachelines (Fig. 6 (b)). Executing threads submit requests
/// and block on the verdict. Unlike the hardware, the worker shares the
/// CPU with the executors, so its *throughput* is not representative —
/// the paper-shaped timing figures come from the discrete-event
/// simulator (src/sim); this class provides the *functional* offload
/// for the real runtime and its tests.
///
/// The request path is allocation-free in steady state: requests live
/// in a slab of reusable completion slots (never freed, recycled
/// through a free list), the queue is a ring of slot pointers, and
/// synchronous validate() waits on the slot's own condition variable —
/// no per-request promise/shared-state heap churn. submit() still
/// hands out a std::future (allocating its shared state); callers on
/// the hot path should prefer validate().
///
/// Both blocking points of a round trip — the idle worker waiting for
/// a request and the caller waiting for its verdict — spin briefly on
/// an atomic flag before parking on their condition variable
/// (common/spin_wait.h), so a verdict that lands within the spin budget
/// costs no futex wake-up of a sleeping thread.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/spin_wait.h"
#include "core/sliding_window.h"
#include "fpga/validation_backend.h"
#include "fpga/validation_engine.h"
#include "obs/registry.h"

namespace rococo::fpga {

class ValidationPipeline final : public ValidationBackend
{
  public:
    explicit ValidationPipeline(const EngineConfig& config = {});
    ~ValidationPipeline() override;

    ValidationPipeline(const ValidationPipeline&) = delete;
    ValidationPipeline& operator=(const ValidationPipeline&) = delete;

    /// Enqueue a request; the future resolves when the engine has
    /// decided — or, if the pipeline is stopped first, with a
    /// Verdict::kRejected / kBackpressure result. Never a broken
    /// promise.
    std::future<core::ValidationResult> submit(
        OffloadRequest request) override;

    /// submit() + wait, minus the future: the caller blocks on the
    /// completion slot directly, so the steady-state round trip
    /// performs no heap allocation.
    core::ValidationResult validate(OffloadRequest request) override;

    /// submit() + wait at most @p timeout. On expiry the caller gets a
    /// Verdict::kTimeout result with obs::AbortReason::kTimeout and the
    /// "timeout" counter is bumped; the worker may still reach the
    /// request later, and its verdict is then discarded. NOTE the
    /// window-consistency caveat: a discarded *commit* verdict still
    /// occupied a cid in the engine window, so callers that time out
    /// must abort the transaction (never half-commit) — which is
    /// exactly what the TM retry loop does.
    core::ValidationResult validate(
        OffloadRequest request, std::chrono::nanoseconds timeout) override;

    /// Snapshot of the pipeline's counters (thread-safe): the verdict
    /// counters ("commit" / "abort-cycle" / "window-overflow"), the
    /// number of requests accepted ("submitted"), requests aborted by
    /// stop() before the engine saw them ("shutdown_aborts"), caller
    /// deadline expiries ("timeout"), and the queue's observed
    /// high-water mark ("queue_high_water") — the back-pressure the
    /// paper avoids by keeping the pipeline free of stalls (§5.1).
    ///
    /// Consistency guarantee: every field is written and read under one
    /// mutex, so a snapshot is internally consistent — the verdict
    /// counters never exceed "submitted" (the difference is requests
    /// still in flight), and "queue_high_water" covers at least every
    /// submission the counters include. (Previously the verdict
    /// counters and the high-water mark were read under different
    /// synchronization, so a concurrent reader could see a high-water
    /// mark from a later submission batch than the verdicts.)
    CounterBag stats() const override;

    /// Export pipeline metrics into @p registry: verdict counters
    /// ("fpga.verdict.<verdict>"), "fpga.submitted", "fpga.busy_ns",
    /// and occupancy gauges ("fpga.queue_high_water",
    /// "fpga.window_occupancy"). While a TelemetrySession is active the
    /// worker additionally feeds per-stage histograms into the global
    /// registry — fpga.stage.{queue,engine,link} — the local-backend
    /// mirror of the service's svc.stage.* breakdown, so local vs.
    /// remote validation cost decompose on the same axes (link is the
    /// modeled CCI round trip in both).
    void export_metrics(obs::Registry& registry) const override;

    /// Signature geometry shared with CPU-side eager detection.
    std::shared_ptr<const sig::SignatureConfig> signature_config()
        const override;

    /// Stop the worker. Requests still queued are NOT drained through
    /// the engine: their futures resolve immediately with
    /// Verdict::kRejected / obs::AbortReason::kBackpressure, so no
    /// waiter ever sees a broken promise and destruction is prompt even
    /// under a backlog. Idempotent.
    void stop() override;

  private:
    /// A reusable completion slot. Slots live in slab_ (a deque, so
    /// addresses are stable), are handed out through free_ and recycled
    /// forever — the steady-state request path never allocates. Each
    /// slot starts a cache line, so no two slots share one.
    struct alignas(kCacheLine) Slot
    {
        enum class State : uint8_t
        {
            kFree,      ///< on the free list
            kQueued,    ///< in the ring, awaiting the worker
            kDone,      ///< result ready; sync waiter will release
            kAbandoned, ///< sync waiter timed out; worker releases
        };

        OffloadRequest request;
        core::ValidationResult result;
        uint64_t submit_ns = 0; ///< enqueue time, for stage attribution
        State state = State::kFree;
        /// True when a future was handed out (submit() path): the
        /// worker resolves the promise and releases the slot itself.
        bool promised = false;
        std::promise<core::ValidationResult> promise;
        std::condition_variable cv; ///< signals kDone to a sync waiter
        /// Mirrors state == kDone for the waiter's unlocked spin;
        /// written under mutex_ together with state.
        std::atomic<bool> done{false};
    };

    /// Slot and ring management; all *_locked helpers require mutex_.
    Slot* acquire_slot_locked();
    void release_slot_locked(Slot* slot);
    void push_ring_locked(Slot* slot);
    Slot* pop_ring_locked();
    /// Enqueue a request into a fresh slot and update the accounting
    /// ("submitted", high-water). Returns nullptr when closed.
    Slot* enqueue_locked(OffloadRequest&& request);

    void worker_loop();

    EngineConfig config_;
    mutable std::mutex engine_mutex_;
    ValidationEngine engine_;

    /// One mutex guards the slab, the free list, the ring, closed_ and
    /// every externally visible statistic, so stats() snapshots are
    /// consistent (see stats()). Aligned so that it never straddles two
    /// cache lines, wherever the pipeline itself is allocated.
    alignas(kCacheLine) mutable std::mutex mutex_;
    std::condition_variable queue_cv_; ///< wakes the worker
    std::deque<Slot> slab_;            ///< all slots ever created
    std::vector<Slot*> free_;          ///< recycled slots
    std::vector<Slot*> ring_;          ///< FIFO of queued slots
    size_t ring_head_ = 0;
    size_t ring_size_ = 0;
    /// Mirror of ring_size_ for the idle worker's unlocked spin; like
    /// closed_, written only under mutex_. The two sit on a cache line
    /// of their own (see kCacheLine).
    alignas(kCacheLine) std::atomic<size_t> queued_{0};
    std::atomic<bool> closed_{false};

    alignas(kCacheLine) std::array<uint64_t, core::kVerdictCount>
        verdicts_{}; ///< by worker
    size_t high_water_ = 0;        ///< max observed queue depth
    uint64_t submitted_ = 0;       ///< requests accepted by submit()
    uint64_t busy_ns_ = 0;         ///< worker time spent inside the engine
    uint64_t shutdown_aborts_ = 0; ///< requests aborted by stop()
    uint64_t timeouts_ = 0;        ///< validate() deadline expiries

    /// Telemetry handles hoisted out of the worker loop: Registry
    /// lookup takes a mutex, and references stay valid for the
    /// registry's lifetime (see obs/registry.h), so resolve them once
    /// at construction instead of per request.
    obs::Gauge& queue_depth_gauge_;
    obs::Gauge& window_occupancy_gauge_;
    obs::LatencyHistogram& validate_ns_hist_;
    obs::LatencyHistogram& stage_queue_hist_;
    obs::LatencyHistogram& stage_engine_hist_;
    obs::LatencyHistogram& stage_link_hist_;

    std::thread worker_;
};

} // namespace rococo::fpga
