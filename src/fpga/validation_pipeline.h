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
/// The request path is allocation-free: each blocked caller owns its
/// request's completion slot, on its own stack, and the queue is a ring
/// of slot pointers.
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

    /// Queue @p request and wait for its verdict; the steady-state
    /// round trip performs no heap allocation. On @p deadline the
    /// "timeout" counter is bumped and the caller gets kTimeout: a
    /// request still queued is taken out of the queue, and one already
    /// in the engine is waited out and its verdict discarded (see
    /// ValidationBackend::validate). After stop() the result is
    /// kRejected.
    core::ValidationResult validate(
        OffloadRequest request, Deadline deadline = kNoDeadline) override;

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
    /// the engine: their callers return at once with
    /// Verdict::kRejected / obs::AbortReason::kBackpressure, so
    /// destruction is prompt even under a backlog. Idempotent.
    void stop() override;

  private:
    /// One request's completion slot, owned by its waiting caller (on
    /// that caller's stack) and starting a cache line of its own. Once
    /// popped from the ring, a slot is the worker's until it is done;
    /// the caller leaves only when its slot is done or back out of the
    /// ring, so no slot is touched after its caller returns.
    struct alignas(kCacheLine) Slot
    {
        const OffloadRequest* request = nullptr;
        core::ValidationResult result;
        uint64_t submit_ns = 0; ///< enqueue time, for stage attribution
        bool in_ring = true;    ///< written under mutex_
        std::condition_variable cv; ///< signals done to the waiter
        /// Result ready; written under mutex_, read by the waiter's
        /// unlocked spin too.
        std::atomic<bool> done{false};
    };

    /// Ring management; all *_locked helpers require mutex_.
    void push_ring_locked(Slot* slot);
    Slot* pop_ring_locked();
    /// Take a still-queued @p slot out of the ring, keeping FIFO order.
    void unlink_locked(const Slot* slot);
    /// Mark @p slot done with @p result and wake its waiter.
    static void complete_locked(Slot* slot,
                                const core::ValidationResult& result);

    void worker_loop();

    EngineConfig config_;
    mutable std::mutex engine_mutex_;
    ValidationEngine engine_;

    /// One mutex guards the ring, slot states, closed_ and every
    /// externally visible statistic, so stats() snapshots are
    /// consistent (see stats()). Aligned so that it never straddles two
    /// cache lines, wherever the pipeline itself is allocated.
    alignas(kCacheLine) mutable std::mutex mutex_;
    std::condition_variable queue_cv_; ///< wakes the worker
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
    uint64_t submitted_ = 0;       ///< requests accepted by validate()
    uint64_t busy_ns_ = 0;         ///< worker time spent inside the engine
    uint64_t shutdown_aborts_ = 0; ///< requests aborted by stop()
    uint64_t timeouts_ = 0;        ///< validate() deadline expiries

    /// Telemetry handles hoisted out of the worker loop: Registry
    /// lookup takes a mutex, and references stay valid for the
    /// registry's lifetime (see obs/registry.h), so resolve them once
    /// at construction instead of per request.
    obs::Gauge& queue_depth_gauge_;
    obs::Gauge& window_occupancy_gauge_;
    obs::LatencyHistogram& stage_queue_hist_;
    obs::LatencyHistogram& stage_engine_hist_;
    obs::LatencyHistogram& stage_link_hist_;

    std::thread worker_;
};

} // namespace rococo::fpga
