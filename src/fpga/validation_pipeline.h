/// @file
/// Real-thread validation pipeline: the in-process stand-in for the FPGA.
/// A dedicated worker thread owns a ValidationEngine and serves the
/// requests executing threads post, as the hardware pulls request
/// cachelines (Fig. 6 (b)). It shares the CPU with the executors, so its
/// throughput is not the paper's; timing figures come from src/sim.
///
/// Requests travel through publication records, one cache line each. A
/// caller posts a pointer to its completion slot (on its own stack) into
/// a free record with one compare-and-swap and spins on the slot: no
/// lock, and on a record of its own no line another caller writes. The
/// worker sweeps the records round-robin from the one it served last, so
/// a posted request is served within one sweep, and writes the verdict
/// into the slot. Nothing on the path allocates. Concurrently pending
/// requests reach the engine in sweep order, not posting order; cids
/// follow engine order, and any order of concurrently pending requests
/// is a valid arrival order for Fig. 6 (b). Both waits, the idle
/// worker's and the caller's, spin before they park
/// (common/spin_wait.h); mutex_ serves only parking and stop().
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "common/spin_wait.h"
#include "core/sliding_window.h"
#include "fpga/validation_backend.h"
#include "fpga/validation_engine.h"
#include "obs/registry.h"

namespace rococo::fpga {

class ValidationPipeline final : public ValidationBackend
{
  public:
    /// Publication records. A caller starts at its thread's home record
    /// and probes on past taken ones; callers beyond kRecords pending
    /// wait for a record to free.
    static constexpr size_t kRecords = 64;

    explicit ValidationPipeline(const EngineConfig& config = {});
    ~ValidationPipeline() override;

    ValidationPipeline(const ValidationPipeline&) = delete;
    ValidationPipeline& operator=(const ValidationPipeline&) = delete;

    /// Post @p request and wait for its verdict. On @p deadline the
    /// "timeout" counter is bumped and the caller gets kTimeout: a
    /// request the worker has not taken yet is taken back, and one in
    /// the engine is waited out and its verdict discarded (see
    /// ValidationBackend::validate). After stop() the result is kRejected.
    core::ValidationResult validate(
        OffloadRequest request, Deadline deadline = kNoDeadline) override;

    /// Thread-safe counters: the verdicts ("commit" / "abort-cycle" /
    /// "window-overflow"), "submitted", requests stop() aborted before
    /// the engine ("shutdown_aborts"), deadline expiries ("timeout"),
    /// and the most requests found posted at once ("queue_high_water"),
    /// the back-pressure the paper avoids (§5.1). Requests count as
    /// submitted before the worker can take them and verdicts are read
    /// first, so verdicts never exceed "submitted", and the high-water
    /// mark is at least 1 once any verdict is counted.
    CounterBag stats() const override;

    /// Export "fpga.verdict.<verdict>", "fpga.submitted", "fpga.busy_ns"
    /// and the gauges "fpga.queue_high_water" / "fpga.window_occupancy"
    /// into @p registry. While a TelemetrySession is active the worker
    /// also feeds fpga.stage.{queue,engine,link} in the global registry,
    /// the local mirror of the service's svc.stage.* breakdown (link is
    /// the modeled CCI round trip in both).
    void export_metrics(obs::Registry& registry) const override;

    /// Signature geometry shared with CPU-side eager detection.
    std::shared_ptr<const sig::SignatureConfig> signature_config()
        const override;

    /// Stop the worker. Requests still posted are NOT drained through
    /// the engine: once the worker's current pass ends, their callers
    /// get kRejected / kBackpressure. Idempotent.
    void stop() override;

  private:
    /// Slot states. kParked is set by the waiter, under mutex_, before
    /// it parks; the completer then hands kDone over under mutex_.
    enum : uint8_t { kWaiting, kParked, kDone };

    /// One request's completion slot, on its caller's stack. Whoever
    /// takes it out of its record (the worker or stop()) owns it until
    /// kDone; the caller leaves only once it is done or taken back.
    struct alignas(kCacheLine) Slot
    {
        const OffloadRequest* request = nullptr;
        uint64_t submit_ns = 0; ///< post time while telemetry is on
        core::ValidationResult result;
        std::atomic<uint8_t> state{kWaiting};
        std::condition_variable cv; ///< wakes a parked waiter
    };

    /// The slot posted (null when free); requests counted at this home.
    struct alignas(kCacheLine) Record
    {
        std::atomic<Slot*> slot{nullptr};
        std::atomic<uint64_t> posts{0};
    };

    void worker_loop();
    void serve(Slot& slot, size_t depth);
    /// Write @p result into @p slot and hand it to its waiter.
    void complete(Slot& slot, const core::ValidationResult& result);
    /// Bump a mutex_-guarded counter and return @p result.
    core::ValidationResult count(uint64_t& counter,
                                 const core::ValidationResult& result);

    ValidationEngine engine_; ///< the worker's alone

    std::array<Record, kRecords> records_;

    /// Read on every post; written only by stop() and a parking worker.
    alignas(kCacheLine) std::atomic<bool> closed_{false};
    std::atomic<bool> idle_{false}; ///< posters must wake the worker

    /// Written by the worker alone, before it hands a verdict over.
    alignas(kCacheLine) std::array<std::atomic<uint64_t>,
                                   core::kVerdictCount> verdicts_{};
    std::atomic<uint64_t> high_water_{0};
    std::atomic<uint64_t> busy_ns_{0}; ///< worker time inside the engine
    std::atomic<uint64_t> occupancy_{0}; ///< window slots in use

    /// Guards parking and the rare-path counters below.
    alignas(kCacheLine) mutable std::mutex mutex_;
    std::condition_variable work_cv_; ///< wakes the idle worker
    uint64_t shutdown_aborts_ = 0;    ///< requests aborted by stop()
    uint64_t timeouts_ = 0;           ///< validate() deadline expiries

    /// Telemetry handles, resolved once (a Registry lookup locks).
    obs::Gauge& queue_depth_gauge_;
    obs::Gauge& window_occupancy_gauge_;
    obs::LatencyHistogram& stage_queue_hist_;
    obs::LatencyHistogram& stage_engine_hist_;
    obs::LatencyHistogram& stage_link_hist_;

    std::thread worker_;
};

} // namespace rococo::fpga
