#include "fpga/validation_pipeline.h"

#include <algorithm>

#include "common/spin_wait.h"
#include "obs/clock.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace rococo::fpga {

ValidationPipeline::ValidationPipeline(const EngineConfig& config)
    : config_(config), engine_(config),
      queue_depth_gauge_(obs::Registry::global().gauge("fpga.queue_depth")),
      window_occupancy_gauge_(
          obs::Registry::global().gauge("fpga.window_occupancy")),
      stage_queue_hist_(
          obs::Registry::global().histogram("fpga.stage.queue")),
      stage_engine_hist_(
          obs::Registry::global().histogram("fpga.stage.engine")),
      stage_link_hist_(obs::Registry::global().histogram("fpga.stage.link"))
{
    worker_ = std::thread([this] { worker_loop(); });
}

ValidationPipeline::~ValidationPipeline()
{
    stop();
}

void
ValidationPipeline::push_ring_locked(Slot* slot)
{
    if (ring_size_ == ring_.size()) {
        // Re-linearize into a larger ring. Happens only until the ring
        // reaches the backlog high-water, then never again.
        std::vector<Slot*> grown(std::max<size_t>(ring_.size() * 2, 16));
        for (size_t i = 0; i < ring_size_; ++i) {
            grown[i] = ring_[(ring_head_ + i) % ring_.size()];
        }
        ring_ = std::move(grown);
        ring_head_ = 0;
    }
    ring_[(ring_head_ + ring_size_) % ring_.size()] = slot;
    ++ring_size_;
    queued_.store(ring_size_, std::memory_order_release);
}

ValidationPipeline::Slot*
ValidationPipeline::pop_ring_locked()
{
    Slot* slot = ring_[ring_head_];
    slot->in_ring = false;
    ring_head_ = (ring_head_ + 1) % ring_.size();
    --ring_size_;
    queued_.store(ring_size_, std::memory_order_release);
    return slot;
}

void
ValidationPipeline::unlink_locked(const Slot* slot)
{
    size_t i = 0;
    while (ring_[(ring_head_ + i) % ring_.size()] != slot) ++i;
    for (; i + 1 < ring_size_; ++i) {
        ring_[(ring_head_ + i) % ring_.size()] =
            ring_[(ring_head_ + i + 1) % ring_.size()];
    }
    --ring_size_;
    queued_.store(ring_size_, std::memory_order_release);
}

void
ValidationPipeline::complete_locked(Slot* slot,
                                    const core::ValidationResult& result)
{
    slot->result = result;
    slot->done.store(true, std::memory_order_release);
    slot->cv.notify_one();
}

void
ValidationPipeline::worker_loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        spin_then_wait(lock, queue_cv_, [this] {
            return queued_.load(std::memory_order_acquire) > 0 ||
                   closed_.load(std::memory_order_acquire);
        });
        if (ring_size_ == 0) break; // closed and drained
        Slot* slot = pop_ring_locked();
        const OffloadRequest& request = *slot->request;
        const uint64_t submit_ns = slot->submit_ns;
        lock.unlock();

        core::ValidationResult result;
        double link_ns = 0.0;
        const uint64_t start = obs::now_ns();
        {
            obs::ScopedSpan span("fpga", "fpga.validate");
            std::lock_guard<std::mutex> engine_lock(engine_mutex_);
            result = engine_.process(request);
            if (obs::telemetry_active()) {
                link_ns = engine_.isolated_latency_ns(request);
            }
            if (result.verdict == core::Verdict::kCommit) {
                span.arg("cid", result.cid);
            }
        }
        const uint64_t elapsed = obs::now_ns() - start;

        // Record per-request telemetry before the waiter is woken: the
        // moment its validate() returns, the caller may export metrics,
        // and every answered request must already be in the histograms.
        if (obs::telemetry_active()) {
            // Same decomposition axes as the remote backend's
            // svc.stage.* (minus the stages a socket adds), so local
            // vs. remote breakdowns compare column-for-column.
            if (submit_ns != 0 && start >= submit_ns) {
                stage_queue_hist_.record(start - submit_ns);
            }
            stage_engine_hist_.record(elapsed);
            stage_link_hist_.record(static_cast<uint64_t>(link_ns));
            {
                std::lock_guard<std::mutex> engine_lock(engine_mutex_);
                window_occupancy_gauge_.set(
                    static_cast<double>(engine_.next_cid() -
                                        engine_.window_start()));
            }
        }

        lock.lock();
        ++verdicts_[static_cast<size_t>(result.verdict)];
        busy_ns_ += elapsed;
        const size_t depth = ring_size_;
        // Under mutex_: the waiter returns only after re-taking it, so
        // its slot outlives this store and the notify.
        complete_locked(slot, result);
        lock.unlock();

        TRACE_COUNTER("fpga.queue_depth", depth);
        if (obs::telemetry_active()) {
            queue_depth_gauge_.set(static_cast<double>(depth));
        }

        lock.lock();
    }
}

core::ValidationResult
ValidationPipeline::validate(OffloadRequest request, Deadline deadline)
{
    Slot slot;
    slot.request = &request;
    std::unique_lock<std::mutex> lock(mutex_);
    ++submitted_;
    if (closed_) {
        return {core::Verdict::kRejected, 0,
                obs::AbortReason::kBackpressure};
    }
    slot.submit_ns = obs::now_ns();
    push_ring_locked(&slot);
    if (ring_size_ > high_water_) high_water_ = ring_size_;
    queue_cv_.notify_one();

    const auto done = [&slot] {
        return slot.done.load(std::memory_order_acquire);
    };
    if (deadline == kNoDeadline) {
        spin_then_wait(lock, slot.cv, done);
    } else if (!spin_then_wait_until(lock, slot.cv, deadline, done)) {
        // The deadline is authoritative even if the verdict landed while
        // this thread was re-acquiring the mutex: a verdict past the
        // deadline is discarded (see ValidationBackend::validate),
        // keeping zero-deadline calls deterministic.
        ++timeouts_;
        if (slot.in_ring) {
            unlink_locked(&slot);
        } else {
            slot.cv.wait(lock, done); // the worker still reads the request
        }
        return {core::Verdict::kTimeout, 0, obs::AbortReason::kTimeout};
    }
    return slot.result;
}

CounterBag
ValidationPipeline::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    CounterBag bag;
    for (size_t i = 0; i < core::kVerdictCount; ++i) {
        if (verdicts_[i] == 0) continue;
        bag.bump(core::to_string(static_cast<core::Verdict>(i)),
                 verdicts_[i]);
    }
    bag.bump("queue_high_water", high_water_);
    bag.bump("submitted", submitted_);
    bag.bump("shutdown_aborts", shutdown_aborts_);
    bag.bump("timeout", timeouts_);
    return bag;
}

void
ValidationPipeline::export_metrics(obs::Registry& registry) const
{
    std::array<uint64_t, core::kVerdictCount> verdicts;
    size_t high_water;
    uint64_t submitted, busy_ns;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        verdicts = verdicts_;
        high_water = high_water_;
        submitted = submitted_;
        busy_ns = busy_ns_;
    }
    for (size_t i = 0; i < core::kVerdictCount; ++i) {
        if (verdicts[i] == 0) continue;
        registry
            .counter(std::string("fpga.verdict.") +
                     core::to_string(static_cast<core::Verdict>(i)))
            .add(verdicts[i]);
    }
    registry.counter("fpga.submitted").add(submitted);
    registry.counter("fpga.busy_ns").add(busy_ns);
    registry.gauge("fpga.queue_high_water")
        .set(static_cast<double>(high_water));
    {
        std::lock_guard<std::mutex> lock(engine_mutex_);
        registry.gauge("fpga.window_occupancy")
            .set(static_cast<double>(engine_.next_cid() -
                                     engine_.window_start()));
    }
}

std::shared_ptr<const sig::SignatureConfig>
ValidationPipeline::signature_config() const
{
    return engine_.signature_config();
}

void
ValidationPipeline::stop()
{
    // Take the backlog away from the worker and answer every queued
    // waiter with a typed retry-later abort: destruction must not wait
    // for the engine to chew through a backlog.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
        const core::ValidationResult rejected{
            core::Verdict::kRejected, 0, obs::AbortReason::kBackpressure};
        while (ring_size_ > 0) {
            ++shutdown_aborts_;
            complete_locked(pop_ring_locked(), rejected);
        }
    }
    queue_cv_.notify_all();
    if (worker_.joinable()) worker_.join();
}

} // namespace rococo::fpga
