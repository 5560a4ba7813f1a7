#include "fpga/validation_pipeline.h"

#include "obs/clock.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace rococo::fpga {

constexpr core::ValidationResult kRejected{
    core::Verdict::kRejected, 0, obs::AbortReason::kBackpressure};
constexpr core::ValidationResult kTimedOut{
    core::Verdict::kTimeout, 0, obs::AbortReason::kTimeout};

ValidationPipeline::ValidationPipeline(const EngineConfig& config)
    : engine_(config),
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
ValidationPipeline::worker_loop()
{
    // seq_cst loads, against a poster's CAS and idle_ load: either the
    // parking worker sees the post or the poster sees idle_.
    const auto ready = [this] {
        if (closed_.load()) return true;
        for (const Record& record : records_) {
            if (record.slot.load() != nullptr) return true;
        }
        return false;
    };
    size_t next = 0; // the record after the one served last
    while (!closed_.load(std::memory_order_acquire)) {
        // One sweep from next: take the first posted slot, count depth.
        Slot* taken = nullptr;
        size_t posted = 0;
        const size_t from = next;
        for (size_t k = 0; k < kRecords; ++k) {
            Record& record = records_[(from + k) % kRecords];
            Slot* slot = record.slot.load(std::memory_order_acquire);
            if (slot == nullptr) continue;
            ++posted;
            // The CAS fails only if the caller took its post back.
            if (taken == nullptr &&
                record.slot.compare_exchange_strong(slot, nullptr)) {
                taken = slot;
                next = (from + k + 1) % kRecords;
            }
        }
        if (taken != nullptr) {
            serve(*taken, posted);
        } else if (!spin_until(ready)) {
            std::unique_lock<std::mutex> lock(mutex_);
            idle_.store(true);
            work_cv_.wait(lock, ready);
            idle_.store(false, std::memory_order_relaxed);
        }
    }
}

void
ValidationPipeline::serve(Slot& slot, size_t depth)
{
    const OffloadRequest& request = *slot.request;
    core::ValidationResult result;
    const uint64_t start = obs::now_ns();
    {
        obs::ScopedSpan span("fpga", "fpga.validate");
        result = engine_.process(request);
        if (result.verdict == core::Verdict::kCommit) {
            span.arg("cid", result.cid);
        }
    }
    const uint64_t elapsed = obs::now_ns() - start;
    const uint64_t occupancy = engine_.next_cid() - engine_.window_start();

    // Telemetry and counters go in before the waiter is woken: once its
    // validate() returns, every answered request must be in them.
    if (obs::telemetry_active()) {
        // The axes of the remote backend's svc.stage.* (minus the stages
        // a socket adds), so local and remote breakdowns compare.
        if (slot.submit_ns != 0 && start >= slot.submit_ns) {
            stage_queue_hist_.record(start - slot.submit_ns);
        }
        stage_engine_hist_.record(elapsed);
        stage_link_hist_.record(
            static_cast<uint64_t>(engine_.isolated_latency_ns(request)));
        queue_depth_gauge_.set(static_cast<double>(depth - 1));
        window_occupancy_gauge_.set(static_cast<double>(occupancy));
    }
    TRACE_COUNTER("fpga.queue_depth", depth - 1);
    // The worker is the only writer: plain load + store.
    occupancy_.store(occupancy, std::memory_order_relaxed);
    if (depth > high_water_.load(std::memory_order_relaxed)) {
        high_water_.store(depth, std::memory_order_release);
    }
    busy_ns_.store(busy_ns_.load(std::memory_order_relaxed) + elapsed,
                   std::memory_order_release);
    auto& verdicts = verdicts_[static_cast<size_t>(result.verdict)];
    verdicts.store(verdicts.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
    complete(slot, result);
}

void
ValidationPipeline::complete(Slot& slot, const core::ValidationResult& result)
{
    slot.result = result;
    uint8_t waiting = kWaiting;
    if (slot.state.compare_exchange_strong(waiting, kDone)) return;
    // The waiter parked. It re-takes mutex_ before it returns, so its
    // slot outlives this store and the notify.
    std::lock_guard<std::mutex> lock(mutex_);
    slot.state.store(kDone, std::memory_order_release);
    slot.cv.notify_one();
}

core::ValidationResult
ValidationPipeline::count(uint64_t& counter,
                          const core::ValidationResult& result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++counter;
    return result;
}

core::ValidationResult
ValidationPipeline::validate(OffloadRequest request, Deadline deadline)
{
    Slot slot;
    slot.request = &request;
    if (obs::telemetry_active()) slot.submit_ns = obs::now_ns();

    // Threads are numbered on first use. Counted before the post, so
    // stats() never sees a verdict it does not count as submitted.
    static std::atomic<size_t> threads{0};
    thread_local const size_t home =
        threads.fetch_add(1, std::memory_order_relaxed) % kRecords;
    records_[home].posts.fetch_add(1, std::memory_order_relaxed);
    Record* record = nullptr;
    for (size_t i = home, laps = 0; record == nullptr;
         i = (i + 1) % kRecords) {
        if (i == home) { // before the first probe, then once a lap fails
            if (closed_.load()) return count(shutdown_aborts_, kRejected);
            if (deadline != kNoDeadline &&
                std::chrono::steady_clock::now() >= deadline) {
                return count(timeouts_, kTimedOut); // the engine never saw it
            }
            if (laps++ > 0) std::this_thread::yield();
        }
        Slot* free = nullptr;
        if (records_[i].slot.load(std::memory_order_relaxed) == nullptr &&
            records_[i].slot.compare_exchange_strong(free, &slot)) {
            record = &records_[i];
        }
    }
    // seq_cst against stop()'s closed_ store and sweep: stop() finds
    // this post, or this caller sees closed_ and tries to take it back.
    if (closed_.load()) {
        Slot* mine = &slot;
        if (record->slot.compare_exchange_strong(mine, nullptr)) {
            return count(shutdown_aborts_, kRejected);
        }
    } else if (idle_.load()) {
        std::lock_guard<std::mutex> lock(mutex_);
        work_cv_.notify_one();
    }

    const auto done = [&slot] {
        return slot.state.load(std::memory_order_acquire) == kDone;
    };
    if (spin_until(done, deadline)) return slot.result;
    std::unique_lock<std::mutex> lock(mutex_);
    uint8_t waiting = kWaiting;
    slot.state.compare_exchange_strong(waiting, kParked); // else kDone
    if (deadline == kNoDeadline) {
        slot.cv.wait(lock, done);
        return slot.result;
    }
    // The deadline is authoritative even if the verdict landed while
    // this thread was taking the mutex: a verdict past the deadline is
    // discarded (see ValidationBackend::validate), keeping zero-deadline
    // calls deterministic.
    bool in_time = std::chrono::steady_clock::now() < deadline;
    while (in_time && !done()) {
        in_time = slot.cv.wait_until(lock, deadline) ==
                  std::cv_status::no_timeout;
    }
    if (in_time) return slot.result;
    ++timeouts_;
    Slot* mine = &slot;
    if (!record->slot.compare_exchange_strong(mine, nullptr)) {
        slot.cv.wait(lock, done); // the worker still reads the request
        // Taken by stop(): count it once, as this caller's timeout.
        if (slot.result.verdict == core::Verdict::kRejected) {
            --shutdown_aborts_;
        }
    }
    return kTimedOut;
}

CounterBag
ValidationPipeline::stats() const
{
    CounterBag bag;
    for (size_t i = 0; i < core::kVerdictCount; ++i) {
        const uint64_t n = verdicts_[i].load(std::memory_order_acquire);
        if (n == 0) continue;
        bag.bump(core::to_string(static_cast<core::Verdict>(i)), n);
    }
    bag.bump("queue_high_water",
             high_water_.load(std::memory_order_acquire));
    uint64_t submitted = 0;
    for (const Record& record : records_) {
        submitted += record.posts.load(std::memory_order_relaxed);
    }
    bag.bump("submitted", submitted);
    std::lock_guard<std::mutex> lock(mutex_);
    bag.bump("shutdown_aborts", shutdown_aborts_);
    bag.bump("timeout", timeouts_);
    return bag;
}

void
ValidationPipeline::export_metrics(obs::Registry& registry) const
{
    const CounterBag bag = stats();
    for (size_t i = 0; i < core::kVerdictCount; ++i) {
        const char* verdict = core::to_string(static_cast<core::Verdict>(i));
        if (bag.get(verdict) == 0) continue;
        registry.counter(std::string("fpga.verdict.") + verdict)
            .add(bag.get(verdict));
    }
    registry.counter("fpga.submitted").add(bag.get("submitted"));
    registry.counter("fpga.busy_ns")
        .add(busy_ns_.load(std::memory_order_acquire));
    registry.gauge("fpga.queue_high_water")
        .set(static_cast<double>(bag.get("queue_high_water")));
    registry.gauge("fpga.window_occupancy")
        .set(static_cast<double>(occupancy_.load(std::memory_order_relaxed)));
}

std::shared_ptr<const sig::SignatureConfig>
ValidationPipeline::signature_config() const
{
    return engine_.signature_config();
}

void
ValidationPipeline::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_.store(true);
    }
    work_cv_.notify_all();
    if (worker_.joinable()) worker_.join();
    // Answer what is still posted with a typed retry-later abort rather
    // than run a backlog through the engine. A caller posting after this
    // sweep sees closed_ and takes its own post back.
    for (Record& record : records_) {
        if (Slot* slot = record.slot.exchange(nullptr)) {
            count(shutdown_aborts_, kRejected);
            complete(*slot, kRejected);
        }
    }
}

} // namespace rococo::fpga
