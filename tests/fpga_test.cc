/// Tests for the FPGA model: link timing, conflict detector
/// (conservative vs the exact classifier), validation engine,
/// real-thread pipeline and the §6.5 resource model.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>

#include "common/rng.h"
#include "common/spin_wait.h"
#include "core/rococo_validator.h"
#include "fpga/cci_link.h"
#include "fpga/resource_model.h"
#include "fpga/validation_engine.h"
#include "fpga/validation_pipeline.h"
#include "obs/topk.h"

namespace rococo::fpga {
namespace {

TEST(CciLink, Harp2Defaults)
{
    CciLinkModel link;
    EXPECT_DOUBLE_EQ(link.round_trip_ns(), 600.0);
    EXPECT_DOUBLE_EQ(link.clock_period_ns(), 5.0);
    // A small request clears the pipeline well under a microsecond on
    // top of the link (the Fig. 11 claim).
    EXPECT_LT(link.isolated_latency_ns(8, 4), 1000.0);
}

TEST(CciLink, OccupancyScalesWithAddresses)
{
    CciLinkModel link;
    EXPECT_EQ(link.occupancy_cycles(0, 0), 1u);
    EXPECT_EQ(link.occupancy_cycles(8, 4), 2u);  // two cachelines
    EXPECT_EQ(link.occupancy_cycles(64, 16), 10u);
    EXPECT_GT(link.service_interval_ns(64, 16),
              link.service_interval_ns(4, 4));
    EXPECT_EQ(link.request_cachelines(8, 8), 3u); // 2 data + 1 header
}

TEST(Detector, ClassifiesLikeExactOnLowFpConfig)
{
    // With huge signatures (negligible false positives) the detector's
    // classification must match the exact classifier on random
    // histories.
    const size_t window = 16;
    auto cfg = std::make_shared<const sig::SignatureConfig>(1 << 16, 4);
    ConflictDetector detector(window, cfg);
    core::ExactRococoValidator exact(window,
                                     /*strict_read_only=*/true);
    Xoshiro256 rng(3);

    auto random_set = [&](size_t max_n) {
        std::vector<uint64_t> out;
        const size_t n = rng.below(max_n + 1);
        for (size_t i = 0; i < n; ++i) out.push_back(rng.below(128));
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
        return out;
    };

    for (int t = 0; t < 100; ++t) {
        const auto reads = random_set(6);
        auto writes = random_set(4);
        if (writes.empty()) writes.push_back(rng.below(128));
        const uint64_t snapshot =
            exact.window_start() +
            rng.below(exact.next_cid() - exact.window_start() + 1);

        OffloadRequest request{reads, writes, snapshot};
        const core::ValidationRequest from_detector =
            detector.classify(request);
        const core::ValidationRequest from_exact =
            exact.classify(reads, writes, snapshot);
        EXPECT_EQ(from_detector.forward, from_exact.forward) << "txn " << t;
        EXPECT_EQ(from_detector.backward, from_exact.backward)
            << "txn " << t;

        // Keep both histories in lockstep by committing through exact.
        const auto result = exact.validate(reads, writes, snapshot);
        if (result.verdict == core::Verdict::kCommit) {
            detector.record_commit(result.cid, request);
        }
    }
}

TEST(Detector, SmallSignaturesAreConservative)
{
    // With realistic 512-bit signatures the detector may report EXTRA
    // edges (false positives) but never fewer than the exact
    // classifier.
    const size_t window = 32;
    auto cfg = std::make_shared<const sig::SignatureConfig>(512, 4);
    ConflictDetector detector(window, cfg);
    core::ExactRococoValidator exact(window, true);
    Xoshiro256 rng(4);

    for (int t = 0; t < 200; ++t) {
        std::vector<uint64_t> reads, writes;
        for (size_t i = 0; i < 1 + rng.below(20); ++i) {
            reads.push_back(rng.below(4096));
        }
        for (size_t i = 0; i < 1 + rng.below(10); ++i) {
            writes.push_back(rng.below(4096));
        }
        std::sort(reads.begin(), reads.end());
        reads.erase(std::unique(reads.begin(), reads.end()), reads.end());
        std::sort(writes.begin(), writes.end());
        writes.erase(std::unique(writes.begin(), writes.end()),
                     writes.end());
        const uint64_t snapshot = exact.next_cid();

        const auto detected =
            detector.classify({reads, writes, snapshot});
        const auto exact_req = exact.classify(reads, writes, snapshot);

        std::set<uint64_t> det_f(detected.forward.begin(),
                                 detected.forward.end());
        std::set<uint64_t> det_b(detected.backward.begin(),
                                 detected.backward.end());
        for (uint64_t c : exact_req.forward) {
            EXPECT_TRUE(det_f.count(c)) << "missed forward edge";
        }
        for (uint64_t c : exact_req.backward) {
            EXPECT_TRUE(det_b.count(c)) << "missed backward edge";
        }

        const auto result = exact.validate(reads, writes, snapshot);
        if (result.verdict == core::Verdict::kCommit) {
            detector.record_commit(result.cid, {reads, writes, snapshot});
        }
    }
}

TEST(Engine, EndToEndCommitAndAbort)
{
    ValidationEngine engine;
    OffloadRequest t0{{}, {1}, 0};
    EXPECT_EQ(engine.process(t0).verdict, core::Verdict::kCommit);

    // Lost update: read old 1, write 1.
    OffloadRequest t1{{1}, {1}, 0};
    EXPECT_EQ(engine.process(t1).verdict, core::Verdict::kAbortCycle);

    // Reader of the new version commits.
    OffloadRequest t2{{1}, {2}, 1};
    EXPECT_EQ(engine.process(t2).verdict, core::Verdict::kCommit);
    EXPECT_EQ(engine.stats().get("commit"), 2u);
    EXPECT_EQ(engine.stats().get("abort-cycle"), 1u);
}

TEST(Engine, AttributesConflictCidOnCycleAbort)
{
    // The deterministic conflict trace of the provenance contract:
    // cid 0 writes address 1; the victim read the old version of 1 and
    // writes it back (lost update). The abort must name cid 0.
    ValidationEngine engine;
    OffloadRequest t0{{}, {1}, 0};
    const core::ValidationResult committed = engine.process(t0);
    ASSERT_EQ(committed.verdict, core::Verdict::kCommit);
    ASSERT_EQ(committed.cid, 0u);
    EXPECT_EQ(committed.conflict_cid, core::kNoConflictCid);

    OffloadRequest victim{{1}, {1}, 0};
    const core::ValidationResult aborted = engine.process(victim);
    ASSERT_EQ(aborted.verdict, core::Verdict::kAbortCycle);
    EXPECT_EQ(aborted.conflict_cid, 0u);

    // An unrelated transaction keeps committing with the sentinel.
    OffloadRequest t2{{1}, {2}, 1};
    const core::ValidationResult after = engine.process(t2);
    ASSERT_EQ(after.verdict, core::Verdict::kCommit);
    EXPECT_EQ(after.conflict_cid, core::kNoConflictCid);
}

TEST(Engine, FeedsConflictTopKFromTheAbortPath)
{
    ValidationEngine engine;
    OffloadRequest writer{{}, {7}, 0};
    ASSERT_EQ(engine.process(writer).verdict, core::Verdict::kCommit);
    for (int i = 0; i < 10; ++i) {
        OffloadRequest victim{{7}, {7}, 0};
        ASSERT_EQ(engine.process(victim).verdict,
                  core::Verdict::kAbortCycle);
    }
#ifndef ROCOCO_FORENSICS_OFF
    // Every sampled cycle abort offered its conflicting addresses; 7
    // must dominate the sketch.
    const obs::TopK& topk = engine.conflict_topk();
    EXPECT_GT(topk.offered(), 0u);
    obs::TopK::Entry top[obs::TopK::kCapacity];
    const size_t n = topk.snapshot(top, obs::TopK::kCapacity);
    ASSERT_GE(n, 1u);
    EXPECT_EQ(top[0].key, 7u);
#else
    EXPECT_EQ(engine.conflict_topk().offered(), 0u);
#endif
}

TEST(Engine, ForensicsSampleZeroDisablesTheTopKFeed)
{
    EngineConfig config;
    config.forensics_sample = 0;
    ValidationEngine engine(config);
    OffloadRequest writer{{}, {7}, 0};
    ASSERT_EQ(engine.process(writer).verdict, core::Verdict::kCommit);
    OffloadRequest victim{{7}, {7}, 0};
    ASSERT_EQ(engine.process(victim).verdict,
              core::Verdict::kAbortCycle);
    EXPECT_EQ(engine.conflict_topk().offered(), 0u);
}

TEST(Engine, ReadOnlyFastPath)
{
    ValidationEngine engine;
    OffloadRequest ro{{5}, {}, 0};
    EXPECT_EQ(engine.process(ro).verdict, core::Verdict::kCommit);
    EXPECT_EQ(engine.next_cid(), 0u);
}

TEST(Engine, WindowOverflow)
{
    EngineConfig config;
    config.window = 4;
    ValidationEngine engine(config);
    for (uint64_t i = 0; i < 8; ++i) {
        OffloadRequest w{{}, {100 + i}, i};
        ASSERT_EQ(engine.process(w).verdict, core::Verdict::kCommit);
    }
    OffloadRequest stale{{100}, {200}, 0};
    EXPECT_EQ(engine.process(stale).verdict,
              core::Verdict::kWindowOverflow);
}

TEST(Engine, LatencyModel)
{
    ValidationEngine engine;
    OffloadRequest small{{1, 2}, {3}, 0};
    OffloadRequest large{std::vector<uint64_t>(100, 0),
                         std::vector<uint64_t>(50, 1), 0};
    EXPECT_LT(engine.isolated_latency_ns(small),
              engine.isolated_latency_ns(large));
    EXPECT_GT(engine.isolated_latency_ns(small), 600.0);
}

TEST(Pipeline, ProcessesConcurrentSubmissions)
{
    ValidationPipeline pipeline;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50;
    std::atomic<int> commits{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                // Disjoint writes: everything commits.
                OffloadRequest req{
                    {}, {uint64_t(t) << 32 | uint64_t(i)}, 0};
                req.snapshot_cid = ~uint64_t{0} >> 1; // "current" snapshot
                auto r = pipeline.validate(std::move(req));
                if (r.verdict == core::Verdict::kCommit) ++commits;
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(commits.load(), kThreads * kPerThread);
    EXPECT_EQ(pipeline.stats().get("commit"),
              uint64_t(kThreads) * kPerThread);
    pipeline.stop();
}

TEST(Pipeline, StopRejectsFurtherWork)
{
    ValidationPipeline pipeline;
    pipeline.stop();
    auto r = pipeline.validate({{}, {1}, 0});
    EXPECT_EQ(r.verdict, core::Verdict::kRejected);
    EXPECT_EQ(r.reason, obs::AbortReason::kBackpressure);
}

TEST(Pipeline, StopResolvesPendingFuturesInsteadOfBreakingPromises)
{
    // Regression: stop() used to close the queue and let the Items'
    // promises die unfulfilled, surfacing to waiters as
    // std::future_error(broken_promise). Now every pending future must
    // resolve — with the real verdict if the worker got there first,
    // with a typed rejection otherwise — and never throw.
    ValidationPipeline pipeline;
    std::vector<std::future<core::ValidationResult>> futures;
    for (uint64_t i = 0; i < 512; ++i) {
        futures.push_back(
            pipeline.submit({{}, {i}, ~uint64_t{0} >> 1}));
    }
    pipeline.stop(); // races the worker through the backlog
    uint64_t resolved = 0;
    for (auto& future : futures) {
        auto r = future.get(); // must not throw
        EXPECT_TRUE(r.verdict == core::Verdict::kCommit ||
                    r.verdict == core::Verdict::kRejected);
        if (r.verdict == core::Verdict::kRejected) {
            EXPECT_EQ(r.reason, obs::AbortReason::kBackpressure);
        }
        ++resolved;
    }
    EXPECT_EQ(resolved, futures.size());
    // Accounting covers both paths: engine verdicts + shutdown aborts
    // == everything submitted.
    const CounterBag bag = pipeline.stats();
    EXPECT_EQ(bag.get("commit") + bag.get("shutdown_aborts"),
              bag.get("submitted"));
}

TEST(Pipeline, ValidateWithDeadlineTimesOutUnderBacklog)
{
    // Stuff the queue, then ask for a verdict with a zero deadline: the
    // worker cannot possibly have drained the backlog between submit
    // and wait, so the caller gets the typed timeout instead of
    // blocking.
    ValidationPipeline pipeline;
    std::vector<std::future<core::ValidationResult>> backlog;
    for (uint64_t i = 0; i < 2048; ++i) {
        backlog.push_back(
            pipeline.submit({{}, {i}, ~uint64_t{0} >> 1}));
    }
    auto r = pipeline.validate({{}, {99999}, 0},
                               std::chrono::nanoseconds(0));
    EXPECT_EQ(r.verdict, core::Verdict::kTimeout);
    EXPECT_EQ(r.reason, obs::AbortReason::kTimeout);
    EXPECT_EQ(pipeline.stats().get("timeout"), 1u);
    pipeline.stop();
    for (auto& future : backlog) future.get(); // all resolve, none throw
}

TEST(Pipeline, ValidateWithGenerousDeadlineStillCommits)
{
    ValidationPipeline pipeline;
    auto r = pipeline.validate({{}, {1}, ~uint64_t{0} >> 1},
                               std::chrono::seconds(30));
    EXPECT_EQ(r.verdict, core::Verdict::kCommit);
    EXPECT_EQ(pipeline.stats().get("timeout"), 0u);
    pipeline.stop();
}

/// Queue a backlog of @p n disjoint-write requests through submit():
/// at engine speed it keeps the worker busy far longer than the spin
/// budget, so a request queued behind it cannot be answered while its
/// waiter is still spinning.
std::vector<std::future<core::ValidationResult>>
submit_backlog(ValidationPipeline& pipeline, uint64_t n)
{
    std::vector<std::future<core::ValidationResult>> backlog;
    backlog.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        backlog.push_back(pipeline.submit({{}, {i}, ~uint64_t{0} >> 1}));
    }
    return backlog;
}

TEST(Pipeline, VerdictPastTheSpinBudgetArrivesThroughPark)
{
    // Sync waiters queued behind a backlog outlast their spin and park;
    // each must still be woken with its real verdict.
    ValidationPipeline pipeline;
    auto backlog = submit_backlog(pipeline, 4096);
    constexpr int kWaiters = 4;
    std::atomic<int> commits{0};
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> waiters;
    for (int t = 0; t < kWaiters; ++t) {
        waiters.emplace_back([&, t] {
            const auto r = pipeline.validate(
                {{}, {uint64_t{1} << 40 | uint64_t(t)}, ~uint64_t{0} >> 1});
            if (r.verdict == core::Verdict::kCommit) ++commits;
        });
    }
    for (auto& waiter : waiters) waiter.join();
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_GT(waited, kSpinBudget) << "backlog drained within the spin "
                                      "budget; the park path was not hit";
    EXPECT_EQ(commits.load(), kWaiters);
    for (auto& future : backlog) {
        EXPECT_EQ(future.get().verdict, core::Verdict::kCommit);
    }
    const CounterBag bag = pipeline.stats();
    EXPECT_EQ(bag.get("commit"), bag.get("submitted"));
    EXPECT_EQ(bag.get("submitted"), 4096u + kWaiters);
    pipeline.stop();
}

TEST(Pipeline, StopResolvesSpinningWaitersWithRejection)
{
    // A round proves the contract only if stop() caught every waiter
    // still queued. The waiters queue behind the backlog, so
    // shutdown_aborts >= kWaiters means none of them reached the
    // engine. A test thread descheduled long enough lets the worker
    // drain the backlog first; such a round proves nothing and is
    // rerun, up to kRounds times.
    constexpr uint64_t kBacklog = 16384;
    constexpr int kWaiters = 4;
    constexpr int kRounds = 5;
    bool qualified = false;
    for (int round = 0; round < kRounds && !qualified; ++round) {
        ValidationPipeline pipeline;
        auto backlog = submit_backlog(pipeline, kBacklog);
        std::vector<core::ValidationResult> results(kWaiters);
        std::vector<std::thread> waiters;
        for (int t = 0; t < kWaiters; ++t) {
            waiters.emplace_back([&, t] {
                results[t] = pipeline.validate(
                    {{}, {uint64_t{1} << 40 | uint64_t(t)},
                     ~uint64_t{0} >> 1});
            });
        }
        // Stop as soon as every waiter is queued: they are spinning (or
        // just parked) at the back of a backlog the worker is far from
        // draining.
        while (pipeline.stats().get("submitted") < kBacklog + kWaiters) {
            std::this_thread::yield();
        }
        pipeline.stop();
        for (auto& waiter : waiters) waiter.join(); // none hangs
        for (auto& future : backlog) future.get();
        const CounterBag bag = pipeline.stats();
        EXPECT_EQ(bag.get("commit") + bag.get("shutdown_aborts"),
                  bag.get("submitted"));
        if (bag.get("shutdown_aborts") < uint64_t{kWaiters}) continue;
        qualified = true;
        for (const auto& r : results) {
            EXPECT_EQ(r.verdict, core::Verdict::kRejected);
            EXPECT_EQ(r.reason, obs::AbortReason::kBackpressure);
        }
    }
    EXPECT_TRUE(qualified) << "in " << kRounds << " rounds the worker "
                           << "drained the backlog before stop() each time";
}

TEST(Pipeline, DeadlineShorterThanTheSpinBudgetIsHonoured)
{
    // The deadline, not the spin budget, bounds a timed wait: with the
    // verdict stuck behind a backlog, validate(req, d) must return
    // kTimeout about d after the call, not after the budget. The
    // minimum over a few calls filters out scheduler preemption.
    ValidationPipeline pipeline;
    auto backlog = submit_backlog(pipeline, 8192);
    constexpr auto kDeadline = kSpinBudget / 10;
    auto fastest = std::chrono::steady_clock::duration::max();
    constexpr int kCalls = 5;
    for (int i = 0; i < kCalls; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const auto r = pipeline.validate(
            {{}, {uint64_t{1} << 40 | uint64_t(i)}, ~uint64_t{0} >> 1},
            kDeadline);
        fastest = std::min(fastest, std::chrono::steady_clock::now() - start);
        EXPECT_EQ(r.verdict, core::Verdict::kTimeout);
        EXPECT_EQ(r.reason, obs::AbortReason::kTimeout);
    }
    EXPECT_GE(fastest, kDeadline);
    // Without a spin (one CPU) the wait is a timed futex sleep, whose
    // timer slack alone can exceed the budget.
    if (spin_allowed()) {
        EXPECT_LT(fastest, kSpinBudget);
    }
    EXPECT_EQ(pipeline.stats().get("timeout"), uint64_t(kCalls));
    pipeline.stop();
    for (auto& future : backlog) future.get();
}

TEST(Pipeline, StatsSnapshotIsConsistentUnderConcurrentReads)
{
    // Hammer stats() from readers while submitters run. Every snapshot
    // must satisfy the documented invariant: the verdict counters never
    // exceed "submitted", and the high-water mark covers every
    // submission the counters include (>= 1 once anything completed).
    ValidationPipeline pipeline;
    constexpr int kSubmitters = 3;
    constexpr int kPerThread = 200;
    std::atomic<bool> done{false};
    std::atomic<int> violations{0};

    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back([&] {
            while (!done.load(std::memory_order_acquire)) {
                const CounterBag bag = pipeline.stats();
                const uint64_t verdicts = bag.get("commit") +
                                          bag.get("abort-cycle") +
                                          bag.get("window-overflow");
                const uint64_t submitted = bag.get("submitted");
                if (verdicts > submitted) violations.fetch_add(1);
                if (verdicts > 0 && bag.get("queue_high_water") == 0) {
                    violations.fetch_add(1);
                }
            }
        });
    }

    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                OffloadRequest req{
                    {}, {uint64_t(t) << 32 | uint64_t(i)}, 0};
                req.snapshot_cid = ~uint64_t{0} >> 1;
                pipeline.validate(std::move(req));
            }
        });
    }
    for (auto& thread : submitters) thread.join();
    done.store(true, std::memory_order_release);
    for (auto& thread : readers) thread.join();

    EXPECT_EQ(violations.load(), 0);
    const CounterBag final_bag = pipeline.stats();
    EXPECT_EQ(final_bag.get("commit"),
              uint64_t(kSubmitters) * kPerThread);
    EXPECT_EQ(final_bag.get("submitted"),
              uint64_t(kSubmitters) * kPerThread);
    EXPECT_GE(final_bag.get("queue_high_water"), 1u);
    pipeline.stop();
}

TEST(ResourceModel, ReproducesPaperTable)
{
    const ResourceEstimate e = estimate_resources({});
    EXPECT_EQ(e.registers, 113485u);
    EXPECT_EQ(e.alms, 249442u);
    EXPECT_EQ(e.dsps, 223u);
    EXPECT_EQ(e.bram_bits, 2055802u);
    EXPECT_DOUBLE_EQ(e.clock_mhz, 200.0);
    EXPECT_NEAR(e.registers_pct, 62.9, 0.1);
    EXPECT_NEAR(e.alms_pct, 58.39, 0.05);
    EXPECT_NEAR(e.dsps_pct, 14.7, 0.1);
    EXPECT_NEAR(e.bram_pct, 3.7, 0.1);
}

TEST(ResourceModel, MonotoneInWindowAndSignature)
{
    ResourceParams base;
    ResourceParams wide = base;
    wide.window = 128;
    ResourceParams fat = base;
    fat.signature_bits = 1024;

    const auto b = estimate_resources(base);
    const auto w = estimate_resources(wide);
    const auto f = estimate_resources(fat);
    EXPECT_GT(w.registers, b.registers);
    EXPECT_GT(w.bram_bits, b.bram_bits);
    EXPECT_GT(f.alms, b.alms);
    // §6.5: 1024-bit signatures cost clock frequency.
    EXPECT_LT(f.clock_mhz, b.clock_mhz);
    EXPECT_LT(w.clock_mhz, b.clock_mhz);
}

TEST(ResourceModel, Renders)
{
    const std::string text = to_string(estimate_resources({}));
    EXPECT_NE(text.find("113485"), std::string::npos);
    EXPECT_NE(text.find("MHz"), std::string::npos);
}

} // namespace
} // namespace rococo::fpga
