/// @file
/// Allocation canary for the zero-allocation request path: after
/// warmup (window filled, queue ring grown to its high-water,
/// counter names interned), a steady-state validation must perform
/// ZERO heap allocations end to end — classification scratch, the
/// validator's closure scratch, the pipeline's caller-owned slots and
/// the per-verdict counter arrays all reuse what warmup built. The test
/// binary replaces global operator new/delete with counting versions,
/// so any regression — a stray std::string, a vector that lost its
/// reserve, a promise on the sync path — fails deterministically
/// rather than showing up as a profile blip.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "fpga/validation_engine.h"
#include "fpga/validation_pipeline.h"
#include "kv/kv_2pl.h"
#include "kv/kv_store.h"
#include "obs/health.h"
#include "obs/registry.h"
#include "obs/timeseries.h"
#include "shard/router.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

uint64_t
allocations()
{
    return g_allocations.load(std::memory_order_relaxed);
}
} // namespace

// Counting global allocator. Deletes are deliberately not counted: the
// canary is "no allocation on the hot path", and every new implies a
// matching delete somewhere.
void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size)
{
    return operator new(size);
}

void*
operator new(std::size_t size, std::align_val_t align)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    void* p = nullptr;
    if (posix_memalign(&p, static_cast<std::size_t>(align),
                       size ? size : 1) == 0) {
        return p;
    }
    throw std::bad_alloc();
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace rococo {
namespace {

/// Deterministic always-commit workload: every request writes one
/// fresh key (never seen again — no cycles possible) plus one key from
/// a small rotating pool (real WAW edges, so the classify emit loop
/// and the backward-edge path run every iteration, not just on bloom
/// coincidences). No reads, so no forward edges and a guaranteed
/// kCommit — the steady state repeats one verdict, one code path.
fpga::OffloadRequest
workload_request(uint64_t i)
{
    fpga::OffloadRequest request;
    request.writes.push_back(uint64_t{1} << 32 | i); // unique
    request.writes.push_back(i % 32);                // contended pool
    request.snapshot_cid = 0;
    return request;
}

/// Request @p i's deadline: none for even i; for odd i one the workload
/// never reaches, so the timed wait runs without a timeout.
fpga::Deadline
deadline_for(uint64_t i)
{
    return i % 2 == 0
               ? fpga::kNoDeadline
               : std::chrono::steady_clock::now() + std::chrono::seconds(30);
}

TEST(HotPathAllocation, EngineProcessSteadyStateIsAllocationFree)
{
    // The paper's W=64 (512-bit, 4 hashes), then two- and four-word
    // reachability rows.
    for (const size_t window : {64, 128, 256}) {
        SCOPED_TRACE("W=" + std::to_string(window));
        fpga::EngineConfig config;
        config.window = window;
        fpga::ValidationEngine engine(config);
        uint64_t i = 0;
        // Warmup: fill the window twice over (evictions underway), reach
        // the classify scratch's high-water, intern the verdict counter.
        for (; i < std::max<uint64_t>(256, 4 * window); ++i) {
            ASSERT_EQ(engine.process(workload_request(i)).verdict,
                      core::Verdict::kCommit);
        }

        const uint64_t before = allocations();
        for (const uint64_t end = i + 1000; i < end; ++i) {
            ASSERT_EQ(engine.process(workload_request(i)).verdict,
                      core::Verdict::kCommit);
        }
        EXPECT_EQ(allocations() - before, 0u)
            << "engine.process() allocated on the steady-state path";
    }
}

TEST(HotPathAllocation, PipelineValidateSteadyStateIsAllocationFree)
{
    fpga::ValidationPipeline pipeline;
    uint64_t i = 0;
    // Warmup: window filled, pointer ring at its high-water, every
    // counter this workload touches interned. The validate() path is
    // sequential, so the ring never holds more than one slot.
    for (; i < 256; ++i) {
        ASSERT_EQ(pipeline.validate(workload_request(i)).verdict,
                  core::Verdict::kCommit);
    }

    // Odd calls take the timed wait (RococoTm's validation_timeout_ns).
    const uint64_t before = allocations();
    for (const uint64_t end = i + 1000; i < end; ++i) {
        ASSERT_EQ(pipeline.validate(workload_request(i), deadline_for(i))
                      .verdict,
                  core::Verdict::kCommit);
    }
    EXPECT_EQ(allocations() - before, 0u)
        << "pipeline.validate() allocated on the steady-state path";
}

/// The sharded tier the validation server runs inline: the same
/// workload through ShardRouter::validate() -> process() on two shards,
/// so both the single-shard route and the cross-shard two-phase route
/// stay warm.
/// After warmup (thread_local split and classify scratch grown,
/// per-shard windows evicting, the in-window commit ledger rings
/// wrapped), a steady-state call must allocate ZERO times.
TEST(HotPathAllocation, ShardRouterProcessSteadyStateIsAllocationFree)
{
    shard::ShardConfig config;
    config.shards = 2;
    shard::ShardRouter router(config);
    uint64_t i = 0;
    for (; i < 256; ++i) {
        ASSERT_EQ(router.process(workload_request(i)).verdict,
                  core::Verdict::kCommit);
    }

    // validate() is process() behind a deadline check; odd calls pass
    // a deadline.
    const uint64_t before = allocations();
    for (const uint64_t end = i + 1000; i < end; ++i) {
        ASSERT_EQ(router.validate(workload_request(i), deadline_for(i))
                      .verdict,
                  core::Verdict::kCommit);
    }
    EXPECT_EQ(allocations() - before, 0u)
        << "router.validate() allocated on the steady-state path";
    EXPECT_GT(router.stats().get("shard.cross"), 0u);
}

/// Conflicting workload: each round a writer commits a hot key, then a
/// victim re-reads and re-writes the same key behind a snapshot that
/// does not see that commit — a guaranteed cycle abort, every round,
/// that stays inside the sliding window forever. The abort path —
/// conflict-cid attribution walking window slots plus the top-K
/// forensics feed (at its default sample-every-abort rate, sketch
/// saturated on the 8-key hot set) — must be as allocation-free as the
/// commit path.
TEST(HotPathAllocation, AbortPathWithForensicsIsAllocationFree)
{
    fpga::ValidationEngine engine;

    // One writer-commit + victim-abort round on hot key (i % 8).
    // Returns the abort's conflict_cid for provenance checks.
    const auto round = [&engine](uint64_t i) -> uint64_t {
        fpga::OffloadRequest writer;
        writer.writes.push_back(i % 8);
        writer.snapshot_cid = ~uint64_t{0} >> 1; // current: commits
        const auto committed = engine.process(writer);
        EXPECT_EQ(committed.verdict, core::Verdict::kCommit);

        fpga::OffloadRequest victim;
        victim.reads.push_back(i % 8);
        victim.writes.push_back(i % 8);
        victim.snapshot_cid = committed.cid; // does not see the writer
        const auto aborted = engine.process(victim);
        EXPECT_EQ(aborted.verdict, core::Verdict::kAbortCycle);
        EXPECT_EQ(aborted.conflict_cid, committed.cid)
            << "cycle abort lost its provenance";
        return aborted.conflict_cid;
    };

    uint64_t i = 0;
    // Warmup: window churned past capacity, top-K sketch saturated,
    // abort-reason counters interned.
    for (; i < 128; ++i) {
        round(i);
        if (testing::Test::HasFailure()) return;
    }

    const uint64_t before = allocations();
    for (const uint64_t end = i + 500; i < end; ++i) {
        round(i);
        if (testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(allocations() - before, 0u)
        << "abort attribution or the top-K feed allocated on the "
           "steady-state path";
#ifndef ROCOCO_FORENSICS_OFF
    EXPECT_GT(engine.conflict_topk().offered(), 0u)
        << "forensics feed never ran despite aborts";
#endif
}

/// Continuous monitoring armed over the validation loop: an engine
/// processing requests while a MetricSampler + SloEngine (the
/// HealthMonitor pair every monitored server runs) tick on every
/// iteration, sampling a counter, a ratio, a gauge, a histogram
/// quantile and a callback series, with a live burn-rate rule. After
/// the rings have wrapped at least once, the combined loop — engine
/// pass, sampler tick, SLO evaluation — must be exactly
/// allocation-free: the monitoring substrate resolved its sources and
/// sized its rings at construction, and a steady-state sample writes
/// into preallocated storage only.
TEST(HotPathAllocation, MonitoredSteadyStateIsAllocationFree)
{
    fpga::ValidationEngine engine;
    obs::Registry registry;
    obs::Counter& requests = registry.counter("requests");
    obs::Counter& aborts = registry.counter("aborts");
    obs::Gauge& depth = registry.gauge("depth");
    obs::LatencyHistogram& latency = registry.histogram("latency");

    obs::MetricSamplerConfig sampler_config;
    sampler_config.sample_period_ns = 1; // sample on every tick
    sampler_config.ring_capacity = 32;   // wraps fast
    {
        obs::SeriesSpec spec;
        spec.name = "requests";
        spec.kind = obs::SeriesKind::kCounter;
        spec.counters = {&requests};
        sampler_config.series.push_back(spec);
    }
    {
        obs::SeriesSpec spec;
        spec.name = "abort_rate";
        spec.kind = obs::SeriesKind::kRatio;
        spec.counters = {&aborts};
        spec.denominators = {&requests};
        sampler_config.series.push_back(spec);
    }
    {
        obs::SeriesSpec spec;
        spec.name = "depth";
        spec.kind = obs::SeriesKind::kGauge;
        spec.gauge = &depth;
        sampler_config.series.push_back(spec);
    }
    {
        obs::SeriesSpec spec;
        spec.name = "p99";
        spec.kind = obs::SeriesKind::kQuantile;
        spec.histogram = &latency;
        sampler_config.series.push_back(spec);
    }
    {
        obs::SeriesSpec spec;
        spec.name = "occupancy";
        spec.kind = obs::SeriesKind::kCallback;
        spec.callback = [&engine] {
            return double(engine.next_cid() - engine.window_start());
        };
        sampler_config.series.push_back(spec);
    }

    obs::SloEngineConfig slo_config;
    obs::SloRule rule;
    rule.name = "abort-rate";
    rule.series = "abort_rate";
    rule.threshold = 0.9;
    rule.fast_window_ns = 50;
    rule.slow_window_ns = 400;
    rule.min_weight = 1.0;
    slo_config.rules.push_back(rule);

    obs::HealthMonitor monitor(std::move(sampler_config),
                               std::move(slo_config));

    uint64_t now_ns = 1;
    const auto iteration = [&](uint64_t i) {
        const auto result = engine.process(workload_request(i));
        EXPECT_EQ(result.verdict, core::Verdict::kCommit);
        requests.add(1);
        latency.record(100 + i % 700);
        depth.set(double(i % 64));
        monitor.tick(now_ns);
        now_ns += 10;
    };

    uint64_t i = 0;
    // Warmup: engine window churned AND every series ring wrapped
    // (capacity 32, one sample per iteration), so ring pushes overwrite
    // rather than grow and the SLO has full windows to aggregate.
    for (; i < 256; ++i) {
        iteration(i);
        if (testing::Test::HasFailure()) return;
    }
    ASSERT_GT(monitor.sampler().samples_taken(), 64u);

    const uint64_t before = allocations();
    for (const uint64_t end = i + 1000; i < end; ++i) {
        iteration(i);
        if (testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(allocations() - before, 0u)
        << "the armed sampler/SLO tick allocated on the steady-state "
           "path";
    EXPECT_EQ(monitor.slo().overall(), obs::HealthState::kOk);
}

/// Steady-state KV operations — get, put, scan and a 4-key rmw, the
/// full transaction machinery under each one — must be
/// allocation-free per committed transaction: key hashing is in
/// place, op contexts live on the stack (the execute closure is two
/// words, inside std::function's inline buffer), the descriptor's
/// sets/signatures and the commit-log scratch reuse their high-water
/// capacity, the offload address sets stay inline, and every kv.*
/// metric handle was resolved at store construction.
TEST(HotPathAllocation, KvOccSteadyStateIsAllocationFree)
{
    kv::KvStoreConfig config;
    config.capacity = 1 << 12; // sparse: probe chains stay short
    kv::KvStore store(config);
    store.thread_init(0);

    // Fixed key set, formatted once — the op path takes string_views.
    constexpr size_t kKeys = 64;
    std::vector<std::string> key_strings;
    std::vector<std::string_view> keys;
    for (size_t i = 0; i < kKeys; ++i) {
        key_strings.push_back("user" + std::to_string(i));
    }
    for (const std::string& k : key_strings) keys.push_back(k);
    for (size_t i = 0; i < kKeys; ++i) {
        ASSERT_EQ(store.put(keys[i], i), kv::KvStatus::kOk);
    }

    const auto iteration = [&](uint64_t i) {
        uint64_t value = 0;
        EXPECT_EQ(store.get(keys[i % kKeys], value), kv::KvStatus::kOk);
        EXPECT_EQ(store.put(keys[(i + 1) % kKeys], i), kv::KvStatus::kOk);
        const std::string_view scan_keys[4] = {
            keys[i % kKeys], keys[(i + 7) % kKeys],
            keys[(i + 13) % kKeys], keys[(i + 21) % kKeys]};
        kv::RmwEntry entries[4];
        EXPECT_EQ(store.scan(scan_keys, entries), kv::KvStatus::kOk);
        auto body = [](std::span<kv::RmwEntry> e) {
            for (kv::RmwEntry& entry : e) {
                entry.value += 1;
                entry.write = true;
            }
        };
        EXPECT_EQ(store.rmw(scan_keys, body), kv::KvStatus::kOk);
    };

    uint64_t i = 0;
    // Warmup: descriptor sets/redo at high-water, commit log warm,
    // every touched metric interned.
    for (; i < 256; ++i) {
        iteration(i);
        if (testing::Test::HasFailure()) return;
    }

    const uint64_t before = allocations();
    for (const uint64_t end = i + 1000; i < end; ++i) {
        iteration(i);
        if (testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(allocations() - before, 0u)
        << "a KV operation allocated on the steady-state path";
    store.thread_fini();
}

/// The 2PL baseline's point ops and bounded multi-key transactions
/// make the same promise (stripe sets live in inline SmallVectors).
TEST(HotPathAllocation, Kv2plSteadyStateIsAllocationFree)
{
    kv::Kv2plConfig config;
    config.capacity = 1 << 12;
    kv::KvStore2pl store(config);
    store.thread_init(0);

    constexpr size_t kKeys = 64;
    std::vector<std::string> key_strings;
    std::vector<std::string_view> keys;
    for (size_t i = 0; i < kKeys; ++i) {
        key_strings.push_back("user" + std::to_string(i));
    }
    for (const std::string& k : key_strings) keys.push_back(k);
    for (size_t i = 0; i < kKeys; ++i) {
        ASSERT_EQ(store.put(keys[i], i), kv::KvStatus::kOk);
    }

    const auto iteration = [&](uint64_t i) {
        uint64_t value = 0;
        EXPECT_EQ(store.get(keys[i % kKeys], value), kv::KvStatus::kOk);
        EXPECT_EQ(store.put(keys[(i + 1) % kKeys], i), kv::KvStatus::kOk);
        const std::string_view txn_keys[4] = {
            keys[i % kKeys], keys[(i + 7) % kKeys],
            keys[(i + 13) % kKeys], keys[(i + 21) % kKeys]};
        kv::RmwEntry entries[4];
        EXPECT_EQ(store.scan(txn_keys, entries), kv::KvStatus::kOk);
        auto body = [](std::span<kv::RmwEntry> e) {
            for (kv::RmwEntry& entry : e) {
                entry.value += 1;
                entry.write = true;
            }
        };
        EXPECT_EQ(store.rmw(txn_keys, body), kv::KvStatus::kOk);
    };

    uint64_t i = 0;
    for (; i < 256; ++i) {
        iteration(i);
        if (testing::Test::HasFailure()) return;
    }

    const uint64_t before = allocations();
    for (const uint64_t end = i + 1000; i < end; ++i) {
        iteration(i);
        if (testing::Test::HasFailure()) return;
    }
    EXPECT_EQ(allocations() - before, 0u)
        << "a 2PL KV operation allocated on the steady-state path";
    store.thread_fini();
}

} // namespace
} // namespace rococo
