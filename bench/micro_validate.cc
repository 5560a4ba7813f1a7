/// Hot-path microbench for the validation request path: the two
/// numbers the bit-sliced detector rework is accountable for
/// (docs/PERFORMANCE.md, BENCH_hotpath.json).
///
///   1. classify ns/request — the column-major kernel
///      (ConflictDetector::classify_into) against the row-major walk
///      it replaced (classify_scalar), same live history, same
///      requests, timed back to back in kRounds rounds and screened
///      like the round trip below. The scalar loop's fresh result
///      vectors are part of its measured cost: that is exactly what
///      the seed path did per request.
///   2. engine ns/request — ValidationEngine::process() (classify,
///      decide, commit or abort) on a full window, from the classify
///      rows' request pool, each request's snapshot half a window back.
///   3. pipeline validate ns + allocations/validation — the full
///      synchronous round trip through ValidationPipeline::validate()
///      (post, worker classify+decide, slot wakeup) in steady state,
///      with this binary's counting operator new proving the
///      zero-allocation claim outside the test harness. It runs in
///      kRounds rounds; a round in which any of this process's threads
///      waited for a CPU (run-queue delay, /proc/self/task/*/schedstat
///      field 2) is dropped, and the figure is the median of the clean
///      rounds, so a host that steals the CPU cannot pose as a slow
///      round trip.
///   4. the same round trip with two callers going back to back, the
///      shape of the repo benchmark's kv-hot-update writers: each
///      call's latency includes the handoffs of the other caller's
///      requests served in between.
///
/// The window is kept full, so every classification scans a full
/// history and every commit evicts — the steady state of a saturated
/// engine, which is where the O(W*k) vs O(k) gap matters.
///
/// Usage: micro_validate [--iters=200000] [--pipeline-iters=50000]
///                       [--reads=4] [--writes=4] [--pool=4096]
///                       [--seed=1] [--csv=PATH]
///   Sweeps (window, signature bits, hashes) over the paper geometry
///   W=64/512-bit/k=4 plus two contrast points. --csv writes one row
///   per geometry — the input scripts/bench_summary.py --hotpath-csv
///   distills into BENCH_hotpath.json.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "fpga/validation_pipeline.h"
#include "run_queue_delay.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}

void*
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
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

using namespace rococo;

namespace {

struct Geometry
{
    size_t window;
    unsigned sig_bits;
    unsigned hashes;
};

/// Rounds of the classify timings and of the one-caller round trip
/// (see the file comment).
constexpr int kRounds = 25;

struct Result
{
    double sliced_ns = 0; ///< classify_into() per request
    double scalar_ns = 0; ///< classify_scalar() per request
    int classify_clean_rounds = 0; ///< of kRounds, for both classify figures
    double engine_ns = 0; ///< ValidationEngine::process() per request
    /// One caller: median per-call round trip over the clean rounds (0
    /// when none is clean), and how many of kRounds were clean.
    double pipeline_ns = 0;
    int clean_rounds = 0;
    double pipeline2_ns = 0; ///< per call, two callers back to back
    double allocs_per_validation = 0;
};

uint64_t
now_ns()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Median of @p values (0 when empty); reorders them.
double
median(std::vector<double>& values)
{
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

/// Requests drawn from one address pool, so classification hits real
/// history entries (the emit loop runs) instead of timing the
/// zero-match early exit.
std::vector<fpga::OffloadRequest>
build_requests(size_t count, size_t reads, size_t writes, uint64_t pool,
               uint64_t snapshot, Xoshiro256& rng)
{
    std::vector<fpga::OffloadRequest> requests(count);
    for (auto& request : requests) {
        for (size_t i = 0; i < reads; ++i) {
            request.reads.push_back(rng() % pool);
        }
        for (size_t i = 0; i < writes; ++i) {
            request.writes.push_back(rng() % pool);
        }
        request.snapshot_cid = snapshot;
    }
    return requests;
}

Result
run_geometry(const Geometry& geometry, uint64_t iters,
             uint64_t pipeline_iters, size_t reads, size_t writes,
             uint64_t pool, uint64_t seed)
{
    Result result;
    uint64_t sink = 0; // defeat dead-code elimination
    Xoshiro256 rng(seed);
    std::vector<fpga::OffloadRequest> requests;

    // --- both classifications on a bare detector with a full window ---
    {
        auto config = std::make_shared<const sig::SignatureConfig>(
            geometry.sig_bits, geometry.hashes, seed);
        fpga::ConflictDetector detector(geometry.window, config);
        fpga::OffloadRequest committed;
        for (uint64_t cid = 0; cid < geometry.window; ++cid) {
            committed.reads.clear();
            committed.writes.clear();
            for (size_t i = 0; i < reads; ++i) {
                committed.reads.push_back(rng() % pool);
            }
            for (size_t i = 0; i < writes; ++i) {
                committed.writes.push_back(rng() % pool);
            }
            detector.record_commit(cid, committed);
        }
        requests = build_requests(1024, reads, writes, pool,
                                  geometry.window / 2, rng);

        core::ValidationRequest out; // reused: the zero-alloc hot path
        for (const auto& request : requests) { // warm caches + capacity
            detector.classify_into(request, &out);
            sink += out.forward.size();
        }
        // kRounds rounds of both walks back to back, so drift hits
        // them alike; the figures are the medians of the rounds in
        // which this thread did not wait for a CPU (of all rounds when
        // none was clean).
        const RunQueueDelay run_queue;
        const uint64_t per_round = std::max<uint64_t>(1, iters / kRounds);
        std::vector<double> sliced, scalar, sliced_all, scalar_all;
        uint64_t i = 0;
        for (int round = 0; round < kRounds; ++round) {
            const uint64_t waited0 = run_queue.ns();
            const uint64_t s0 = now_ns();
            for (const uint64_t end = i + per_round; i < end; ++i) {
                detector.classify_into(requests[i % requests.size()], &out);
                sink += out.backward.size();
            }
            const uint64_t s1 = now_ns();
            for (uint64_t j = i - per_round; j < i; ++j) {
                const core::ValidationRequest walked =
                    detector.classify_scalar(requests[j % requests.size()]);
                sink += walked.backward.size();
            }
            const uint64_t s2 = now_ns();
            sliced_all.push_back(double(s1 - s0) / double(per_round));
            scalar_all.push_back(double(s2 - s1) / double(per_round));
            if (run_queue.ns() <= waited0) {
                sliced.push_back(sliced_all.back());
                scalar.push_back(scalar_all.back());
            }
        }
        result.classify_clean_rounds = static_cast<int>(sliced.size());
        result.sliced_ns = median(sliced.empty() ? sliced_all : sliced);
        result.scalar_ns = median(scalar.empty() ? scalar_all : scalar);
    }

    fpga::EngineConfig config;
    config.window = geometry.window;
    config.signature_bits = geometry.sig_bits;
    config.signature_hashes = geometry.hashes;
    // Unique write (always commits) plus one from a contended pool.
    auto request = [&](uint64_t i) {
        fpga::OffloadRequest r;
        r.writes.push_back(uint64_t{1} << 32 | i);
        r.writes.push_back(i % 32);
        return r;
    };

    // --- bare engine, full window, the classify rows' request pool ---
    {
        fpga::ValidationEngine engine(config);
        for (uint64_t i = 0; i < 2 * geometry.window; ++i) {
            sink += engine.process(request(i)).cid;
        }
        const uint64_t t0 = now_ns();
        for (uint64_t i = 0; i < iters; ++i) {
            fpga::OffloadRequest& r = requests[i % requests.size()];
            r.snapshot_cid = engine.next_cid() - geometry.window / 2;
            sink += engine.process(r).cid;
        }
        result.engine_ns = double(now_ns() - t0) / double(iters);
    }

    // --- full pipeline round trip, steady state, counted allocations ---
    {
        fpga::ValidationPipeline pipeline(config);
        uint64_t i = 0;
        for (; i < 2 * geometry.window; ++i) { // fill the window
            sink += pipeline.validate(request(i)).cid;
        }
        // kRounds rounds; only the timed calls are allocation-counted,
        // not the schedstat reads between them.
        const RunQueueDelay run_queue; // after the worker has started
        const uint64_t per_round =
            std::max<uint64_t>(1, pipeline_iters / kRounds);
        std::vector<double> clean;
        uint64_t allocs = 0;
        for (int round = 0; round < kRounds; ++round) {
            const uint64_t waited0 = run_queue.ns();
            const uint64_t allocs0 =
                g_allocations.load(std::memory_order_relaxed);
            const uint64_t t0 = now_ns();
            for (const uint64_t end = i + per_round; i < end; ++i) {
                sink += pipeline.validate(request(i)).cid;
            }
            const uint64_t t1 = now_ns();
            allocs +=
                g_allocations.load(std::memory_order_relaxed) - allocs0;
            if (run_queue.ns() <= waited0) {
                clean.push_back(double(t1 - t0) / double(per_round));
            }
        }
        result.clean_rounds = static_cast<int>(clean.size());
        result.pipeline_ns = median(clean);
        result.allocs_per_validation =
            double(allocs) / double(per_round * kRounds);

        // Two callers, each timing its own back-to-back calls.
        std::atomic<int> started{0};
        std::atomic<uint64_t> caller_ns{0};
        const auto caller = [&](uint64_t first) {
            started.fetch_add(1);
            while (started.load() < 2) {}
            uint64_t local_sink = 0;
            const uint64_t c0 = now_ns();
            for (uint64_t k = first; k < first + pipeline_iters; ++k) {
                local_sink += pipeline.validate(request(k)).cid;
            }
            caller_ns.fetch_add(now_ns() - c0);
            return local_sink;
        };
        uint64_t other_sink = 0;
        std::thread other([&] { other_sink = caller(i + pipeline_iters); });
        sink += caller(i);
        other.join();
        sink += other_sink;
        result.pipeline2_ns =
            double(caller_ns.load()) / double(2 * pipeline_iters);
    }

    if (sink == 0xdead) std::printf("\n"); // keep `sink` observable
    return result;
}

} // namespace

int
main(int argc, char** argv)
{
    Cli cli(argc, argv,
            {"iters", "pipeline-iters", "reads", "writes", "pool", "seed",
             "csv"});
    const uint64_t iters =
        static_cast<uint64_t>(cli.get_int("iters", 200000));
    const uint64_t pipeline_iters =
        static_cast<uint64_t>(cli.get_int("pipeline-iters", 50000));
    const size_t reads = static_cast<size_t>(cli.get_int("reads", 4));
    const size_t writes = static_cast<size_t>(cli.get_int("writes", 4));
    const uint64_t pool = static_cast<uint64_t>(cli.get_int("pool", 4096));
    const uint64_t seed = static_cast<uint64_t>(cli.get_int("seed", 1));
    const std::string csv_path = cli.get("csv", "");

    std::printf("Validation hot path: bit-sliced classify vs the "
                "row-major scalar walk (full window, %zu reads + %zu "
                "writes per request), plus the steady-state pipeline "
                "round trip with counted heap allocations.\n\n",
                reads, writes);

    std::ofstream csv;
    if (!csv_path.empty()) {
        csv.open(csv_path);
        csv << "window,sig_bits,hashes,reads,writes,iters,"
               "sliced_ns,scalar_ns,speedup,pipeline_validate_ns,"
               "allocs_per_validation,pipeline2_validate_ns,engine_ns,"
               "pipeline_rounds,pipeline_clean_rounds,"
               "classify_clean_rounds\n";
    }

    Table table({"W", "m", "k", "sliced ns", "scalar ns", "speedup",
                 "classify clean", "engine ns", "pipeline ns",
                 "pipeline clean", "allocs/val", "2-caller ns"});
    // W=64/512/4 is the paper deployment and the canary row; the other
    // two vary one axis each (signature size, multi-word columns).
    for (const Geometry& geometry : {Geometry{64, 512, 4},
                                     Geometry{64, 256, 4},
                                     Geometry{128, 512, 4}}) {
        const Result r = run_geometry(geometry, iters, pipeline_iters,
                                      reads, writes, pool, seed);
        const double speedup = r.sliced_ns > 0 ? r.scalar_ns / r.sliced_ns : 0;
        table.row()
            .num(geometry.window, 0)
            .num(geometry.sig_bits, 0)
            .num(geometry.hashes, 0)
            .num(r.sliced_ns, 1)
            .num(r.scalar_ns, 1)
            .num(speedup, 2)
            .cell(std::to_string(r.classify_clean_rounds) + "/" +
                  std::to_string(kRounds))
            .num(r.engine_ns, 0)
            .num(r.pipeline_ns, 0)
            .cell(std::to_string(r.clean_rounds) + "/" +
                  std::to_string(kRounds))
            .num(r.allocs_per_validation, 3)
            .num(r.pipeline2_ns, 0);
        if (csv.is_open()) {
            csv << geometry.window << ',' << geometry.sig_bits << ','
                << geometry.hashes << ',' << reads << ',' << writes << ','
                << iters << ',' << r.sliced_ns << ',' << r.scalar_ns << ','
                << speedup << ',' << r.pipeline_ns << ','
                << r.allocs_per_validation << ',' << r.pipeline2_ns << ','
                << r.engine_ns << ',' << kRounds << ',' << r.clean_rounds
                << ',' << r.classify_clean_rounds << '\n';
        }
    }
    table.print();
    std::printf("\nThe scalar walk re-queries every window signature "
                "(O(W*k) per address); the bit-sliced kernel loads k "
                "occupancy columns and ANDs (O(k) words); both are the "
                "median over the classify clean rounds. The engine "
                "column is ValidationEngine::process() alone. The pipeline "
                "column is the full cross-thread validate() round trip, "
                "the median over the clean rounds (no thread of this "
                "process waited for a CPU); allocs/val is this binary's "
                "global operator-new count per steady-state validation "
                "(expected: 0); 2-caller is the round trip per call with "
                "two callers back to back.\n");
    return 0;
}
