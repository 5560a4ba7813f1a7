/// Hot-path microbench for the validation request path: the two
/// numbers the bit-sliced detector rework is accountable for
/// (docs/PERFORMANCE.md, BENCH_hotpath.json).
///
///   1. classify ns/request — the column-major kernel
///      (ConflictDetector::classify_into) against the row-major walk
///      it replaced (classify_scalar), same live history, same
///      requests. The scalar loop's fresh result vectors are part of
///      its measured cost: that is exactly what the seed path did per
///      request. The match kernels (portable and SIMD) are timed in
///      kRounds interleaved rounds, each kernel once per round; a round
///      in which the process waited for a CPU is dropped, and each
///      kernel reports the median of its clean rounds plus the median
///      of its per-round speedup over the portable kernel.
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
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "fpga/validation_pipeline.h"

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

/// Rounds of the kernel timings and of the one-caller round trip (see
/// the file comment).
constexpr int kRounds = 25;

struct KernelTiming
{
    sig::MatchKernel kernel;
    /// Medians over the clean rounds (0 when none is clean): ns per
    /// request, and this kernel's speedup over the portable kernel in
    /// the same round.
    double sliced_ns = 0;
    double vs_portable = 0;
};

struct Result
{
    /// One timing per runtime-available match kernel (scalar always
    /// first), same history and request stream for each, and how many
    /// of kRounds rounds of them were clean.
    std::vector<KernelTiming> kernels;
    int kernel_clean_rounds = 0;
    double scalar_ns = 0;
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

/// Time this process's threads have spent runnable but waiting for a
/// CPU, in ns: the sum of field 2 of /proc/self/task/*/schedstat over
/// the threads alive at construction. The files stay open, so a read
/// between rounds takes microseconds and the pipeline worker keeps
/// spinning through it instead of parking between rounds. Reads 0
/// where the kernel does not expose the files, so then every round is
/// clean.
class RunQueueDelay
{
  public:
    RunQueueDelay()
    {
        std::error_code error;
        for (const auto& task : std::filesystem::directory_iterator(
                 "/proc/self/task", error)) {
            const int fd =
                ::open((task.path() / "schedstat").c_str(), O_RDONLY);
            if (fd >= 0) fds_.push_back(fd);
        }
    }
    ~RunQueueDelay()
    {
        for (int fd : fds_) ::close(fd);
    }
    RunQueueDelay(const RunQueueDelay&) = delete;
    RunQueueDelay& operator=(const RunQueueDelay&) = delete;

    uint64_t
    ns() const
    {
        uint64_t total = 0;
        for (int fd : fds_) {
            char text[128];
            const ssize_t n = ::pread(fd, text, sizeof text - 1, 0);
            if (n <= 0) continue;
            text[n] = '\0';
            unsigned long long on_cpu = 0, waited = 0;
            if (std::sscanf(text, "%llu %llu", &on_cpu, &waited) == 2) {
                total += waited;
            }
        }
        return total;
    }

  private:
    std::vector<int> fds_;
};

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

    // --- classify kernels on a bare detector with a full window ---
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
        const auto kernels = sig::runtime_kernels();
        for (sig::MatchKernel kernel : kernels) {
            detector.set_match_kernel(kernel);
            for (const auto& request : requests) { // warm caches + capacity
                detector.classify_into(request, &out);
                sink += out.forward.size();
            }
        }
        // Interleaved rounds: every kernel runs once per round, in an
        // order that flips each round, so drift and steal hit them
        // alike; a round in which this (single-threaded) process waited
        // for a CPU is dropped as a whole.
        const RunQueueDelay run_queue;
        const uint64_t per_round = std::max<uint64_t>(1, iters / kRounds);
        std::vector<std::vector<double>> ns(kernels.size());
        std::vector<std::vector<double>> vs_portable(kernels.size());
        std::vector<double> round_ns(kernels.size());
        uint64_t next = 0;
        for (int round = 0; round < kRounds; ++round) {
            const uint64_t waited0 = run_queue.ns();
            for (size_t j = 0; j < kernels.size(); ++j) {
                const size_t k = round % 2 ? kernels.size() - 1 - j : j;
                detector.set_match_kernel(kernels[k]);
                const uint64_t t0 = now_ns();
                for (const uint64_t end = next + per_round; next < end;
                     ++next) {
                    detector.classify_into(
                        requests[next % requests.size()], &out);
                    sink += out.backward.size();
                }
                round_ns[k] = double(now_ns() - t0) / double(per_round);
            }
            if (run_queue.ns() > waited0) continue;
            ++result.kernel_clean_rounds;
            for (size_t k = 0; k < kernels.size(); ++k) {
                ns[k].push_back(round_ns[k]);
                vs_portable[k].push_back(round_ns[k] > 0
                                             ? round_ns[0] / round_ns[k]
                                             : 0);
            }
        }
        for (size_t k = 0; k < kernels.size(); ++k) {
            result.kernels.push_back(
                {kernels[k], median(ns[k]), median(vs_portable[k])});
        }
        detector.set_match_kernel(sig::best_kernel());

        const uint64_t t0 = now_ns();
        for (uint64_t i = 0; i < iters; ++i) {
            const core::ValidationRequest scalar =
                detector.classify_scalar(requests[i % requests.size()]);
            sink += scalar.backward.size();
        }
        const uint64_t t1 = now_ns();
        result.scalar_ns = double(t1 - t0) / double(iters);
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
        csv << "window,sig_bits,hashes,reads,writes,iters,kernel,"
               "sliced_ns,scalar_ns,speedup,pipeline_validate_ns,"
               "allocs_per_validation,pipeline2_validate_ns,engine_ns,"
               "pipeline_rounds,pipeline_clean_rounds,vs_portable,"
               "kernel_clean_rounds\n";
    }

    Table table({"W", "m", "k", "kernel", "sliced ns", "vs portable",
                 "scalar ns", "speedup", "engine ns", "pipeline ns",
                 "clean rounds", "allocs/val", "2-caller ns"});
    // W=64/512/4 is the paper deployment and the canary row; the other
    // two vary one axis each (signature size, multi-word columns). One
    // output row per (geometry, runtime-available match kernel).
    for (const Geometry& geometry : {Geometry{64, 512, 4},
                                     Geometry{64, 256, 4},
                                     Geometry{128, 512, 4}}) {
        const Result r = run_geometry(geometry, iters, pipeline_iters,
                                      reads, writes, pool, seed);
        for (const KernelTiming& t : r.kernels) {
            const double speedup =
                t.sliced_ns > 0 ? r.scalar_ns / t.sliced_ns : 0;
            table.row()
                .num(geometry.window, 0)
                .num(geometry.sig_bits, 0)
                .num(geometry.hashes, 0)
                .cell(sig::to_string(t.kernel))
                .num(t.sliced_ns, 1)
                .num(t.vs_portable, 2)
                .num(r.scalar_ns, 1)
                .num(speedup, 2)
                .num(r.engine_ns, 0)
                .num(r.pipeline_ns, 0)
                .cell(std::to_string(r.kernel_clean_rounds) + "+" +
                      std::to_string(r.clean_rounds) + "/" +
                      std::to_string(kRounds))
                .num(r.allocs_per_validation, 3)
                .num(r.pipeline2_ns, 0);
            if (csv.is_open()) {
                csv << geometry.window << ',' << geometry.sig_bits << ','
                    << geometry.hashes << ',' << reads << ',' << writes
                    << ',' << iters << ',' << sig::to_string(t.kernel)
                    << ',' << t.sliced_ns << ',' << r.scalar_ns << ','
                    << speedup << ',' << r.pipeline_ns << ','
                    << r.allocs_per_validation << ',' << r.pipeline2_ns
                    << ',' << r.engine_ns << ',' << kRounds << ','
                    << r.clean_rounds << ',' << t.vs_portable << ','
                    << r.kernel_clean_rounds << '\n';
            }
        }
    }
    table.print();
    std::printf("\nThe scalar walk re-queries every window signature "
                "(O(W*k) per address); the bit-sliced kernel loads k "
                "occupancy columns and ANDs (O(k) words); sliced ns and "
                "vs portable (its speedup over the portable bit-sliced "
                "kernel in the same round) are medians over the clean "
                "kernel rounds. The engine "
                "column is ValidationEngine::process() alone. The pipeline "
                "column is the full cross-thread validate() round trip, "
                "the median over the clean rounds (no thread of this "
                "process waited for a CPU); clean rounds reads kernel + "
                "pipeline rounds; allocs/val is this binary's "
                "global operator-new count per steady-state validation "
                "(expected: 0); 2-caller is the round trip per call with "
                "two callers back to back.\n");
    return 0;
}
