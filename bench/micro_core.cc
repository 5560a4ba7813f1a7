/// google-benchmark micro-benchmarks of the hot primitives: bloom
/// signature operations, reachability-matrix probe/insert, exact
/// validation, redo-log access, and commit-log snapshot scans. These
/// quantify the per-operation costs the simulator's cost model
/// abstracts (src/sim/cost_model.cc).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "core/reachability_matrix.h"
#include "core/rococo_validator.h"
#include "sig/bloom_signature.h"
#include "tm/commit_log.h"
#include "fpga/validation_engine.h"
#include "tm/redo_log.h"

using namespace rococo;

namespace {

std::shared_ptr<const sig::SignatureConfig>
sig_config(unsigned m = 512, unsigned k = 4)
{
    return std::make_shared<const sig::SignatureConfig>(m, k);
}

void
BM_BloomInsert(benchmark::State& state)
{
    sig::BloomSignature s(sig_config(state.range(0)));
    Xoshiro256 rng(1);
    for (auto _ : state) {
        s.insert(rng());
        benchmark::DoNotOptimize(s);
    }
}
BENCHMARK(BM_BloomInsert)->Arg(512)->Arg(1024);

void
BM_BloomQuery(benchmark::State& state)
{
    sig::BloomSignature s(sig_config(state.range(0)));
    Xoshiro256 rng(2);
    for (int i = 0; i < 8; ++i) s.insert(rng());
    uint64_t key = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(s.query(key++));
    }
}
BENCHMARK(BM_BloomQuery)->Arg(512)->Arg(1024);

void
BM_BloomIntersect(benchmark::State& state)
{
    auto cfg = sig_config(state.range(0));
    sig::BloomSignature a(cfg), b(cfg);
    Xoshiro256 rng(3);
    for (int i = 0; i < 8; ++i) {
        a.insert(rng());
        b.insert(rng());
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.intersects(b));
    }
}
BENCHMARK(BM_BloomIntersect)->Arg(512)->Arg(1024);

void
BM_MatrixProbe(benchmark::State& state)
{
    const size_t window = state.range(0);
    core::ReachabilityMatrix m(window);
    Xoshiro256 rng(4);
    // Fill the window with a random DAG via sequential inserts.
    for (size_t slot = 0; slot < window; ++slot) {
        core::SlotSet f, b;
        for (size_t j = 0; j < slot; ++j) {
            if (rng.chance(0.05)) b.set(j);
        }
        auto probe = m.probe(f, b);
        m.insert(slot, probe);
    }
    core::SlotSet f, b;
    f.set(rng.below(window));
    b.set(rng.below(window));
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.probe(f, b));
    }
}
BENCHMARK(BM_MatrixProbe)->Arg(64)->Arg(128)->Arg(256);

/// Request shapes for BM_ValidatorCommit, drawn before timing: each is
/// a list of backward-edge distances d in [1, window] (edge to cid
/// next_cid - d), each distance taken with chance 0.05.
std::vector<std::vector<uint64_t>>
backward_distances(size_t window, size_t count, Xoshiro256& rng)
{
    std::vector<std::vector<uint64_t>> shapes(count);
    for (auto& shape : shapes) {
        for (uint64_t d = 1; d <= window; ++d) {
            if (rng.chance(0.05)) shape.push_back(d);
        }
    }
    return shapes;
}

void
BM_ValidatorCommit(benchmark::State& state)
{
    const size_t window = state.range(0);
    core::SlidingWindowValidator v(window);
    Xoshiro256 rng(5);
    const auto shapes = backward_distances(window, 1024, rng);
    // One request whose vectors keep their capacity; the timed loop
    // only rewrites the cids relative to the moving window.
    core::ValidationRequest req;
    req.backward.reserve(window);
    size_t next = 0;
    auto fill = [&] {
        const auto& shape = shapes[next++ % shapes.size()];
        req.backward.clear();
        for (uint64_t d : shape) {
            if (d <= v.next_cid()) req.backward.push_back(v.next_cid() - d);
        }
    };
    for (size_t i = 0; i < 2 * window; ++i) { // fill: every commit evicts
        fill();
        v.validate_and_commit(req);
    }
    for (auto _ : state) {
        fill();
        benchmark::DoNotOptimize(v.validate_and_commit(req));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ValidatorCommit)->Arg(64)->Arg(128)->Arg(256);

void
BM_ExactValidate(benchmark::State& state)
{
    core::ExactRococoValidator v(64);
    Xoshiro256 rng(6);
    const size_t set_size = state.range(0);
    for (auto _ : state) {
        std::vector<uint64_t> reads, writes;
        for (size_t i = 0; i < set_size; ++i) {
            reads.push_back(rng.below(4096));
            writes.push_back(rng.below(4096));
        }
        benchmark::DoNotOptimize(
            v.validate(reads, writes, v.next_cid()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ExactValidate)->Arg(4)->Arg(16)->Arg(64);

void
BM_RedoLogPutGet(benchmark::State& state)
{
    tm::RedoLog log;
    std::vector<tm::TmCell> cells(64);
    Xoshiro256 rng(7);
    for (auto _ : state) {
        log.clear();
        for (int i = 0; i < 16; ++i) {
            log.put(&cells[rng.below(64)], rng());
        }
        tm::Word v;
        benchmark::DoNotOptimize(log.get(&cells[rng.below(64)], v));
    }
}
BENCHMARK(BM_RedoLogPutGet);

void
BM_CommitLogCollect(benchmark::State& state)
{
    auto cfg = sig_config();
    tm::CommitLog log(cfg, 1 << 12);
    sig::BloomSignature sig(cfg);
    Xoshiro256 rng(8);
    for (int i = 0; i < 8; ++i) sig.insert(rng());
    const uint64_t lag = state.range(0);
    for (uint64_t cid = 0; cid < lag; ++cid) {
        log.publish(cid, sig);
        log.advance(cid);
    }
    sig::BloomSignature temp(cfg);
    for (auto _ : state) {
        temp.clear();
        benchmark::DoNotOptimize(log.collect(0, lag, temp));
    }
}
BENCHMARK(BM_CommitLogCollect)->Arg(1)->Arg(8)->Arg(64);

void
BM_DetectorClassify(benchmark::State& state)
{
    auto cfg = sig_config();
    fpga::ConflictDetector detector(64, cfg);
    Xoshiro256 rng(9);
    for (uint64_t cid = 0; cid < 64; ++cid) {
        fpga::OffloadRequest commit;
        for (int i = 0; i < 8; ++i) commit.reads.push_back(rng.below(4096));
        for (int i = 0; i < 4; ++i) {
            commit.writes.push_back(rng.below(4096));
        }
        detector.record_commit(cid, commit);
    }
    fpga::OffloadRequest request;
    for (int i = 0; i < state.range(0); ++i) {
        request.reads.push_back(rng.below(4096));
    }
    request.writes.push_back(rng.below(4096));
    request.snapshot_cid = 32;
    for (auto _ : state) {
        benchmark::DoNotOptimize(detector.classify(request));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorClassify)->Arg(4)->Arg(16)->Arg(64);

void
BM_EngineProcess(benchmark::State& state)
{
    fpga::ValidationEngine engine;
    Xoshiro256 rng(10);
    // Requests drawn before timing; the timed loop only moves each
    // one's snapshot to the engine's current cid.
    std::vector<fpga::OffloadRequest> requests(1024);
    for (auto& request : requests) {
        for (int i = 0; i < 8; ++i) {
            request.reads.push_back(rng.below(1 << 20));
        }
        for (int i = 0; i < 4; ++i) {
            request.writes.push_back(rng.below(1 << 20));
        }
    }
    size_t next = 0;
    for (auto _ : state) {
        fpga::OffloadRequest& request = requests[next++ % requests.size()];
        request.snapshot_cid = engine.next_cid();
        benchmark::DoNotOptimize(engine.process(request));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineProcess);

} // namespace

BENCHMARK_MAIN();
