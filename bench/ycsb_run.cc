/// YCSB-style workload driver for the transactional KV layer
/// (src/kv, docs/KV.md): races the OCC store (KvStore over
/// tm::RococoTm) against the conservative 2PL baseline (KvStore2pl)
/// under identical traffic — same seeds, same key space, same mix —
/// and reports throughput, per-op latency histograms and transaction
/// outcomes per engine. scripts/bench_summary.py --ycsb-csv distills
/// the --csv output into the committed BENCH_ycsb.json and enforces
/// the OCC-beats-2PL canary on the read-heavy mix.
///
/// Workload mixes follow the YCSB letters — a = 50/50 read/update,
/// b = 95/5, c = 100/0 — with --rmw-pct / --scan-pct carving multi-key
/// transaction shares (txn-keys keys each) out of the point-op shares:
/// rmw replaces updates first, scan replaces reads. Key choice is
/// uniform or Zipf(theta) through the same common/zipf.h sampler the
/// svc loadgen uses; keys are the classic "user<N>" strings.
///
/// Two modes:
///
///   * In-process (default): T worker threads per engine over one
///     store, preceded by a load phase that populates every key. The
///     kv.* metric invariant (sum of kv.ops.* == kv.txn.commits) is
///     asserted after each engine run — any violation exits 1.
///
///   * --service: the millions-of-users shape. The parent hosts one
///     sharded svc::Server (--shards, default 2) and forks --clients
///     (default 4) genuine client *processes*, each pumping KV-shaped
///     validation RPCs whose read/write sets are the slot-derived wire
///     addresses of the hashed key space (KeyMapper::meta_addr/
///     value_addr of the key's home slot) — so `svcctl stats --top`
///     sees real KV conflict addresses and scripts/resolve_topk.py can
///     join them back to string keys via --key-map-out. The server-side
///     accounting ledger (svc.requests vs. answers) is cross-checked
///     on exit; an imbalance exits 1. --stale-snapshots=1 sends
///     snapshot_cid=0 so every window overlap aborts — the conflict
///     storm the forensics e2e test feeds to `svcctl stats --top`.
///
/// --key-map-out=FILE dumps the key→slot/address dictionary: resolved
/// occupied slots in in-process mode (after the first OCC run), home
/// slots in service mode (where no table exists — requests carry home
/// addresses). --telemetry-out captures the first engine run's
/// registry (kv.* + tm.*) as a telemetry envelope and narrows the run
/// to its first workload/zipf cell.
/// --slo-p99-us=X checks every op's p99 against an SLO and exits 1 on
/// breach.
///
/// Usage:
///   ycsb_run [--workload=b | a,b,c] [--engine=both|occ|2pl]
///            [--threads=4] [--ops=100000] [--keys=8192]
///            [--capacity=65536] [--zipf=0.99 | 0,0.99] [--txn-keys=4]
///            [--rmw-pct=0] [--scan-pct=0] [--seed=42] [--csv=FILE]
///            [--slo-p99-us=X] [--telemetry-out=FILE] [--key-map-out=FILE]
///   ycsb_run --service [--clients=4] [--shards=2] [--requests=20000]
///            [--outstanding=16] [--stale-snapshots=0] [--socket=PATH]
///            [workload/key flags as above]
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "common/cli.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/zipf.h"
#include "kv/kv_2pl.h"
#include "kv/kv_store.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "svc/client.h"
#include "svc/server.h"

namespace rococo {
namespace {

using kv::kMaxTxnKeys;
using kv::kOpCount;
using kv::kOpNames;

/// Operation mix in percent (sums to 100).
struct Mix
{
    unsigned read = 0;
    unsigned update = 0;
    unsigned rmw = 0;
    unsigned scan = 0;
};

Mix
mix_for(char workload)
{
    switch (workload) {
      case 'a': return {50, 50, 0, 0};
      case 'b': return {95, 5, 0, 0};
      case 'c': return {100, 0, 0, 0};
      default:
        std::fprintf(stderr,
                     "ycsb_run: unknown workload '%c' (expected a|b|c)\n",
                     workload);
        std::exit(2);
    }
}

/// Carve the multi-key shares out of the point-op shares: rmw replaces
/// updates first (both write), scan replaces reads.
void
carve_mix(Mix& mix, unsigned rmw_pct, unsigned scan_pct)
{
    unsigned take = std::min(mix.update, rmw_pct);
    mix.update -= take;
    mix.rmw += take;
    rmw_pct -= take;
    take = std::min(mix.read, rmw_pct);
    mix.read -= take;
    mix.rmw += take;
    take = std::min(mix.read, scan_pct);
    mix.read -= take;
    mix.scan += take;
}

constexpr size_t kKeyBufLen = 24;

size_t
format_key(uint64_t k, char* buf)
{
    return static_cast<size_t>(
        std::snprintf(buf, kKeyBufLen, "user%" PRIu64, k));
}

struct RunConfig
{
    char workload = 'b';
    Mix mix;
    double zipf = 0.99; ///< 0 = uniform
    unsigned threads = 4;
    uint64_t ops = 100000; ///< total per engine
    uint64_t keys = 8192;
    size_t capacity = size_t{1} << 16;
    unsigned txn_keys = 4; ///< fan-in of rmw/scan transactions
    uint64_t seed = 42;
};

/// One op family's measured-phase latency summary.
struct OpStat
{
    uint64_t count = 0;
    uint64_t sum_ns = 0;
    uint64_t p50_ns = 0;
    uint64_t p95_ns = 0;
    uint64_t p99_ns = 0;
};

struct EngineRow
{
    char workload = '?';
    std::string engine;
    double zipf = 0;
    unsigned threads = 0;
    uint64_t keys = 0;
    size_t capacity = 0;
    uint64_t ops = 0;
    double elapsed_ms = 0;
    double kops_s = 0;
    uint64_t commits = 0; ///< measured phase (load phase excluded)
    uint64_t aborts = 0;
    uint64_t retries = 0;
    uint64_t collisions = 0;
    double abort_rate = 0; ///< aborts / (commits + aborts)
    OpStat op[kOpCount];
};

/// Per-thread measured-phase stats; the driver's own histograms so the
/// load phase never pollutes the reported latency (the store's
/// kv.latency.* histograms cover its whole lifetime, load included).
struct ThreadStats
{
    uint64_t done[kOpCount] = {};
    obs::LatencyHistogram hist[kOpCount];
};

void
run_worker(kv::KvInterface& store, const RunConfig& cfg,
           const ZipfSampler* zipf, unsigned tid, uint64_t ops,
           Barrier& barrier, ThreadStats& stats)
{
    store.thread_init(tid);
    Xoshiro256 rng(cfg.seed + 0x9e3779b97f4a7c15ULL * (tid + 1));
    char bufs[kMaxTxnKeys][kKeyBufLen];
    std::string_view keys[kMaxTxnKeys];
    kv::RmwEntry entries[kMaxTxnKeys];
    uint64_t ids[kMaxTxnKeys];
    // The rmw body: transactional counter bump, inserting absent keys.
    auto increment = [](std::span<kv::RmwEntry> view) {
        for (kv::RmwEntry& entry : view) {
            entry.value = entry.found ? entry.value + 1 : 1;
            entry.write = true;
        }
    };
    barrier.arrive_and_wait();
    for (uint64_t i = 0; i < ops; ++i) {
        const unsigned roll = static_cast<unsigned>(rng.below(100));
        kv::Op op;
        size_t fan = 1;
        if (roll < cfg.mix.read) {
            op = kv::kOpGet;
        } else if (roll < cfg.mix.read + cfg.mix.update) {
            op = kv::kOpPut;
        } else if (roll <
                   cfg.mix.read + cfg.mix.update + cfg.mix.rmw) {
            op = kv::kOpRmw;
            fan = cfg.txn_keys;
        } else {
            op = kv::kOpScan;
            fan = cfg.txn_keys;
        }
        for (size_t j = 0; j < fan; ++j) {
            uint64_t k = zipf ? zipf->draw(rng) : rng.below(cfg.keys);
            // rmw keys must be distinct; walk off duplicates (the key
            // space is larger than the fan-in, so this terminates).
            for (size_t d = 0; d < j;) {
                if (ids[d] == k) {
                    k = (k + 1) % cfg.keys;
                    d = 0;
                } else {
                    ++d;
                }
            }
            ids[j] = k;
            keys[j] = {bufs[j], format_key(k, bufs[j])};
        }
        const uint64_t t0 = obs::now_ns();
        switch (op) {
          case kv::kOpGet: {
            uint64_t value;
            store.get(keys[0], value);
            break;
          }
          case kv::kOpPut:
            store.put(keys[0], (uint64_t{tid} << 48) | i);
            break;
          case kv::kOpScan:
            store.scan({keys, fan}, {entries, fan});
            break;
          default:
            store.rmw({keys, fan}, increment);
            break;
        }
        stats.hist[op].record(obs::now_ns() - t0);
        ++stats.done[op];
    }
    store.thread_fini();
}

EngineRow
run_engine(kv::KvInterface& store, const std::string& engine,
           const RunConfig& cfg, const ZipfSampler* zipf)
{
    // Load phase: populate the whole key space so reads mostly hit.
    store.thread_init(0);
    char buf[kKeyBufLen];
    for (uint64_t k = 0; k < cfg.keys; ++k) {
        const std::string_view key{buf, format_key(k, buf)};
        if (store.put(key, k) != kv::KvStatus::kOk) {
            std::fprintf(stderr,
                         "ycsb_run: load phase out of space at key "
                         "%" PRIu64 " (capacity %zu; raise --capacity "
                         "above ~1.5x --keys)\n",
                         k, cfg.capacity);
            std::exit(2);
        }
    }
    store.thread_fini();

    const obs::Registry& metrics = store.metrics();
    const uint64_t commits0 = metrics.get("kv.txn.commits");
    const uint64_t aborts0 = metrics.get("kv.txn.aborts");
    const uint64_t retries0 = metrics.get("kv.txn.retries");
    const uint64_t collisions0 = metrics.get("kv.key_collisions");

    std::vector<ThreadStats> stats(cfg.threads);
    Barrier barrier(cfg.threads + 1);
    const uint64_t per_thread =
        std::max<uint64_t>(1, cfg.ops / cfg.threads);
    std::vector<std::thread> workers;
    workers.reserve(cfg.threads);
    for (unsigned t = 0; t < cfg.threads; ++t) {
        workers.emplace_back([&, t] {
            run_worker(store, cfg, zipf, t, per_thread, barrier,
                       stats[t]);
        });
    }
    barrier.arrive_and_wait();
    const uint64_t t0 = obs::now_ns();
    for (std::thread& worker : workers) worker.join();
    const uint64_t elapsed = obs::now_ns() - t0;

    // The kv metric invariant: every operation is exactly one
    // committed transaction. Checked over the store's full lifetime
    // (load + measured phase); a violation is an accounting bug.
    uint64_t op_total = 0;
    for (int op = 0; op < kOpCount; ++op) {
        op_total += metrics.get(std::string("kv.ops.") + kOpNames[op]);
    }
    if (op_total != metrics.get("kv.txn.commits")) {
        std::fprintf(stderr,
                     "ycsb_run: kv accounting violation (%s): "
                     "sum(kv.ops.*) = %" PRIu64 " but kv.txn.commits = "
                     "%" PRIu64 "\n",
                     engine.c_str(), op_total,
                     metrics.get("kv.txn.commits"));
        std::exit(1);
    }

    EngineRow row;
    row.workload = cfg.workload;
    row.engine = engine;
    row.zipf = cfg.zipf;
    row.threads = cfg.threads;
    row.keys = cfg.keys;
    row.capacity = cfg.capacity;
    row.ops = per_thread * cfg.threads;
    row.elapsed_ms = double(elapsed) / 1e6;
    row.kops_s = double(row.ops) / (double(elapsed) / 1e9) / 1e3;
    row.commits = metrics.get("kv.txn.commits") - commits0;
    row.aborts = metrics.get("kv.txn.aborts") - aborts0;
    row.retries = metrics.get("kv.txn.retries") - retries0;
    row.collisions = metrics.get("kv.key_collisions") - collisions0;
    const double attempts = double(row.commits + row.aborts);
    row.abort_rate = attempts > 0 ? double(row.aborts) / attempts : 0;

    for (int op = 0; op < kOpCount; ++op) {
        OpStat& stat = row.op[op];
        std::vector<uint64_t> p50s;
        for (const ThreadStats& ts : stats) {
            const obs::LatencyHistogram& h = ts.hist[op];
            if (h.count() == 0) continue;
            stat.count += h.count();
            stat.sum_ns += static_cast<uint64_t>(
                h.mean() * double(h.count()) + 0.5);
            p50s.push_back(h.quantile(0.50));
            // Tails aggregate as the worst thread's tail.
            stat.p95_ns = std::max(stat.p95_ns, h.quantile(0.95));
            stat.p99_ns = std::max(stat.p99_ns, h.quantile(0.99));
        }
        std::sort(p50s.begin(), p50s.end());
        stat.p50_ns = p50s.empty() ? 0 : p50s[p50s.size() / 2];
    }
    return row;
}

/// The key→slot/wire-address dictionary resolve_topk.py joins against.
template <typename SlotOf>
bool
write_key_map(const std::string& path, uint64_t keys, size_t capacity,
              const char* mode, SlotOf&& slot_of)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f,
                 "{\"capacity\": %zu, \"probe_window\": %zu, "
                 "\"mode\": \"%s\",\n \"entries\": [",
                 capacity, kv::KeyMapper::kMaxProbe, mode);
    char buf[kKeyBufLen];
    bool first = true;
    for (uint64_t k = 0; k < keys; ++k) {
        const size_t len = format_key(k, buf);
        const size_t slot = slot_of(std::string_view{buf, len});
        if (slot == kv::KeyMapper::kNpos) continue;
        std::fprintf(f,
                     "%s\n  {\"key\": \"%.*s\", \"slot\": %zu, "
                     "\"meta_addr\": %" PRIu64 ", \"value_addr\": "
                     "%" PRIu64 "}",
                     first ? "" : ",", static_cast<int>(len), buf, slot,
                     kv::KeyMapper::meta_addr(slot),
                     kv::KeyMapper::value_addr(slot));
        first = false;
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    return true;
}

// --------------------------------------------------------------------
// --service mode: forked client processes against one sharded server.

struct SvcRunConfig
{
    std::string socket_path;
    size_t clients = 4;
    uint32_t shards = 2;
    uint64_t requests = 20000; ///< per client
    size_t outstanding = 16;
    bool stale = false; ///< snapshot_cid = 0: force conflict aborts
    RunConfig run;
};

struct SvcClientReport
{
    uint64_t completed = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t timeouts = 0;
    uint64_t rejected = 0;
    uint64_t p50_ns = 0;
    uint64_t p95_ns = 0;
    uint64_t p99_ns = 0;
};

/// Child body: KV-shaped validation RPCs. Read/write sets carry the
/// slot-derived wire addresses of each key's home slot — the same
/// addresses --key-map-out records, so conflict forensics joins back
/// to string keys.
SvcClientReport
run_svc_client(const SvcRunConfig& cfg, unsigned seed)
{
    svc::ClientConfig client_config;
    client_config.socket_path = cfg.socket_path;
    svc::ValidationClient client(client_config);
    SvcClientReport report;
    if (!client.connected()) return report;

    kv::KeyMapper mapper(cfg.run.capacity);
    Xoshiro256 rng(seed);
    const std::unique_ptr<ZipfSampler> zipf =
        cfg.run.zipf > 0
            ? std::make_unique<ZipfSampler>(cfg.run.keys, cfg.run.zipf)
            : nullptr;
    obs::LatencyHistogram latency;
    char buf[kKeyBufLen];
    auto home_of = [&](uint64_t k) {
        const size_t len = format_key(k, buf);
        return mapper.map(std::string_view{buf, len}).home;
    };
    auto draw = [&] {
        return zipf ? zipf->draw(rng) : rng.below(cfg.run.keys);
    };

    struct InFlight
    {
        std::future<core::ValidationResult> future;
        uint64_t sent_ns;
    };
    std::vector<InFlight> window;
    window.reserve(cfg.outstanding);
    auto account = [&](InFlight& flight) {
        const core::ValidationResult result = flight.future.get();
        latency.record(obs::now_ns() - flight.sent_ns);
        ++report.completed;
        switch (result.verdict) {
          case core::Verdict::kCommit: ++report.commits; break;
          case core::Verdict::kTimeout: ++report.timeouts; break;
          case core::Verdict::kRejected: ++report.rejected; break;
          default: ++report.aborts; break;
        }
    };

    const Mix& mix = cfg.run.mix;
    for (uint64_t i = 0; i < cfg.requests; ++i) {
        fpga::OffloadRequest request;
        const unsigned roll = static_cast<unsigned>(rng.below(100));
        if (roll < mix.read) {
            const size_t slot = home_of(draw());
            request.reads.push_back(kv::KeyMapper::meta_addr(slot));
            request.reads.push_back(kv::KeyMapper::value_addr(slot));
        } else if (roll < mix.read + mix.update) {
            const size_t slot = home_of(draw());
            request.reads.push_back(kv::KeyMapper::meta_addr(slot));
            request.writes.push_back(kv::KeyMapper::value_addr(slot));
        } else {
            const bool writes = roll < mix.read + mix.update + mix.rmw;
            for (unsigned j = 0; j < cfg.run.txn_keys; ++j) {
                const size_t slot = home_of(draw());
                request.reads.push_back(kv::KeyMapper::meta_addr(slot));
                request.reads.push_back(
                    kv::KeyMapper::value_addr(slot));
                if (writes) {
                    request.writes.push_back(
                        kv::KeyMapper::value_addr(slot));
                }
            }
        }
        // Current snapshot: conflicts come from genuine window
        // overlap. Stale (cid 0) turns every overlap into an abort —
        // the planted storm the forensics e2e reads with
        // `svcctl stats --top`.
        request.snapshot_cid = cfg.stale ? 0 : ~uint64_t{0} >> 1;
        window.push_back({client.submit(std::move(request)),
                          obs::now_ns()});
        if (window.size() >= cfg.outstanding) {
            account(window.front());
            window.erase(window.begin());
        }
    }
    for (InFlight& flight : window) account(flight);
    client.stop();

    report.p50_ns = latency.quantile(0.50);
    report.p95_ns = latency.quantile(0.95);
    report.p99_ns = latency.quantile(0.99);
    return report;
}

int
run_service(const SvcRunConfig& cfg)
{
    svc::ServerConfig server_config;
    server_config.socket_path = cfg.socket_path;
    server_config.shards = cfg.shards;
    svc::Server server(server_config);
    if (!server.start()) {
        std::fprintf(stderr, "ycsb_run: cannot bind %s\n",
                     cfg.socket_path.c_str());
        return 1;
    }

    std::vector<pid_t> pids;
    std::vector<int> pipes;
    const uint64_t start_ns = obs::now_ns();
    for (size_t c = 0; c < cfg.clients; ++c) {
        int fds[2];
        if (pipe(fds) != 0) return 1;
        const pid_t pid = fork();
        if (pid == 0) {
            close(fds[0]);
            const SvcClientReport report = run_svc_client(
                cfg, static_cast<unsigned>(cfg.run.seed + 1000 + c));
            const ssize_t n = write(fds[1], &report, sizeof(report));
            _exit(n == sizeof(report) ? 0 : 1);
        }
        close(fds[1]);
        pids.push_back(pid);
        pipes.push_back(fds[0]);
    }

    SvcClientReport total;
    std::vector<uint64_t> p50s;
    for (size_t c = 0; c < cfg.clients; ++c) {
        SvcClientReport report{};
        const ssize_t n = read(pipes[c], &report, sizeof(report));
        if (n != sizeof(report)) report = {};
        close(pipes[c]);
        int status = 0;
        waitpid(pids[c], &status, 0);
        total.completed += report.completed;
        total.commits += report.commits;
        total.aborts += report.aborts;
        total.timeouts += report.timeouts;
        total.rejected += report.rejected;
        p50s.push_back(report.p50_ns);
        total.p95_ns = std::max(total.p95_ns, report.p95_ns);
        total.p99_ns = std::max(total.p99_ns, report.p99_ns);
    }
    const uint64_t elapsed = obs::now_ns() - start_ns;
    server.stop();

    // Accounting cross-check: every well-formed request answered
    // exactly once, same ledger the svc tests and loadgen enforce.
    const CounterBag stats = server.stats();
    const uint64_t answered = stats.get("svc.verdict.commit") +
                              stats.get("svc.verdict.abort-cycle") +
                              stats.get("svc.verdict.window-overflow") +
                              stats.get("svc.timeout") +
                              stats.get("svc.rejected");
    if (answered != stats.get("svc.requests")) {
        std::fprintf(stderr,
                     "ycsb_run: svc accounting mismatch: %" PRIu64
                     " answered vs %" PRIu64 " requests\n",
                     answered, stats.get("svc.requests"));
        return 1;
    }

    std::sort(p50s.begin(), p50s.end());
    const double done = double(std::max<uint64_t>(total.completed, 1));
    Table table({"workload", "clients", "shards", "zipf", "kreq/s",
                 "p50_us", "p95_us", "p99_us", "commit%", "abort%",
                 "elapsed_ms"});
    table.row()
        .cell(std::string(1, cfg.run.workload))
        .num(static_cast<uint64_t>(cfg.clients))
        .num(static_cast<uint64_t>(cfg.shards))
        .num(cfg.run.zipf, 2)
        .num(double(total.completed) / (double(elapsed) / 1e9) / 1e3, 1)
        .num(double(p50s.empty() ? 0 : p50s[p50s.size() / 2]) / 1e3, 1)
        .num(double(total.p95_ns) / 1e3, 1)
        .num(double(total.p99_ns) / 1e3, 1)
        .num(100.0 * double(total.commits) / done, 1)
        .num(100.0 * double(total.aborts) / done, 1)
        .num(double(elapsed) / 1e6, 1);
    table.print();
    return 0;
}

} // namespace
} // namespace rococo

int
main(int argc, char** argv)
{
    using namespace rococo;

    Cli cli(argc, argv,
            {"workload", "engine", "threads", "ops", "keys", "capacity",
             "zipf", "txn-keys", "rmw-pct", "scan-pct", "seed", "csv",
             "slo-p99-us", "telemetry-out", "key-map-out",
             "service", "clients", "shards", "requests", "outstanding",
             "stale-snapshots", "socket"});

    RunConfig base;
    base.threads = static_cast<unsigned>(cli.get_int("threads", 4));
    base.ops = static_cast<uint64_t>(cli.get_int("ops", 100000));
    base.keys =
        std::max<uint64_t>(kMaxTxnKeys + 1,
                           static_cast<uint64_t>(
                               cli.get_int("keys", 8192)));
    base.capacity =
        static_cast<size_t>(cli.get_int("capacity", 1 << 16));
    base.txn_keys = static_cast<unsigned>(std::clamp<int64_t>(
        cli.get_int("txn-keys", 4), 1, kMaxTxnKeys));
    base.seed = static_cast<uint64_t>(cli.get_int("seed", 42));
    const unsigned rmw_pct = static_cast<unsigned>(
        std::clamp<int64_t>(cli.get_int("rmw-pct", 0), 0, 100));
    const unsigned scan_pct = static_cast<unsigned>(
        std::clamp<int64_t>(cli.get_int("scan-pct", 0), 0, 100));

    // --workload / --zipf accept comma lists; the row loop is their
    // cross product per engine.
    std::vector<char> workloads;
    for (const char c : cli.get("workload", "b")) {
        if (c == ',' || c == ' ') continue;
        workloads.push_back(static_cast<char>(std::tolower(c)));
        mix_for(workloads.back()); // validate early
    }
    std::vector<double> zipfs;
    {
        const std::string spec = cli.get("zipf", "0.99");
        size_t pos = 0;
        while (pos < spec.size()) {
            size_t end = spec.find(',', pos);
            if (end == std::string::npos) end = spec.size();
            zipfs.push_back(std::atof(spec.substr(pos, end - pos).c_str()));
            pos = end + 1;
        }
        if (zipfs.empty()) zipfs.push_back(0.0);
    }

    if (cli.get_bool("service", false)) {
        SvcRunConfig svc_cfg;
        svc_cfg.socket_path =
            cli.get("socket", "/tmp/rococo_ycsb_" +
                                  std::to_string(getpid()) + ".sock");
        svc_cfg.clients = static_cast<size_t>(
            std::max<int64_t>(1, cli.get_int("clients", 4)));
        svc_cfg.shards = static_cast<uint32_t>(
            std::max<int64_t>(1, cli.get_int("shards", 2)));
        svc_cfg.requests = static_cast<uint64_t>(
            std::max<int64_t>(1, cli.get_int("requests", 20000)));
        svc_cfg.outstanding = static_cast<size_t>(
            std::max<int64_t>(1, cli.get_int("outstanding", 16)));
        svc_cfg.stale = cli.get_bool("stale-snapshots", false);
        svc_cfg.run = base;
        svc_cfg.run.workload = workloads.front();
        svc_cfg.run.mix = mix_for(svc_cfg.run.workload);
        carve_mix(svc_cfg.run.mix, rmw_pct, scan_pct);
        svc_cfg.run.zipf = zipfs.front();

        const std::string key_map_out = cli.get("key-map-out", "");
        if (!key_map_out.empty()) {
            // No table exists service-side: requests carry home-slot
            // addresses, so that is what the dictionary records.
            kv::KeyMapper mapper(svc_cfg.run.capacity);
            if (!write_key_map(key_map_out, svc_cfg.run.keys,
                               mapper.capacity(), "home",
                               [&](std::string_view key) {
                                   return mapper.map(key).home;
                               })) {
                std::fprintf(stderr, "ycsb_run: cannot write %s\n",
                             key_map_out.c_str());
                return 1;
            }
        }
        return run_service(svc_cfg);
    }

    const std::string engine_spec = cli.get("engine", "both");
    std::vector<std::string> engines;
    if (engine_spec == "both") {
        engines = {"occ", "2pl"};
    } else if (engine_spec == "occ" || engine_spec == "2pl") {
        engines = {engine_spec};
    } else {
        std::fprintf(stderr,
                     "ycsb_run: unknown engine '%s' (occ|2pl|both)\n",
                     engine_spec.c_str());
        return 2;
    }

    const std::string telemetry_out = cli.get("telemetry-out", "");
    const std::string key_map_out = cli.get("key-map-out", "");
    const double slo_p99_us = cli.get_double("slo-p99-us", 0.0);
    if (!telemetry_out.empty()) {
        // A capture wants one clean measured region, not a sweep.
        workloads.resize(1);
        zipfs.resize(1);
    }

    Table table({"workload", "engine", "zipf", "threads", "kops/s",
                 "abort%", "retries", "collisions", "get_p99_us",
                 "put_p99_us", "rmw_p99_us", "scan_p99_us",
                 "elapsed_ms"});
    std::vector<EngineRow> rows;
    bool first_run = true;
    bool key_map_written = false;
    for (const char workload : workloads) {
        for (const double zipf : zipfs) {
            RunConfig cfg = base;
            cfg.workload = workload;
            cfg.mix = mix_for(workload);
            carve_mix(cfg.mix, rmw_pct, scan_pct);
            cfg.zipf = zipf;
            const std::unique_ptr<ZipfSampler> sampler =
                zipf > 0 ? std::make_unique<ZipfSampler>(cfg.keys, zipf)
                         : nullptr;
            for (const std::string& engine : engines) {
                // Construct the session before the store so the
                // registry/tracer reset covers exactly this run.
                std::unique_ptr<obs::TelemetrySession> session;
                if (first_run && !telemetry_out.empty()) {
                    session = std::make_unique<obs::TelemetrySession>(
                        telemetry_out);
                }
                std::unique_ptr<kv::KvStore> occ;
                std::unique_ptr<kv::KvStore2pl> pessimistic;
                kv::KvInterface* store = nullptr;
                if (engine == "occ") {
                    kv::KvStoreConfig store_config;
                    store_config.capacity = cfg.capacity;
                    occ = std::make_unique<kv::KvStore>(store_config);
                    store = occ.get();
                } else {
                    kv::Kv2plConfig store_config;
                    store_config.capacity = cfg.capacity;
                    pessimistic = std::make_unique<kv::KvStore2pl>(
                        store_config);
                    store = pessimistic.get();
                }
                rows.push_back(
                    run_engine(*store, engine, cfg, sampler.get()));
                const EngineRow& row = rows.back();
                table.row()
                    .cell(std::string(1, row.workload))
                    .cell(row.engine)
                    .num(row.zipf, 2)
                    .num(static_cast<uint64_t>(row.threads))
                    .num(row.kops_s, 1)
                    .num(100.0 * row.abort_rate, 2)
                    .num(row.retries)
                    .num(row.collisions)
                    .num(double(row.op[kv::kOpGet].p99_ns) / 1e3, 1)
                    .num(double(row.op[kv::kOpPut].p99_ns) / 1e3, 1)
                    .num(double(row.op[kv::kOpRmw].p99_ns) / 1e3, 1)
                    .num(double(row.op[kv::kOpScan].p99_ns) / 1e3, 1)
                    .num(row.elapsed_ms, 1);

                if (session) {
                    obs::Registry::global().merge(store->metrics());
                    if (occ) {
                        obs::Registry::global().merge(
                            occ->runtime().registry());
                    }
                    if (!session->finish()) {
                        std::fprintf(stderr,
                                     "ycsb_run: cannot write %s\n",
                                     telemetry_out.c_str());
                        return 1;
                    }
                }
                if (!key_map_written && !key_map_out.empty() && occ) {
                    if (!write_key_map(
                            key_map_out, cfg.keys,
                            occ->mapper().capacity(), "resolved",
                            [&](std::string_view key) {
                                return occ->resolve_slot(key);
                            })) {
                        std::fprintf(stderr,
                                     "ycsb_run: cannot write %s\n",
                                     key_map_out.c_str());
                        return 1;
                    }
                    key_map_written = true;
                }
                first_run = false;
            }
        }
    }
    table.print();
    if (!key_map_out.empty() && !key_map_written) {
        std::fprintf(stderr,
                     "ycsb_run: --key-map-out needs an occ engine run "
                     "(slots are resolved from the OCC table)\n");
        return 1;
    }

    const std::string csv_path = cli.get("csv", "");
    if (!csv_path.empty()) {
        std::vector<std::string> header = {
            "workload",   "engine",  "zipf",       "threads",
            "keys",       "capacity", "ops",       "elapsed_ms",
            "kops_s",     "commits", "aborts",     "retries",
            "abort_rate", "key_collisions"};
        for (int op = 0; op < kOpCount; ++op) {
            const std::string prefix = kOpNames[op];
            header.push_back(prefix + "_count");
            header.push_back(prefix + "_mean_ns");
            header.push_back(prefix + "_p50_ns");
            header.push_back(prefix + "_p95_ns");
            header.push_back(prefix + "_p99_ns");
        }
        CsvWriter csv(csv_path, header);
        for (const EngineRow& row : rows) {
            std::vector<std::string> cells = {
                std::string(1, row.workload),
                row.engine,
                std::to_string(row.zipf),
                std::to_string(row.threads),
                std::to_string(row.keys),
                std::to_string(row.capacity),
                std::to_string(row.ops),
                std::to_string(row.elapsed_ms),
                std::to_string(row.kops_s),
                std::to_string(row.commits),
                std::to_string(row.aborts),
                std::to_string(row.retries),
                std::to_string(row.abort_rate),
                std::to_string(row.collisions)};
            for (int op = 0; op < kOpCount; ++op) {
                const OpStat& stat = row.op[op];
                cells.push_back(std::to_string(stat.count));
                cells.push_back(std::to_string(
                    stat.count ? stat.sum_ns / stat.count : 0));
                cells.push_back(std::to_string(stat.p50_ns));
                cells.push_back(std::to_string(stat.p95_ns));
                cells.push_back(std::to_string(stat.p99_ns));
            }
            csv.write_row(cells);
        }
    }

    // Per-op p99 SLO report: breach exits 1 so the flag doubles as a
    // latency gate in scripts.
    if (slo_p99_us > 0) {
        bool breached = false;
        for (const EngineRow& row : rows) {
            for (int op = 0; op < kOpCount; ++op) {
                const OpStat& stat = row.op[op];
                if (stat.count == 0) continue;
                const double p99_us = double(stat.p99_ns) / 1e3;
                const bool ok = p99_us <= slo_p99_us;
                std::printf("SLO p99<=%.1fus %c/%s/%s: p99=%.1fus %s\n",
                            slo_p99_us, row.workload,
                            row.engine.c_str(), kOpNames[op], p99_us,
                            ok ? "PASS" : "FAIL");
                breached = breached || !ok;
            }
        }
        if (breached) return 1;
    }
    return 0;
}
