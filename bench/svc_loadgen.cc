/// Multi-process load generator for the networked validation service
/// (src/svc): the parent owns one Server (one engine, one sliding
/// window) and forks N genuine client *processes* — separate address
/// spaces, as in the paper's one-FPGA-many-executors deployment — each
/// keeping a window of pipelined requests in flight. Children report
/// their throughput, latency distribution and per-stage breakdown back
/// over a pipe; the parent prints one table row per (clients, batch)
/// configuration.
///
/// The sweep demonstrates the batching claim: past a handful of
/// concurrent clients, a batched engine pass (one ring write per
/// coalesced group) sustains strictly higher validation throughput than
/// batch=1, the software analogue of amortizing CCI link latency with
/// packed cachelines (§5.3). Results are recorded in docs/SERVICE.md.
/// The bells/req column is the server's response-ring doorbells per
/// request: the share of answers that found their client asleep.
///
/// Stage attribution (--stages=1): every response carries the
/// server-side stage durations, and the client derives the wire stage
/// as the residual of the measured round trip — so the stage *means*
/// sum to the e2e mean by construction (the modeled CCI link latency is
/// reported alongside but never part of the wall-clock sum). The
/// breakdown table shows where a validation RPC spends its time:
/// client_queue (client-mutex contention between submitters), wire
/// (rings + reader and server-loop scheduling), server_queue (arrival to engine
/// pass), batch_wait (skew within one coalesced batch), engine (the
/// validation itself).
///
/// --tm-threads=N runs the full RococoTm runtime (one process, N
/// threads — the cid-ordered commit log supports a single client
/// process per server) over the socket instead of raw validation RPCs:
/// the e2e distributed-tracing path exercised by the trace-check ctest.
/// Latency is then per *transaction* (including retries and commit
/// ordering), and abort% is a retry rate that can exceed 100.
///
/// --telemetry-server=FILE / --telemetry-client=FILE narrow the sweep
/// to its first (clients, batch) cell and write TelemetrySession JSON
/// envelopes from the server (parent) process and the first client
/// (child) process; scripts/merge_trace_json.py splices them into one
/// causal trace for Perfetto / scripts/check_trace_json.py.
///
/// Conflict forensics (docs/OBSERVABILITY.md):
///   --zipf=THETA skews key choice to a Zipf(theta) distribution
///   (inverse-CDF table per client, no pow() in the request loop), so
///   the conflict hot set is a handful of planted keys — the workload
///   `svcctl stats --top` is meant to expose. --hot-keys=N forces an abort
///   spike: every key is drawn from [0, N) and requests carry
///   snapshot_cid=0 (a maximally stale snapshot), so nearly every
///   validation collides with the window and aborts. --recorder-out=P
///   arms the server's flight recorder (incident files P-<seq>.json,
///   written when an SLO rule goes critical or on svcctl dump); the
///   run then narrows to its first sweep cell.
///
/// Continuous monitoring (docs/OBSERVABILITY.md § Continuous
/// monitoring): the server's health monitor is on by default
/// (--monitor=0 turns it off for A/B overhead runs). --slo-abort-rate=X
/// overrides the abort-rate burn-rate threshold and --slo-fast-ms /
/// --slo-slow-ms shrink the SLO windows so short runs can walk the
/// ok -> warn -> critical ladder; with a recorder armed
/// (--recorder-out) a critical SLO dumps an incident with trigger
/// "slo:abort-rate", and with --slo-abort-rate set too svc_loadgen
/// exits 1 if no "slo:" incident was written — the contract the
/// incident ctest fixture pins down.
///
/// Usage:
///   svc_loadgen [--clients=1,2,4,8] [--batch=1,8,32] [--shards=1]
///               [--requests=20000] [--outstanding=16] [--reads=4]
///               [--writes=2] [--keys=4096] [--stages=1]
///               [--tm-threads=N] [--zipf=THETA] [--hot-keys=N]
///               [--recorder-out=PREFIX] [--monitor=1]
///               [--slo-abort-rate=X]
///               [--slo-fast-ms=N] [--slo-slow-ms=N]
///               [--telemetry-server=FILE] [--telemetry-client=FILE]
///               [--socket=/tmp/rococo_loadgen.sock] [--csv=FILE]
#include <glob.h>
#include <sys/wait.h>
#include <algorithm>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/zipf.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "svc/client.h"
#include "svc/server.h"
#include "tm/rococo_tm.h"

namespace rococo {
namespace {

/// Client-side stage histograms, in wire order. "link" is the modeled
/// CCI round trip — reported, but excluded from the wall-clock sum.
constexpr const char* kStageNames[] = {
    "client_queue", "wire", "server_queue", "batch_wait", "engine", "link",
};
constexpr size_t kStageCount = sizeof(kStageNames) / sizeof(kStageNames[0]);
constexpr size_t kLinkStage = kStageCount - 1;

/// One stage's summary, shipped raw over the child's pipe.
struct StageStat
{
    uint64_t count = 0;
    uint64_t sum_ns = 0; ///< count * mean — exact aggregate means
    uint64_t p50_ns = 0;
    uint64_t p95_ns = 0;
    uint64_t p99_ns = 0;
};

/// One child's report, shipped raw over its pipe.
struct ClientReport
{
    uint64_t completed = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;   ///< engine aborts (cycle + window overflow)
    uint64_t timeouts = 0;
    uint64_t rejected = 0;
    uint64_t p50_ns = 0;
    uint64_t p95_ns = 0;
    uint64_t p99_ns = 0;
    uint64_t rpc_count = 0;  ///< svc.client.rpc_ns samples
    uint64_t rpc_sum_ns = 0; ///< their sum: the e2e mean numerator
    StageStat stages[kStageCount];
};

struct LoadConfig
{
    std::string socket_path;
    uint64_t requests = 0;
    size_t outstanding = 16;
    unsigned reads = 4;
    unsigned writes = 2;
    uint64_t keys = 4096;
    unsigned tm_threads = 0; ///< 0 = raw validation RPCs
    uint32_t shards = 1;     ///< server-side validation shards
    double zipf = 0;         ///< Zipf theta; 0 = uniform keys
    uint64_t hot_keys = 0;   ///< > 0: abort spike over [0, hot_keys)
    std::string recorder_out;        ///< arm the server flight recorder
    bool monitor = true;             ///< server health monitor on/off
    double slo_abort_rate = 0;       ///< override abort-rate SLO threshold
    uint64_t slo_fast_ms = 0;        ///< override SLO fast window
    uint64_t slo_slow_ms = 0;        ///< override SLO slow window
};

void
harvest_stages(obs::Registry& registry, ClientReport& report)
{
    // histogram() registers on miss, which is fine: the stat keeps
    // count == 0 and the table shows the stage as absent.
    for (size_t s = 0; s < kStageCount; ++s) {
        const obs::LatencyHistogram& h =
            registry.histogram(std::string("svc.stage.") + kStageNames[s]);
        StageStat& stat = report.stages[s];
        stat.count = h.count();
        stat.sum_ns =
            static_cast<uint64_t>(h.mean() * double(h.count()) + 0.5);
        stat.p50_ns = h.quantile(0.50);
        stat.p95_ns = h.quantile(0.95);
        stat.p99_ns = h.quantile(0.99);
    }
    const obs::LatencyHistogram& rpc =
        registry.histogram("svc.client.rpc_ns");
    report.rpc_count = rpc.count();
    report.rpc_sum_ns =
        static_cast<uint64_t>(rpc.mean() * double(rpc.count()) + 0.5);
}

/// Child body: closed-loop with a pipelined window of in-flight
/// requests, so the server actually has something to batch.
ClientReport
run_client(const LoadConfig& config, unsigned seed,
           const std::string& telemetry_path)
{
    // Construct the session before the client so the reader thread's
    // rpc spans and flow events land in an active tracer.
    obs::TelemetrySession session(telemetry_path);
    svc::ClientConfig client_config;
    client_config.socket_path = config.socket_path;
    svc::ValidationClient client(client_config);
    ClientReport report;
    if (!client.connected()) return report;

    Xoshiro256 rng(seed);
    obs::LatencyHistogram latency;
    const std::unique_ptr<ZipfSampler> zipf =
        config.zipf > 0
            ? std::make_unique<ZipfSampler>(config.keys, config.zipf)
            : nullptr;
    auto draw_key = [&]() -> uint64_t {
        if (config.hot_keys > 0) return rng.below(config.hot_keys);
        if (zipf) return zipf->draw(rng);
        return rng.below(config.keys);
    };

    struct InFlight
    {
        std::future<core::ValidationResult> future;
        uint64_t sent_ns;
    };
    std::vector<InFlight> window;
    window.reserve(config.outstanding);

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

    for (uint64_t i = 0; i < config.requests; ++i) {
        fpga::OffloadRequest request;
        request.reads.reserve(config.reads);
        for (unsigned r = 0; r < config.reads; ++r) {
            request.reads.push_back(draw_key());
        }
        for (unsigned w = 0; w < config.writes; ++w) {
            request.writes.push_back(draw_key());
        }
        // "Current" snapshot: conflicts come from signature overlap.
        // The hot-keys spike instead claims a maximally stale snapshot,
        // so every overlap with the window is a forward/backward pair —
        // a cycle abort — and the abort-rate trigger has something to
        // fire on.
        request.snapshot_cid =
            config.hot_keys > 0 ? 0 : ~uint64_t{0} >> 1;

        const uint64_t sent = obs::now_ns();
        window.push_back({client.submit(std::move(request)), sent});
        if (window.size() >= config.outstanding) {
            account(window.front());
            window.erase(window.begin());
        }
    }
    for (InFlight& flight : window) account(flight);
    client.stop();

    report.p50_ns = latency.quantile(0.50);
    report.p95_ns = latency.quantile(0.95);
    report.p99_ns = latency.quantile(0.99);

    // The per-stage breakdown lives in the client's metric registry
    // (fed by every response); pull it into the flat report.
    obs::Registry metrics;
    client.export_metrics(metrics);
    harvest_stages(metrics, report);
    if (session.active()) {
        // The telemetry envelope should carry the client metrics too,
        // not just the trace events.
        obs::Registry::global().merge(metrics);
        session.finish();
    }
    return report;
}

/// Child body for --tm-threads: the full RococoTm runtime over the
/// socket — transfer transactions whose conservation the svc tests
/// already verify; here we only measure.
ClientReport
run_tm_client(const LoadConfig& config, unsigned seed,
              const std::string& telemetry_path)
{
    obs::TelemetrySession session(telemetry_path);
    ClientReport report;
    obs::LatencyHistogram latency;
    {
        tm::RococoTmConfig tm_config;
        tm_config.validation_service = config.socket_path;
        tm_config.validation_timeout_ns = 500'000'000;
        tm::RococoTm runtime(tm_config);

        std::vector<tm::TmCell> cells(
            std::max<uint64_t>(2, std::min<uint64_t>(config.keys, 4096)));
        const unsigned threads = std::max(1u, config.tm_threads);
        const uint64_t per_thread =
            std::max<uint64_t>(1, config.requests / threads);
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                runtime.thread_init(t);
                Xoshiro256 rng(seed + t);
                for (uint64_t i = 0; i < per_thread; ++i) {
                    const size_t a = rng.below(cells.size());
                    const size_t b =
                        (a + 1 + rng.below(cells.size() - 1)) % cells.size();
                    const uint64_t start = obs::now_ns();
                    runtime.execute([&](tm::Tx& tx) {
                        const tm::Word va = tx.load(cells[a]);
                        const tm::Word vb = tx.load(cells[b]);
                        tx.store(cells[a], va - 1);
                        tx.store(cells[b], vb + 1);
                    });
                    latency.record(obs::now_ns() - start);
                }
                runtime.thread_fini();
            });
        }
        for (auto& worker : workers) worker.join();

        const CounterBag stats = runtime.stats();
        report.completed = per_thread * threads;
        report.commits = stats.get(tm::stat::kCommits);
        report.aborts = stats.get(tm::stat::kAborts);
        report.timeouts = stats.get(tm::stat::kTimeoutAborts);
        report.rejected = stats.get(tm::stat::kRejectedAborts);
        if (session.active()) {
            // TM-layer counters (tm.abort.* accounting) for the
            // envelope; ~RococoTm (below) adds the validation client's
            // metrics — including the svc.stage.* breakdown.
            obs::Registry::global().merge(runtime.registry());
        }
    }
    report.p50_ns = latency.quantile(0.50);
    report.p95_ns = latency.quantile(0.95);
    report.p99_ns = latency.quantile(0.99);
    if (session.active()) {
        harvest_stages(obs::Registry::global(), report);
        session.finish();
    }
    return report;
}

struct SweepRow
{
    size_t clients;
    size_t batch;
    uint64_t completed = 0;
    uint64_t commits = 0;
    uint64_t aborts = 0;
    uint64_t timeouts = 0;
    uint64_t rejected = 0;
    double elapsed_ms = 0;
    double kreq_s = 0;
    /// Response-ring doorbells the server sent per request: ~0 when
    /// the clients' waits spin, ~1 when they park (get()).
    double bells_per_req = 0;
    uint64_t p50_ns = 0;
    uint64_t p95_ns = 0;
    uint64_t p99_ns = 0;
    uint64_t rpc_count = 0;
    uint64_t rpc_sum_ns = 0;
    StageStat stages[kStageCount];
};

SweepRow
run_one(const LoadConfig& load, size_t clients, size_t batch,
        const std::string& telemetry_client)
{
    svc::ServerConfig server_config;
    server_config.socket_path = load.socket_path;
    server_config.max_batch = batch;
    server_config.shards = load.shards;
    if (!load.recorder_out.empty()) {
        server_config.recorder.enabled = true;
        server_config.recorder.output_prefix = load.recorder_out;
        server_config.recorder.include_trace = obs::telemetry_active();
    }
    server_config.monitor.enabled = load.monitor;
    if (load.slo_abort_rate > 0) {
        server_config.monitor.abort_rate_threshold = load.slo_abort_rate;
    }
    if (load.slo_fast_ms > 0) {
        server_config.monitor.fast_window_ns = load.slo_fast_ms * 1'000'000;
    }
    if (load.slo_slow_ms > 0) {
        server_config.monitor.slow_window_ns = load.slo_slow_ms * 1'000'000;
    }
    if (load.slo_fast_ms > 0 || load.slo_slow_ms > 0) {
        // Shrunk windows mean a short run: sample fast enough that the
        // fast window holds several points (otherwise one sample is the
        // whole burn-rate estimate).
        server_config.monitor.sample_period_ns = std::max<uint64_t>(
            1'000'000, server_config.monitor.fast_window_ns / 8);
    }
    svc::Server server(server_config);
    if (!server.start()) {
        std::fprintf(stderr, "svc_loadgen: cannot bind %s\n",
                     load.socket_path.c_str());
        std::exit(1);
    }

    std::vector<pid_t> pids;
    std::vector<int> pipes;
    const uint64_t start_ns = obs::now_ns();
    for (size_t c = 0; c < clients; ++c) {
        int fds[2];
        if (pipe(fds) != 0) std::exit(1);
        const pid_t pid = fork();
        if (pid == 0) {
            // Keep stdio and the result pipe only: an inherited copy of
            // the server's listening socket or accepted connections
            // would keep them open after the server is gone.
            close_range(3, fds[1] - 1, 0);
            close_range(fds[1] + 1, ~0u, 0);
            // Only the first child writes the client telemetry file.
            const std::string& telemetry =
                c == 0 ? telemetry_client : std::string();
            const unsigned seed = static_cast<unsigned>(1000 + c);
            const ClientReport report =
                load.tm_threads > 0
                    ? run_tm_client(load, seed, telemetry)
                    : run_client(load, seed, telemetry);
            ssize_t n = write(fds[1], &report, sizeof(report));
            _exit(n == sizeof(report) ? 0 : 1);
        }
        close(fds[1]);
        pids.push_back(pid);
        pipes.push_back(fds[0]);
    }

    SweepRow row;
    row.clients = clients;
    row.batch = batch;
    std::vector<uint64_t> p50s, p95s, p99s;
    std::vector<uint64_t> stage_p50s[kStageCount];
    for (size_t c = 0; c < clients; ++c) {
        ClientReport report{};
        ssize_t n = read(pipes[c], &report, sizeof(report));
        if (n != sizeof(report)) report = {};
        close(pipes[c]);
        int status = 0;
        waitpid(pids[c], &status, 0);
        row.completed += report.completed;
        row.commits += report.commits;
        row.aborts += report.aborts;
        row.timeouts += report.timeouts;
        row.rejected += report.rejected;
        row.rpc_count += report.rpc_count;
        row.rpc_sum_ns += report.rpc_sum_ns;
        p50s.push_back(report.p50_ns);
        p95s.push_back(report.p95_ns);
        p99s.push_back(report.p99_ns);
        for (size_t s = 0; s < kStageCount; ++s) {
            row.stages[s].count += report.stages[s].count;
            row.stages[s].sum_ns += report.stages[s].sum_ns;
            stage_p50s[s].push_back(report.stages[s].p50_ns);
            // Tail quantiles aggregate as the worst client's tail.
            row.stages[s].p95_ns =
                std::max(row.stages[s].p95_ns, report.stages[s].p95_ns);
            row.stages[s].p99_ns =
                std::max(row.stages[s].p99_ns, report.stages[s].p99_ns);
        }
    }
    const uint64_t elapsed = obs::now_ns() - start_ns;

    server.stop();

    // Accounting cross-check between the two sides of the wire.
    const CounterBag stats = server.stats();
    const uint64_t answered = stats.get("svc.verdict.commit") +
                              stats.get("svc.verdict.abort-cycle") +
                              stats.get("svc.verdict.window-overflow") +
                              stats.get("svc.timeout") +
                              stats.get("svc.rejected");
    if (answered != stats.get("svc.requests")) {
        std::fprintf(stderr,
                     "svc_loadgen: accounting mismatch: %" PRIu64
                     " answered vs %" PRIu64 " requests\n",
                     answered, stats.get("svc.requests"));
        std::exit(1);
    }

    row.elapsed_ms = double(elapsed) / 1e6;
    row.kreq_s = double(row.completed) / (double(elapsed) / 1e9) / 1e3;
    row.bells_per_req =
        double(stats.get("svc.doorbells")) /
        double(std::max<uint64_t>(stats.get("svc.requests"), 1));
    // Median of the per-client medians is a fair summary; max of the
    // tail quantiles is the honest tail.
    std::sort(p50s.begin(), p50s.end());
    row.p50_ns = p50s.empty() ? 0 : p50s[p50s.size() / 2];
    row.p95_ns = p95s.empty() ? 0 : *std::max_element(p95s.begin(),
                                                      p95s.end());
    row.p99_ns = p99s.empty() ? 0 : *std::max_element(p99s.begin(),
                                                      p99s.end());
    for (size_t s = 0; s < kStageCount; ++s) {
        std::sort(stage_p50s[s].begin(), stage_p50s[s].end());
        row.stages[s].p50_ns = stage_p50s[s].empty()
                                   ? 0
                                   : stage_p50s[s][stage_p50s[s].size() / 2];
    }
    return row;
}

double
stage_mean_us(const StageStat& stat)
{
    return stat.count == 0 ? 0.0
                           : double(stat.sum_ns) / double(stat.count) / 1e3;
}

/// Long-format per-stage breakdown for one sweep cell, with the sum /
/// e2e cross-check rows that make the attribution auditable.
void
print_stage_table(const SweepRow& row)
{
    std::printf("\nstage breakdown (clients=%zu, batch=%zu), client-side:\n",
                row.clients, row.batch);
    Table table({"stage", "count", "mean_us", "p50_us", "p95_us", "p99_us"});
    double sum_mean_us = 0;
    for (size_t s = 0; s < kStageCount; ++s) {
        const StageStat& stat = row.stages[s];
        const double mean_us = stage_mean_us(stat);
        if (s != kLinkStage) sum_mean_us += mean_us;
        table.row()
            .cell(s == kLinkStage ? "link (modeled)" : kStageNames[s])
            .num(stat.count)
            .num(mean_us, 2)
            .num(double(stat.p50_ns) / 1e3, 2)
            .num(double(stat.p95_ns) / 1e3, 2)
            .num(double(stat.p99_ns) / 1e3, 2);
    }
    const double e2e_mean_us =
        row.rpc_count == 0
            ? 0.0
            : double(row.rpc_sum_ns) / double(row.rpc_count) / 1e3;
    table.row().cell("sum (excl. link)").cell("").num(sum_mean_us, 2)
        .cell("").cell("").cell("");
    table.row().cell("e2e rpc").num(row.rpc_count).num(e2e_mean_us, 2)
        .cell("").cell("").cell("");
    table.print();
}

/// Path of an incident file "<prefix>-<seq>.json" whose trigger is an
/// SLO rule ("slo:<rule>"), or "" when none exists. The trigger sits
/// in the file's leading "incident" header, so reading the head of
/// each file is enough.
std::string
find_slo_incident(const std::string& prefix)
{
    glob_t found{};
    std::string hit;
    if (glob((prefix + "-*.json").c_str(), 0, nullptr, &found) == 0) {
        for (size_t i = 0; i < found.gl_pathc && hit.empty(); ++i) {
            FILE* file = std::fopen(found.gl_pathv[i], "r");
            if (file == nullptr) continue;
            char head[256] = {};
            const size_t n = std::fread(head, 1, sizeof head - 1, file);
            std::fclose(file);
            if (n > 0 && std::strstr(head, "\"trigger\": \"slo:")) {
                hit = found.gl_pathv[i];
            }
        }
    }
    globfree(&found);
    return hit;
}

} // namespace
} // namespace rococo

int
main(int argc, char** argv)
{
    using namespace rococo;

    Cli cli(argc, argv,
            {"clients", "batch", "shards", "requests", "outstanding",
             "reads", "writes", "keys", "socket", "csv", "stages",
             "tm-threads", "telemetry-server", "telemetry-client",
             "zipf", "hot-keys", "recorder-out", "monitor",
             "slo-abort-rate", "slo-fast-ms", "slo-slow-ms"});
    LoadConfig load;
    load.socket_path = cli.get("socket", "/tmp/rococo_loadgen_" +
                                             std::to_string(getpid()) +
                                             ".sock");
    load.requests = static_cast<uint64_t>(cli.get_int("requests", 20000));
    load.outstanding =
        static_cast<size_t>(cli.get_int("outstanding", 16));
    load.reads = static_cast<unsigned>(cli.get_int("reads", 4));
    load.writes = static_cast<unsigned>(cli.get_int("writes", 2));
    load.keys = static_cast<uint64_t>(cli.get_int("keys", 4096));
    load.tm_threads =
        static_cast<unsigned>(cli.get_int("tm-threads", 0));
    load.shards = static_cast<uint32_t>(
        std::max<int64_t>(1, cli.get_int("shards", 1)));
    load.zipf = cli.get_double("zipf", 0.0);
    load.hot_keys = static_cast<uint64_t>(
        std::max<int64_t>(0, cli.get_int("hot-keys", 0)));
    load.recorder_out = cli.get("recorder-out", "");
    load.monitor = cli.get_bool("monitor", true);
    load.slo_abort_rate = cli.get_double("slo-abort-rate", 0.0);
    load.slo_fast_ms = static_cast<uint64_t>(
        std::max<int64_t>(0, cli.get_int("slo-fast-ms", 0)));
    load.slo_slow_ms = static_cast<uint64_t>(
        std::max<int64_t>(0, cli.get_int("slo-slow-ms", 0)));
    const bool stages = cli.get_bool("stages", false);
    const std::string telemetry_server = cli.get("telemetry-server", "");
    const std::string telemetry_client = cli.get("telemetry-client", "");
    std::vector<int> client_counts =
        cli.get_int_list("clients", {1, 2, 4, 8});
    std::vector<int> batches = cli.get_int_list("batch", {1, 8, 32});
    if (load.tm_threads > 0) {
        // One RococoTm process per server: the cid-ordered commit log
        // is per-process state (see docs/SERVICE.md § Limitations).
        client_counts = {1};
    }
    if (!telemetry_server.empty() || !telemetry_client.empty() ||
        !load.recorder_out.empty()) {
        // A telemetry capture (or an armed flight recorder, whose
        // incident files are numbered per server) wants one clean
        // measured region, not a sweep: keep the first cell only.
        client_counts.resize(1);
        batches.resize(1);
    }

    Table table({"clients", "batch", "kreq/s", "p50_us",
                 "p95_us", "p99_us", "commit%", "abort%", "bells/req",
                 "elapsed_ms"});
    std::vector<SweepRow> rows;
    for (int clients : client_counts) {
        for (int batch : batches) {
            // Inert when the path is empty; resets + collects the
            // server-side (parent process) half of the capture.
            obs::TelemetrySession server_session(telemetry_server);
            const SweepRow row =
                run_one(load, static_cast<size_t>(clients),
                        static_cast<size_t>(batch), telemetry_client);
            if (!server_session.finish()) return 1;
            rows.push_back(row);
            const double done = double(std::max<uint64_t>(row.completed, 1));
            table.row()
                .num(static_cast<uint64_t>(row.clients))
                .num(static_cast<uint64_t>(row.batch))
                .num(row.kreq_s, 1)
                .num(double(row.p50_ns) / 1e3, 1)
                .num(double(row.p95_ns) / 1e3, 1)
                .num(double(row.p99_ns) / 1e3, 1)
                .num(100.0 * double(row.commits) / done, 1)
                .num(100.0 * double(row.aborts) / done, 1)
                .num(row.bells_per_req, 3)
                .num(row.elapsed_ms, 1);
        }
    }
    table.print();
    if (stages) {
        for (const SweepRow& row : rows) print_stage_table(row);
    }

    const std::string csv_path = cli.get("csv", "");
    if (!csv_path.empty()) {
        std::vector<std::string> header = {
            "clients", "batch",    "kreq_s",  "p50_ns",  "p95_ns",
            "p99_ns",  "commits",  "aborts",  "timeouts", "rejected"};
        for (size_t s = 0; s < kStageCount; ++s) {
            header.push_back(std::string("stage_") + kStageNames[s] +
                             "_mean_ns");
        }
        CsvWriter csv(csv_path, header);
        for (const SweepRow& row : rows) {
            std::vector<std::string> cells = {
                std::to_string(row.clients),
                std::to_string(row.batch),
                std::to_string(row.kreq_s),
                std::to_string(row.p50_ns),
                std::to_string(row.p95_ns),
                std::to_string(row.p99_ns),
                std::to_string(row.commits),
                std::to_string(row.aborts),
                std::to_string(row.timeouts),
                std::to_string(row.rejected)};
            for (size_t s = 0; s < kStageCount; ++s) {
                cells.push_back(std::to_string(
                    static_cast<uint64_t>(stage_mean_us(row.stages[s]) *
                                          1e3)));
            }
            csv.write_row(cells);
        }
    }

    // An armed recorder with an SLO threshold that never dumped an
    // "slo:" incident is a failed run: the incident fixture (tests/)
    // relies on this exit code, and interactively it catches a
    // threshold set above the spike actually produced.
    if (!load.recorder_out.empty() && load.slo_abort_rate > 0) {
        const std::string incident = find_slo_incident(load.recorder_out);
        if (incident.empty()) {
            std::fprintf(stderr,
                         "svc_loadgen: recorder armed (SLO abort-rate"
                         " %.3f) but no slo: incident under %s-*.json\n",
                         load.slo_abort_rate, load.recorder_out.c_str());
            return 1;
        }
        std::printf("incident: %s\n", incident.c_str());
    }
    return 0;
}
