/// Closed-loop KV benchmark over the full validation stack
/// (core -> fpga -> shard -> svc -> tm -> kv). See perfbench/README.md
/// for why each workload exists and which metric each layer moves.
///
/// One process runs one workload with two client threads. Each client
/// issues its next operation only after the previous one returned, the
/// way TM threads wait for their verdicts. The seed selects the key/op
/// stream; the store only ever sees the generated keys.
///
///   kvbench --workload=NAME --seed=N --seconds=S --trace=0|1
///           [--trace-out=FILE]
///   kvbench --dump-stream=N --workload=NAME --seed=N
///   kvbench --self-test
///
/// --trace=0 measures, untraced, kRounds fresh deployments for an equal
/// share of --seconds each and prints the end-to-end metrics.
/// --trace=1 builds one deployment, runs an untraced phase, an
/// engine-replay rung, then the same phase with a TelemetrySession on,
/// and prints the per-layer metrics. The traced phase runs in windows
/// short enough that the tracer's rings keep every event; the rings
/// are analysed between windows, and the last window is written to
/// --trace-out. All spans this file adds wrap calls to public
/// functions; nothing inside src/ is changed for the benchmark.
///
/// The last line of stdout is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/barrier.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "fpga/validation_engine.h"
#include "kv/kv_store.h"
#include "obs/abort_reason.h"
#include "obs/clock.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "svc/server.h"

namespace rococo::perfbench {
namespace {

using kv::kMaxTxnKeys;

// --------------------------------------------------------------------
// Workloads and the seeded op stream.

enum class OpKind : uint8_t
{
    kGet,
    kRmw,
};

/// One slice of a workload's mix: @p pct percent of operations are
/// @p kind over a uniformly drawn fan-in in [fan_min, fan_max].
struct MixEntry
{
    unsigned pct;
    OpKind kind;
    unsigned fan_min;
    unsigned fan_max;
};

struct Workload
{
    const char* name;
    uint64_t keys;
    size_t capacity;
    double zipf; ///< 0 = uniform
    std::vector<MixEntry> mix;
    bool service; ///< validate over the socket against an svc::Server
};

/// The workloads; README.md records why each exists.
const std::vector<Workload>&
workloads()
{
    static const std::vector<Workload> all = {
        {"kv-hot-update", 8192, size_t{1} << 16, 0.99,
         {{50, OpKind::kGet, 1, 1},
          {30, OpKind::kRmw, 1, 1},
          {20, OpKind::kRmw, 4, 4}},
         false},
        {"kv-rmw-svc", 65536, size_t{1} << 18, 0.0,
         {{30, OpKind::kGet, 1, 1}, {70, OpKind::kRmw, 2, 4}},
         true},
    };
    return all;
}

const Workload*
find_workload(const std::string& name)
{
    for (const Workload& w : workloads()) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

struct Op
{
    OpKind kind = OpKind::kGet;
    unsigned fan = 1;
    uint64_t key[kMaxTxnKeys] = {};
};

/// Stream identities: every (phase, round, client) draws its own
/// sub-stream of the seed, so a warm-up never shifts the timed stream.
enum StreamPhase : uint64_t
{
    kStreamWarmup = 1,
    kStreamTimed = 2,
    kStreamTraced = 3,
    kStreamReplay = 4,
};

uint64_t
stream_seed(uint64_t seed, StreamPhase phase, unsigned round, unsigned client)
{
    uint64_t state = seed;
    const uint64_t mixed = splitmix64(state);
    state = mixed ^ (uint64_t{phase} << 48) ^ (uint64_t{round} << 16) ^ client;
    return splitmix64(state);
}

/// The seeded key/op generator. Rmw keys are distinct within one
/// operation (kv::KvInterface::rmw requires it).
class OpStream
{
  public:
    OpStream(const Workload& w, const ZipfSampler* zipf, uint64_t seed)
        : w_(w), zipf_(zipf), rng_(seed)
    {
    }

    Op
    next()
    {
        Op op;
        unsigned roll = static_cast<unsigned>(rng_.below(100));
        const MixEntry* entry = &w_.mix.back();
        for (const MixEntry& e : w_.mix) {
            if (roll < e.pct) {
                entry = &e;
                break;
            }
            roll -= e.pct;
        }
        op.kind = entry->kind;
        op.fan = entry->fan_min + static_cast<unsigned>(rng_.below(
                                      entry->fan_max - entry->fan_min + 1));
        for (unsigned j = 0; j < op.fan; ++j) {
            uint64_t k = zipf_ ? zipf_->draw(rng_) : rng_.below(w_.keys);
            for (unsigned d = 0; d < j;) {
                if (op.key[d] == k) {
                    k = (k + 1) % w_.keys;
                    d = 0;
                } else {
                    ++d;
                }
            }
            op.key[j] = k;
        }
        return op;
    }

  private:
    const Workload& w_;
    const ZipfSampler* zipf_;
    Xoshiro256 rng_;
};

constexpr size_t kKeyBufLen = 24;

size_t
format_key(uint64_t k, char* buf)
{
    return static_cast<size_t>(
        std::snprintf(buf, kKeyBufLen, "user%" PRIu64, k));
}

/// Loaded value of key @p k. Rmws move units between keys, so values
/// drift from here; sums are compared modulo 2^64.
uint64_t
initial_value(uint64_t k)
{
    return (uint64_t{1} << 32) + k;
}

uint64_t
loaded_sum(const Workload& w)
{
    uint64_t sum = 0;
    for (uint64_t k = 0; k < w.keys; ++k) sum += initial_value(k);
    return sum;
}

// --------------------------------------------------------------------
// Latency recording.

/// Log-linear latency histogram: exact below 256 ns, then 128
/// sub-buckets per power of two (<= 0.8% relative error), with linear
/// interpolation inside a bucket. Fixed size, mergeable per thread.
/// obs::LatencyHistogram's power-of-two buckets (up to 2x error) are too
/// coarse to resolve a change the size of the metrics' bounds.
class LatencyRecorder
{
  public:
    void
    record(uint64_t ns)
    {
        ++counts_[index(std::min(ns, kMaxValue))];
        ++total_;
    }

    void
    merge(const LatencyRecorder& other)
    {
        for (size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
        total_ += other.total_;
    }

    uint64_t count() const { return total_; }

    /// Value at quantile @p q in ns (0 with no samples).
    double
    quantile(double q) const
    {
        if (total_ == 0) return 0.0;
        const double rank = q * double(total_ - 1);
        uint64_t below = 0;
        for (size_t i = 0; i < kBuckets; ++i) {
            const uint64_t c = counts_[i];
            if (c == 0) continue;
            if (double(below + c) > rank) {
                const double within = (rank - double(below) + 0.5) / double(c);
                return double(lower(i)) + within * double(width(i));
            }
            below += c;
        }
        return double(kMaxValue);
    }

  private:
    static constexpr unsigned kSubBits = 7;
    static constexpr unsigned kMaxBits = 36;
    static constexpr uint64_t kMaxValue = uint64_t{1} << kMaxBits;
    static constexpr size_t kBuckets = (kMaxBits - kSubBits + 2) << kSubBits;

    static size_t
    index(uint64_t v)
    {
        if (v < (uint64_t{2} << kSubBits)) return static_cast<size_t>(v);
        const unsigned e = unsigned(std::bit_width(v)) - 1 - kSubBits;
        return (size_t{e} << kSubBits) + static_cast<size_t>(v >> e);
    }
    static unsigned
    exponent(size_t i)
    {
        return i < (size_t{2} << kSubBits) ? 0
                                           : unsigned(i >> kSubBits) - 1;
    }
    static uint64_t
    lower(size_t i)
    {
        const unsigned e = exponent(i);
        return e == 0 ? i : uint64_t(i - (size_t{e} << kSubBits)) << e;
    }
    static uint64_t width(size_t i) { return uint64_t{1} << exponent(i); }

    std::vector<uint64_t> counts_ = std::vector<uint64_t>(kBuckets);
    uint64_t total_ = 0;
};

// --------------------------------------------------------------------
// CPU placement.

constexpr unsigned kClients = 2;

/// The CPUs this process may run on, as found at start-up.
const std::vector<int>&
allowed_cpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
                if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
            }
        }
        return out;
    }();
    return cpus;
}

/// Each client thread gets a CPU of its own; the program's threads
/// share the rest, so a run does not depend on where the scheduler
/// happens to put (and move) threads, each move restarting a thread on
/// a cold L2. With fewer than kClients + 2 CPUs nothing is pinned.
bool
placement_possible()
{
    return allowed_cpus().size() >= kClients + 2;
}

void
pin_client(unsigned client)
{
    if (!placement_possible()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(allowed_cpus()[client], &set);
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// Confine the calling (main) thread, and so every thread the program
/// creates from it later (pipeline worker, svc client reader, server IO
/// thread), to the CPUs the clients do not use.
void
pin_program_threads()
{
    if (!placement_possible()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t i = kClients; i < allowed_cpus().size(); ++i) {
        CPU_SET(allowed_cpus()[i], &set);
    }
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// --------------------------------------------------------------------
// Deployment: store (+ in-process server on the service workload).

struct Deployment
{
    std::unique_ptr<svc::Server> server;
    std::unique_ptr<kv::KvStore> store;

    ~Deployment()
    {
        store.reset(); // disconnect the client before the server stops
        if (server) server->stop();
    }
};

std::string
socket_path()
{
    // Relative to the working directory, so it stays short enough for
    // sockaddr_un wherever that directory lives.
    return "kvbench-" + std::to_string(getpid()) + ".sock";
}

std::unique_ptr<Deployment>
deploy(const Workload& w)
{
    auto d = std::make_unique<Deployment>();
    kv::KvStoreConfig config;
    config.capacity = w.capacity;
    if (w.service) {
        svc::ServerConfig server_config;
        server_config.socket_path = socket_path();
        server_config.shards = 2;
        d->server = std::make_unique<svc::Server>(server_config);
        if (!d->server->start()) {
            std::fprintf(stderr, "kvbench: cannot bind %s\n",
                         server_config.socket_path.c_str());
            return nullptr;
        }
        config.tm.validation_service = server_config.socket_path;
        config.tm.validation_timeout_ns = 500'000'000;
    }
    d->store = std::make_unique<kv::KvStore>(config);
    return d;
}

/// Load every key through real rmw transactions, kMaxTxnKeys keys per
/// transaction, split across the client threads. Returns the number of
/// keys that were not inserted (a correctness violation).
uint64_t
load(kv::KvStore& store, const Workload& w)
{
    std::atomic<uint64_t> violations{0};
    std::vector<std::thread> loaders;
    for (unsigned c = 0; c < kClients; ++c) {
        loaders.emplace_back([&, c] {
            pin_client(c);
            store.thread_init(1 + c);
            char bufs[kMaxTxnKeys][kKeyBufLen];
            std::string_view keys[kMaxTxnKeys];
            for (uint64_t base = c * kMaxTxnKeys; base < w.keys;
                 base += kClients * kMaxTxnKeys) {
                const size_t n =
                    std::min<uint64_t>(kMaxTxnKeys, w.keys - base);
                for (size_t j = 0; j < n; ++j) {
                    keys[j] = {bufs[j], format_key(base + j, bufs[j])};
                }
                bool present = false;
                const kv::KvStatus status = store.rmw(
                    {keys, n}, [&](std::span<kv::RmwEntry> entries) {
                        present = false;
                        for (size_t j = 0; j < entries.size(); ++j) {
                            present = present || entries[j].found;
                            entries[j].value = initial_value(base + j);
                            entries[j].write = true;
                        }
                    });
                if (status != kv::KvStatus::kOk || present) {
                    violations.fetch_add(n);
                }
            }
            store.thread_fini();
        });
    }
    for (std::thread& t : loaders) t.join();
    return violations.load();
}

// --------------------------------------------------------------------
// Closed-loop phases.

/// One slice of a phase. Timed phases are cut into slices of about a
/// second; figures are means over the slices in which the hypervisor
/// stole no more CPU time than in the median slice. On a shared virtual
/// machine, steal comes in bursts of seconds that halve throughput and
/// multiply tail latency; they are interference from other tenants, not
/// a property of the code under test.
struct Slice
{
    LatencyRecorder read;  ///< get, timed around the KvStore call
    LatencyRecorder write; ///< rmw
    uint64_t ops = 0;
    uint64_t elapsed_ns = 0;
    uint64_t steal_ticks = 0; ///< CPU time stolen, all CPUs, USER_HZ ticks
};

struct PhaseResult
{
    std::vector<Slice> slices;
    uint64_t ops = 0;
    uint64_t rmw_ok = 0; ///< committed rmws: each adds one unit in total
    uint64_t failed = 0; ///< failed ops: missing loaded key, kNoSpace
    uint64_t elapsed_ns = 0;
};

constexpr uint64_t kSliceNs = 1'000'000'000;

/// Cumulative steal time over all CPUs (the 8th field of the "cpu" line
/// of /proc/stat), or 0 where it cannot be read.
uint64_t
steal_ticks()
{
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return 0;
    unsigned long long v[8] = {};
    const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                              &v[0], &v[1], &v[2], &v[3], &v[4], &v[5],
                              &v[6], &v[7]);
    std::fclose(f);
    return n == 8 ? v[7] : 0;
}

/// Called by run_phase between the windows of an op-bounded phase,
/// while every client is parked; @p last is true after the final one.
using WindowHook = std::function<void(bool last)>;

/// Run the workload on every client thread. With @p ops_per_client set,
/// the phase is a series of windows of that many ops per client, one
/// slice each, repeated until the windows add up to @p duration_ns (one
/// window when it is 0); @p between runs after each window. Otherwise
/// the phase runs for @p duration_ns in slices of about kSliceNs.
PhaseResult
run_phase(kv::KvStore& store, const Workload& w, const ZipfSampler* zipf,
          uint64_t seed, StreamPhase phase, unsigned round,
          uint64_t ops_per_client, uint64_t duration_ns,
          const WindowHook& between = {})
{
    const size_t n_slices =
        std::max<uint64_t>(1, (duration_ns + kSliceNs / 2) / kSliceNs);
    std::vector<PhaseResult> per_client(kClients);
    std::atomic<size_t> current{0};
    std::atomic<bool> stop{false};
    Barrier barrier(kClients + 1);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            pin_client(c);
            store.thread_init(1 + c);
            PhaseResult& r = per_client[c];
            OpStream stream(w, zipf, stream_seed(seed, phase, round, c));
            char bufs[kMaxTxnKeys][kKeyBufLen];
            std::string_view keys[kMaxTxnKeys];
            bool missing = false;
            // Every rmw adds exactly one unit across its keys.
            auto transfer = [&missing](std::span<kv::RmwEntry> view) {
                missing = false;
                for (size_t j = 0; j < view.size(); ++j) {
                    missing = missing || !view[j].found;
                    view[j].value += j == 0 ? view.size() : uint64_t(-1);
                    view[j].write = true;
                }
            };
            auto one_op = [&](Slice& slice) {
                const Op op = stream.next();
                for (unsigned j = 0; j < op.fan; ++j) {
                    keys[j] = {bufs[j], format_key(op.key[j], bufs[j])};
                }
                bool ok = true;
                switch (op.kind) {
                  case OpKind::kGet: {
                    obs::ScopedSpan span("kv", "kv.get");
                    uint64_t value = 0;
                    const uint64_t t0 = obs::now_ns();
                    ok = store.get(keys[0], value) == kv::KvStatus::kOk;
                    slice.read.record(obs::now_ns() - t0);
                    break;
                  }
                  case OpKind::kRmw: {
                    obs::ScopedSpan span("kv", "kv.rmw");
                    const uint64_t t0 = obs::now_ns();
                    ok = store.rmw({keys, op.fan}, transfer) ==
                         kv::KvStatus::kOk;
                    slice.write.record(obs::now_ns() - t0);
                    if (ok) ++r.rmw_ok;
                    ok = ok && !missing;
                    break;
                  }
                }
                ++slice.ops;
                ++r.ops;
                if (!ok) ++r.failed;
            };
            barrier.arrive_and_wait();
            if (ops_per_client) {
                do {
                    Slice& slice = r.slices.emplace_back();
                    for (uint64_t i = 0; i < ops_per_client; ++i) {
                        one_op(slice);
                    }
                    barrier.arrive_and_wait(); // window done
                    barrier.arrive_and_wait(); // next one decided
                } while (!stop.load(std::memory_order_relaxed));
            } else {
                r.slices.resize(n_slices);
                while (!stop.load(std::memory_order_relaxed)) {
                    one_op(r.slices[std::min(
                        current.load(std::memory_order_relaxed),
                        n_slices - 1)]);
                }
            }
            store.thread_fini();
        });
    }
    // Per slice: wall time and steal, measured here.
    std::vector<uint64_t> elapsed, stolen;
    barrier.arrive_and_wait();
    uint64_t t0 = obs::now_ns();
    uint64_t s0 = steal_ticks();
    auto close_slice = [&] {
        const uint64_t t1 = obs::now_ns();
        const uint64_t s1 = steal_ticks();
        elapsed.push_back(t1 - t0);
        stolen.push_back(s1 - s0);
        t0 = t1;
        s0 = s1;
    };
    if (ops_per_client) {
        uint64_t measured = 0;
        for (bool last = false; !last;) {
            barrier.arrive_and_wait();
            close_slice();
            measured += elapsed.back();
            last = measured >= duration_ns;
            if (between) between(last);
            stop.store(last, std::memory_order_relaxed);
            t0 = obs::now_ns();
            s0 = steal_ticks();
            barrier.arrive_and_wait();
        }
    } else {
        const uint64_t start = t0;
        for (size_t i = 1; i <= n_slices; ++i) {
            const uint64_t due = start + duration_ns * i / n_slices;
            const uint64_t now = obs::now_ns();
            if (due > now) {
                std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
            }
            close_slice();
            if (i < n_slices) {
                current.store(i, std::memory_order_relaxed);
            } else {
                stop.store(true, std::memory_order_relaxed);
            }
        }
    }
    for (std::thread& t : clients) t.join();
    PhaseResult total;
    total.slices.resize(elapsed.size());
    for (size_t i = 0; i < elapsed.size(); ++i) {
        Slice& merged = total.slices[i];
        merged.elapsed_ns = elapsed[i];
        merged.steal_ticks = stolen[i];
        total.elapsed_ns += elapsed[i];
        for (const PhaseResult& r : per_client) {
            merged.read.merge(r.slices[i].read);
            merged.write.merge(r.slices[i].write);
            merged.ops += r.slices[i].ops;
        }
    }
    for (const PhaseResult& r : per_client) {
        total.ops += r.ops;
        total.rmw_ok += r.rmw_ok;
        total.failed += r.failed;
    }
    return total;
}

/// The slices of @p r whose steal is at most that of its median slice
/// (the lower one for an even count): at least half of them, and every
/// slice when steal reads the same everywhere, so ties never drop a
/// round.
std::vector<const Slice*>
clean_slices(const PhaseResult& r)
{
    std::vector<uint64_t> steal;
    for (const Slice& s : r.slices) steal.push_back(s.steal_ticks);
    const auto mid = steal.begin() + (steal.size() - 1) / 2;
    std::nth_element(steal.begin(), mid, steal.end());
    std::vector<const Slice*> clean;
    for (const Slice& s : r.slices) {
        if (s.steal_ticks <= *mid) clean.push_back(&s);
    }
    return clean;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Mean of @p per_slice over the clean slices of @p r. A mean, not a
/// median: slices fall into per-deployment modes (see kRounds), and the
/// mean moves smoothly with the mix of modes where a median jumps.
template <typename PerSlice>
double
slice_mean(const PhaseResult& r, PerSlice&& per_slice)
{
    const std::vector<const Slice*> clean = clean_slices(r);
    double sum = 0;
    for (const Slice* s : clean) sum += per_slice(*s);
    return sum / double(clean.size());
}

double
ops_per_s(const PhaseResult& r)
{
    return slice_mean(r, [](const Slice& s) {
        return double(s.ops) / (double(s.elapsed_ns) / 1e9);
    });
}

double
read_us(const PhaseResult& r, double q)
{
    return slice_mean(r, [q](const Slice& s) {
        return s.read.quantile(q) / 1e3;
    });
}

double
write_us(const PhaseResult& r, double q)
{
    return slice_mean(r, [q](const Slice& s) {
        return s.write.quantile(q) / 1e3;
    });
}

// --------------------------------------------------------------------
// Correctness gate.

/// Outcome of the checks; each violated check counts as one failed
/// operation, plus one per key that a read could not find.
struct Gate
{
    uint64_t violations = 0;

    void
    check(bool ok, const char* what)
    {
        if (ok) return;
        ++violations;
        std::fprintf(stderr, "kvbench: correctness violation: %s\n", what);
    }
};

/// Read every loaded key in one quiescent pass (through transactions)
/// and compare the sum with @p expected_sum.
void
check_store(kv::KvStore& store, const Workload& w, uint64_t expected_sum,
            Gate& gate)
{
    store.thread_init(0);
    uint64_t sum = 0;
    uint64_t missing = 0;
    char buf[kKeyBufLen];
    for (uint64_t k = 0; k < w.keys; ++k) {
        uint64_t value = 0;
        if (store.get({buf, format_key(k, buf)}, value) !=
            kv::KvStatus::kOk) {
            ++missing;
        }
        sum += value;
    }
    store.thread_fini();
    gate.violations += missing;
    gate.check(missing == 0, "loaded key not found by get");
    gate.check(sum == expected_sum,
               "sum over keys != loaded sum + committed rmws");
}

void
check_kv_accounting(const kv::KvStore& store, Gate& gate)
{
    uint64_t ops = 0;
    for (const char* op : kv::kOpNames) {
        ops += store.metrics().get(std::string("kv.ops.") + op);
    }
    gate.check(ops == store.metrics().get("kv.txn.commits"),
               "sum(kv.ops.*) != kv.txn.commits");
}

void
check_server_ledger(const svc::Server& server, Gate& gate)
{
    const CounterBag stats = server.stats();
    uint64_t answered = stats.get("svc.timeout") + stats.get("svc.rejected");
    for (const auto& [name, value] : stats.counters()) {
        if (name.rfind("svc.verdict.", 0) == 0) answered += value;
    }
    gate.check(answered == stats.get("svc.requests"),
               "svc.requests != sum(svc.verdict.*) + svc.timeout + "
               "svc.rejected");
}

// --------------------------------------------------------------------
// Output.

struct Metric
{
    std::string name;
    double value;
    const char* unit;
};

void
print_result(bool correct, uint64_t attempted, uint64_t failed,
             const std::vector<Metric>& metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    // A non-finite value prints as nan/inf, which is not JSON: run.py
    // then refuses the result instead of reporting a made-up number.
    for (size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit);
    }
    std::printf("}}\n");
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/// Peak RSS of this program image in MB. VmHWM, not getrusage: the
/// kernel carries ru_maxrss across execve, so a large parent (the
/// Python runner) would show through.
double
peak_rss_mb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0.0;
    char line[256];
    unsigned long kib = 0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
    }
    std::fclose(f);
    return double(kib) / 1024.0;
}

// --------------------------------------------------------------------
// Trace analysis: self time, blocking-chain coverage, cross-thread
// matching of validation spans.

/// Sample of one span name: count and total of a duration.
struct Mean
{
    uint64_t n = 0;
    double sum = 0;

    void
    add(double v)
    {
        ++n;
        sum += v;
    }
    double value() const { return n ? sum / double(n) : 0.0; }
};

struct SpanInfo
{
    const obs::TraceEvent* event;
    uint64_t child_ns = 0; ///< covered by direct children (self = dur - this)
    uint64_t chain_ns = 0; ///< kv spans: covered by blocking-chain stages
    uint64_t rpc_trace_id = 0; ///< tx.validate: its svc.rpc child's id
};

bool
is_named(const obs::TraceEvent& e, const char* name)
{
    return e.name != nullptr && std::strcmp(e.name, name) == 0;
}

/// The stages of a writing transaction's blocking chain inside one KV
/// call (rococo_tm.cc); what they leave uncovered is the residual.
bool
is_chain_stage(const obs::TraceEvent& e)
{
    return is_named(e, "tx.execute") || is_named(e, "tx.ship") ||
           is_named(e, "tx.validate") || is_named(e, "tx.commit");
}

struct TraceFacts
{
    std::map<std::string, Mean> self_ns;  ///< by span name
    std::map<std::string, Mean> total_ns; ///< by span name
    Mean rmw_chain_residual; ///< kv.rmw: uncovered ns
    Mean rmw_total;          ///< kv.rmw: duration ns
    Mean handoff_ns;         ///< tx.validate minus its engine span
    uint64_t spans = 0;      ///< complete spans analysed
    uint64_t dropped = 0;    ///< events the rings overwrote
    size_t max_thread_events = 0; ///< fullest ring of any window
};

/// Add one window of trace events to @p facts. When the rings
/// overwrote events (@p truncated), a span is only analysed when it
/// started after its thread's oldest surviving event ended: spans are
/// recorded when they end, so some of its children may be gone.
void
analyse_trace(const std::vector<obs::TraceEvent>& events, bool truncated,
              TraceFacts& facts)
{
    std::unordered_map<uint32_t, std::vector<const obs::TraceEvent*>> by_tid;
    std::unordered_map<uint32_t, uint64_t> horizon;
    std::unordered_map<uint32_t, size_t> per_thread;
    for (const obs::TraceEvent& e : events) {
        auto [it, fresh] = horizon.try_emplace(e.tid, e.ts_ns + e.dur_ns);
        if (!fresh) it->second = std::min(it->second, e.ts_ns + e.dur_ns);
        facts.max_thread_events =
            std::max(facts.max_thread_events, ++per_thread[e.tid]);
        if (e.phase == obs::EventPhase::kComplete) by_tid[e.tid].push_back(&e);
    }

    // Engine spans by join key: cid (in-process pipeline) or the svc
    // trace id (server span's parent_span_id).
    std::unordered_map<uint64_t, uint64_t> engine_by_cid;
    std::unordered_map<uint64_t, uint64_t> engine_by_trace;
    std::vector<SpanInfo> validates;

    for (auto& [tid, spans] : by_tid) {
        std::sort(spans.begin(), spans.end(),
                  [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns
                                                  : a->dur_ns > b->dur_ns;
                  });
        std::vector<SpanInfo> infos;
        infos.reserve(spans.size());
        for (const obs::TraceEvent* e : spans) infos.push_back({e});
        std::vector<size_t> stack;
        const uint64_t oldest_end = truncated ? horizon[tid] : 0;
        auto finish = [&](const SpanInfo& s) {
            const obs::TraceEvent& e = *s.event;
            if (e.ts_ns < oldest_end) return;
            ++facts.spans;
            facts.total_ns[e.name].add(double(e.dur_ns));
            facts.self_ns[e.name].add(
                double(e.dur_ns - std::min(e.dur_ns, s.child_ns)));
            if (is_named(e, "kv.rmw")) {
                facts.rmw_total.add(double(e.dur_ns));
                facts.rmw_chain_residual.add(
                    double(e.dur_ns - std::min(e.dur_ns, s.chain_ns)));
            } else if (is_named(e, "fpga.validate") && e.arg_name) {
                engine_by_cid[e.arg_value] = e.dur_ns;
            } else if (is_named(e, "svc.server.validate")) {
                engine_by_trace[e.arg_value] = e.dur_ns;
            } else if (is_named(e, "tx.validate")) {
                validates.push_back(s);
            }
        };
        for (size_t i = 0; i < infos.size(); ++i) {
            const obs::TraceEvent& e = *infos[i].event;
            while (!stack.empty()) {
                const obs::TraceEvent& top = *infos[stack.back()].event;
                if (top.ts_ns + top.dur_ns > e.ts_ns) break;
                finish(infos[stack.back()]);
                stack.pop_back();
            }
            if (!stack.empty()) {
                SpanInfo& parent = infos[stack.back()];
                parent.child_ns += e.dur_ns;
                if (is_named(e, "svc.rpc")) parent.rpc_trace_id = e.arg_value;
                if (is_chain_stage(e)) {
                    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
                        if (std::strncmp(infos[*it].event->name, "kv.", 3) ==
                            0) {
                            infos[*it].chain_ns += e.dur_ns;
                            break;
                        }
                    }
                }
            }
            stack.push_back(i);
        }
        while (!stack.empty()) {
            finish(infos[stack.back()]);
            stack.pop_back();
        }
    }

    for (const SpanInfo& v : validates) {
        const obs::TraceEvent& e = *v.event;
        const auto* table = &engine_by_cid;
        uint64_t key = e.arg_value;
        if (v.rpc_trace_id != 0) {
            table = &engine_by_trace;
            key = v.rpc_trace_id;
        } else if (e.arg_name == nullptr) {
            continue; // aborted verdict: no cid to join on
        }
        const auto it = table->find(key);
        if (it == table->end() || it->second > e.dur_ns) continue;
        facts.handoff_ns.add(double(e.dur_ns - it->second));
    }
}

/// Totals of one server histogram, for deltas across the traced phase
/// (the server's histograms cover its whole lifetime).
struct HistTotals
{
    uint64_t count = 0;
    uint64_t sum = 0;
};

struct ServerSample
{
    CounterBag counters;
    std::map<std::string, HistTotals> hists;
    /// Largest engine pass, i.e. the most requests found waiting.
    uint64_t batch_max = 0;
};

constexpr const char* kServerHists[] = {
    "svc.stage.server_queue", "svc.stage.batch_wait", "svc.stage.engine",
    "svc.stage.shard_route",  "svc.stage.shard_coord", "svc.batch_size",
};

ServerSample
sample_server(const svc::Server& server)
{
    ServerSample s;
    s.counters = server.stats();
    obs::Registry registry;
    server.export_metrics(registry);
    for (const char* name : kServerHists) {
        const obs::LatencyHistogram& h = registry.histogram(name);
        s.hists[name] = {h.count(), h.sum()};
    }
    s.batch_max = registry.histogram("svc.batch_size").max();
    return s;
}

double
delta_mean(const ServerSample& before, const ServerSample& after,
           const char* hist)
{
    const HistTotals& a = before.hists.at(hist);
    const HistTotals& b = after.hists.at(hist);
    return ratio(double(b.sum - a.sum), double(b.count - a.count));
}

uint64_t
delta(const CounterBag& before, const CounterBag& after,
      const std::string& name)
{
    return after.get(name) - before.get(name);
}

/// sig/core replay rung: rmw-shaped requests built from the workload's
/// keys (slot-derived wire addresses, as ycsb_run --service does),
/// pushed through one ValidationEngine's two halves with a span around
/// each call. Each request's snapshot lags the head by kReplayLag
/// commits, the concurrency two clients produce.
void
replay_engine(const Workload& w, const ZipfSampler* zipf, uint64_t seed)
{
    constexpr size_t kReplayRequests = 20000;
    constexpr uint64_t kReplayLag = 2;
    kv::KeyMapper mapper(w.capacity);
    OpStream stream(w, zipf, stream_seed(seed, kStreamReplay, 0, 0));
    std::vector<fpga::OffloadRequest> requests;
    requests.reserve(kReplayRequests);
    char buf[kKeyBufLen];
    while (requests.size() < kReplayRequests) {
        const Op op = stream.next();
        if (op.kind != OpKind::kRmw) continue;
        fpga::OffloadRequest& r = requests.emplace_back();
        for (unsigned j = 0; j < op.fan; ++j) {
            const size_t slot =
                mapper.map({buf, format_key(op.key[j], buf)}).home;
            r.reads.push_back(kv::KeyMapper::meta_addr(slot));
            r.reads.push_back(kv::KeyMapper::value_addr(slot));
            r.writes.push_back(kv::KeyMapper::value_addr(slot));
        }
    }
    fpga::ValidationEngine engine;
    core::ValidationRequest classified;
    for (fpga::OffloadRequest& r : requests) {
        const uint64_t head = engine.next_cid();
        r.snapshot_cid = head > kReplayLag ? head - kReplayLag : 0;
        {
            obs::ScopedSpan span("sig", "sig.classify");
            engine.classify_into(r, &classified);
        }
        {
            obs::ScopedSpan span("core", "core.commit");
            engine.commit_classified(classified, r);
        }
    }
}

// --------------------------------------------------------------------
// Entry points.

/// Ops per client of the warm-up that closes every setup.
constexpr uint64_t kWarmupOps = 10000;
/// Rounds of an untraced run. Each round builds a fresh deployment
/// (timed as one setup), measures for its share of --seconds, checks
/// the gate and tears down. On a 4-vCPU KVM guest each deployment
/// settled into one of two speeds for its whole life (a read-mostly mix
/// over a 16 MiB table: read p50 about 0.77 or 0.92 us, whatever the
/// seed), so a run mixes several.
constexpr unsigned kRounds = 10;
/// Trace ring per thread, in events.
constexpr size_t kTraceRing = size_t{1} << 16;
/// Ops per client in one window of a traced run. Between windows the
/// rings are analysed and emptied, so they hold every event of the
/// traced phase. A window fills the fullest ring to about a half (the
/// stderr line of a traced run reports the fill).
constexpr uint64_t kTraceWindowOps = 4096;

struct Prepared
{
    std::unique_ptr<Deployment> deployment;
    double setup_s = 0;
    uint64_t load_violations = 0;
    uint64_t warmup_rmw_ok = 0;
    uint64_t warmup_failed = 0;
};

/// Construct, load and warm up one deployment, timed.
std::optional<Prepared>
prepare(const Workload& w, const ZipfSampler* zipf, uint64_t seed,
        unsigned round)
{
    Prepared p;
    const uint64_t t0 = obs::now_ns();
    p.deployment = deploy(w);
    if (!p.deployment) return std::nullopt;
    p.load_violations = load(*p.deployment->store, w);
    const PhaseResult warm = run_phase(*p.deployment->store, w, zipf, seed,
                                       kStreamWarmup, round, kWarmupOps, 0);
    p.setup_s = double(obs::now_ns() - t0) / 1e9;
    p.warmup_rmw_ok = warm.rmw_ok;
    p.warmup_failed = warm.failed;
    return p;
}

/// Gate checks after a deployment's last phase: the store is checked in
/// place, the server ledger once the client is gone. Returns the failed
/// operations of the deployment's load and warm-up plus the violations.
uint64_t
gate_and_teardown(Prepared& p, const Workload& w, uint64_t timed_rmw_ok)
{
    Gate gate;
    kv::KvStore& store = *p.deployment->store;
    check_store(store, w, loaded_sum(w) + p.warmup_rmw_ok + timed_rmw_ok,
                gate);
    check_kv_accounting(store, gate);
    std::unique_ptr<svc::Server> server = std::move(p.deployment->server);
    p.deployment.reset();
    if (server) {
        server->stop();
        check_server_ledger(*server, gate);
    }
    return p.load_violations + p.warmup_failed + gate.violations;
}

int
run_e2e(const Workload& w, const ZipfSampler* zipf, uint64_t seed,
        uint64_t duration_ns)
{
    std::vector<double> setups;
    PhaseResult all;
    uint64_t failed = 0;
    for (unsigned round = 0; round < kRounds; ++round) {
        std::optional<Prepared> p = prepare(w, zipf, seed, round);
        if (!p) return 1;
        setups.push_back(p->setup_s);
        PhaseResult r = run_phase(*p->deployment->store, w, zipf, seed,
                                  kStreamTimed, round, 0,
                                  duration_ns / kRounds);
        failed += r.failed + gate_and_teardown(*p, w, r.rmw_ok);
        all.ops += r.ops;
        for (Slice& s : r.slices) all.slices.push_back(std::move(s));
    }
    uint64_t stolen = 0, kept_steal = 0;
    for (const Slice& s : all.slices) {
        stolen += s.steal_ticks;
        std::fprintf(stderr,
                     "  slice ops/s=%.0f read_p50_us=%.3f "
                     "read_p95_us=%.3f write_p50_us=%.2f write_p95_us=%.2f "
                     "steal_ticks=%" PRIu64 "\n",
                     double(s.ops) / (double(s.elapsed_ns) / 1e9),
                     s.read.quantile(0.5) / 1e3, s.read.quantile(0.95) / 1e3,
                     s.write.quantile(0.5) / 1e3,
                     s.write.quantile(0.95) / 1e3, s.steal_ticks);
    }
    const std::vector<const Slice*> clean = clean_slices(all);
    for (const Slice* s : clean) kept_steal += s->steal_ticks;
    std::fprintf(stderr,
                 "kvbench: %s seed=%" PRIu64 " ops=%" PRIu64 " slices=%zu"
                 " steal_ticks=%" PRIu64 " (%zu kept slices: %" PRIu64 ")\n",
                 w.name, seed, all.ops, all.slices.size(), stolen,
                 clean.size(), kept_steal);
    print_result(failed == 0, all.ops, failed,
                 {{"setup_s", median(setups), "s"},
                  {"ops_per_s", ops_per_s(all), "1/s"},
                  {"read_p50_us", read_us(all, 0.50), "us"},
                  {"read_p95_us", read_us(all, 0.95), "us"},
                  {"write_p50_us", write_us(all, 0.50), "us"},
                  {"write_p95_us", write_us(all, 0.95), "us"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"}});
    return 0;
}

int
run_traced(const Workload& w, const ZipfSampler* zipf, uint64_t seed,
           uint64_t duration_ns, const std::string& trace_out)
{
    std::optional<Prepared> p = prepare(w, zipf, seed, 0);
    if (!p) return 1;
    kv::KvStore& store = *p->deployment->store;
    svc::Server* server = p->deployment->server.get();

    // Same windows as the traced phase, so the overhead compares like
    // with like.
    const PhaseResult untraced = run_phase(store, w, zipf, seed, kStreamTimed,
                                           0, kTraceWindowOps, duration_ns);

    obs::Tracer& tracer = obs::Tracer::instance();
    tracer.set_thread_capacity(kTraceRing);
    TraceFacts facts;
    auto analyse_window = [&] {
        tracer.stop();
        const uint64_t dropped = tracer.dropped_events();
        facts.dropped += dropped;
        analyse_trace(tracer.snapshot(), dropped != 0, facts);
    };
    // The replay rung is a window of its own, ahead of the session, which
    // resets the registry: its engine leaves no trace in the tm/fpga
    // counters below.
    tracer.reset();
    tracer.start();
    replay_engine(w, zipf, seed);
    analyse_window();
    facts.max_thread_events = 0; // report the traced phase's fill

    obs::TelemetrySession session(trace_out);
    const CounterBag fpga_before = store.runtime().fpga_stats();
    const uint64_t kv_ops_before = store.metrics().get("kv.txn.commits");
    const uint64_t collisions_before = store.metrics().get("kv.key_collisions");
    std::optional<ServerSample> server_before;
    if (server) server_before = sample_server(*server);

    // Counters and server histograms are deltas over the whole traced
    // phase, and the windows' spans cover that same phase. The last
    // window stays in the rings for the trace file.
    const PhaseResult traced = run_phase(
        store, w, zipf, seed, kStreamTraced, 0, kTraceWindowOps, duration_ns,
        [&](bool last) {
            analyse_window();
            if (!last) {
                tracer.reset();
                tracer.start();
            }
        });

    const CounterBag fpga_after = store.runtime().fpga_stats();
    const uint64_t kv_ops = store.metrics().get("kv.txn.commits") - kv_ops_before;
    const uint64_t collisions =
        store.metrics().get("kv.key_collisions") - collisions_before;
    std::optional<ServerSample> server_after;
    if (server) server_after = sample_server(*server);

    obs::Registry& global = obs::Registry::global();
    const double wall_ns = double(traced.elapsed_ns);

    const double commits = double(global.get("tm.commit"));
    uint64_t retry_ns = 0;
    for (size_t i = 0; i < obs::kAbortReasonCount; ++i) {
        retry_ns += global
                        .histogram(obs::retry_histogram_name(
                            static_cast<obs::AbortReason>(i)))
                        .sum();
    }

    std::vector<Metric> m;
    auto self = [&](const char* name) {
        const auto it = facts.self_ns.find(name);
        return it == facts.self_ns.end() ? 0.0 : it->second.value();
    };
    auto total = [&](const char* name) {
        const auto it = facts.total_ns.find(name);
        return it == facts.total_ns.end() ? 0.0 : it->second.value();
    };

    // kv
    m.push_back({"kv.self_ns.get", self("kv.get"), "ns"});
    m.push_back({"kv.self_ns.rmw", self("kv.rmw"), "ns"});
    m.push_back({"kv.collisions_per_op",
                 ratio(double(collisions), double(kv_ops)), "per_op"});
    m.push_back({"kv.failed_ops", double(traced.failed), "count"});
    // tm
    m.push_back({"tm.attempts_per_commit",
                 ratio(commits + double(global.get("tm.abort")), commits),
                 "ratio"});
    m.push_back({"tm.retry_ns_per_op",
                 ratio(double(retry_ns), double(traced.ops)), "ns"});
    for (obs::AbortReason reason :
         {obs::AbortReason::kEagerConflict, obs::AbortReason::kSnapshotStale,
          obs::AbortReason::kValidationCycle,
          obs::AbortReason::kOrderInversion,
          obs::AbortReason::kWindowEviction, obs::AbortReason::kTimeout}) {
        m.push_back({obs::abort_counter_name(reason),
                     1000.0 * ratio(double(global.get(
                                        obs::abort_counter_name(reason))),
                                    commits),
                     "per_1k_commits"});
    }
    m.push_back({"tm.execute_ns", self("tx.execute"), "ns"});
    m.push_back({"tm.validate_wait_ns", total("tx.validate"), "ns"});
    m.push_back({"tm.commit_ns", total("tx.commit"), "ns"});

    // fpga: the engine wherever it runs — the pipeline thread
    // in-process, the server's engine pass on the service workload.
    double busy_ns = 0;
    double abort_frac = 0;
    double high_water = 0;
    if (server) {
        const CounterBag& a = server_before->counters;
        const CounterBag& b = server_after->counters;
        busy_ns = double(server_after->hists.at("svc.stage.engine").sum -
                         server_before->hists.at("svc.stage.engine").sum);
        const uint64_t answered = delta(a, b, "svc.requests");
        abort_frac = ratio(double(answered - delta(a, b, "svc.verdict.commit")),
                           double(answered));
        high_water = double(server_after->batch_max);
    } else {
        busy_ns = double(global.histogram("fpga.stage.engine").sum());
        const uint64_t submitted = delta(fpga_before, fpga_after, "submitted");
        abort_frac =
            ratio(double(submitted - delta(fpga_before, fpga_after, "commit")),
                  double(submitted));
        high_water = double(fpga_after.get("queue_high_water"));
    }
    m.push_back({"fpga.engine_ns",
                 server ? total("svc.server.validate")
                        : total("fpga.validate"),
                 "ns"});
    m.push_back({"fpga.handoff_ns", facts.handoff_ns.value(), "ns"});
    m.push_back({"fpga.busy_frac", ratio(busy_ns, wall_ns), "ratio"});
    m.push_back({"fpga.queue_high_water", high_water, "requests"});
    m.push_back({"fpga.abort_frac", abort_frac, "ratio"});
    // sig / core (replay rung)
    m.push_back({"sig.classify_ns", total("sig.classify"), "ns"});
    m.push_back({"core.commit_ns", total("core.commit"), "ns"});

    // shard + svc: live server deltas; 0 on the in-process workloads,
    // which have neither layer.
    double cross_frac = 0, route_ns = 0, coord_ns = 0, imbalance = 0;
    double server_queue_ns = 0, batch_wait_ns = 0, engine_ns = 0;
    double batch_mean = 0, svc_failed = 0, wire_ns = 0;
    const double client_queue_ns = total("svc.rpc");
    if (server) {
        const ServerSample& a = *server_before;
        const ServerSample& b = *server_after;
        cross_frac = ratio(double(delta(a.counters, b.counters, "shard.cross")),
                           double(delta(a.counters, b.counters,
                                        "shard.validations")));
        route_ns = delta_mean(a, b, "svc.stage.shard_route");
        coord_ns = delta_mean(a, b, "svc.stage.shard_coord");
        const double v0 = double(delta(a.counters, b.counters,
                                       "shard.0.validations"));
        const double v1 = double(delta(a.counters, b.counters,
                                       "shard.1.validations"));
        imbalance = ratio(std::max(v0, v1), (v0 + v1) / 2);
        server_queue_ns = delta_mean(a, b, "svc.stage.server_queue");
        batch_wait_ns = delta_mean(a, b, "svc.stage.batch_wait");
        engine_ns = delta_mean(a, b, "svc.stage.engine");
        batch_mean = delta_mean(a, b, "svc.batch_size");
        svc_failed = double(delta(a.counters, b.counters, "svc.timeout") +
                            delta(a.counters, b.counters, "svc.rejected"));
        // The client's own stage histograms are not reachable mid-run,
        // so wire is the same residual the client computes: the TM's
        // validate wait minus client queue and the server stages.
        wire_ns = std::max(0.0, total("tx.validate") - client_queue_ns -
                                    server_queue_ns - batch_wait_ns -
                                    engine_ns);
    }
    m.push_back({"shard.cross_frac", cross_frac, "ratio"});
    m.push_back({"shard.route_ns", route_ns, "ns"});
    m.push_back({"shard.coord_ns", coord_ns, "ns"});
    m.push_back({"shard.imbalance", imbalance, "ratio"});
    m.push_back({"svc.client_queue_ns", client_queue_ns, "ns"});
    m.push_back({"svc.wire_ns", wire_ns, "ns"});
    m.push_back({"svc.server_queue_ns", server_queue_ns, "ns"});
    m.push_back({"svc.batch_wait_ns", batch_wait_ns, "ns"});
    m.push_back({"svc.engine_ns", engine_ns, "ns"});
    m.push_back({"svc.batch_size_mean", batch_mean, "requests"});
    m.push_back({"svc.failed", svc_failed, "count"});
    // obs
    m.push_back({"obs.trace_overhead_frac",
                 1.0 - ratio(ops_per_s(traced), ops_per_s(untraced)),
                 "ratio"});
    m.push_back({"obs.write_residual_frac",
                 ratio(facts.rmw_chain_residual.sum, facts.rmw_total.sum),
                 "ratio"});
    m.push_back({"obs.trace_spans", double(facts.spans), "count"});
    m.push_back({"obs.trace_window_s", double(traced.elapsed_ns) / 1e9, "s"});
    m.push_back({"obs.trace_dropped", double(facts.dropped), "count"});

    const uint64_t gate_failed =
        gate_and_teardown(*p, w, untraced.rmw_ok + traced.rmw_ok);
    if (!session.finish()) {
        std::fprintf(stderr, "kvbench: cannot write %s\n", trace_out.c_str());
        return 1;
    }
    const uint64_t failed = untraced.failed + traced.failed + gate_failed;
    std::fprintf(stderr,
                 "kvbench: %s traced seed=%" PRIu64 " ops=%" PRIu64
                 " windows=%zu spans=%" PRIu64 " dropped=%" PRIu64
                 " fullest ring %zu of %zu events -> %s\n",
                 w.name, seed, traced.ops, traced.slices.size(), facts.spans,
                 facts.dropped, facts.max_thread_events, kTraceRing,
                 trace_out.c_str());
    print_result(failed == 0, untraced.ops + traced.ops, failed, m);
    return 0;
}

/// FNV-1a digest of the first @p n ops of each client's timed stream.
uint64_t
stream_digest(const Workload& w, const ZipfSampler* zipf, uint64_t seed,
              uint64_t n)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
        }
    };
    for (unsigned c = 0; c < kClients; ++c) {
        OpStream stream(w, zipf, stream_seed(seed, kStreamTimed, 0, c));
        for (uint64_t i = 0; i < n; ++i) {
            const Op op = stream.next();
            mix(uint64_t(op.kind));
            mix(op.fan);
            for (unsigned j = 0; j < op.fan; ++j) mix(op.key[j]);
        }
    }
    return h;
}

/// Check of the benchmark's own machinery: the correctness gate must
/// reject a wrong expected sum. (Seed determinism is checked through
/// the command line, with --dump-stream.)
int
self_test()
{
    int failures = 0;
    auto expect = [&failures](bool ok, const char* what) {
        std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
        if (!ok) ++failures;
    };

    const Workload small{"self-test", 256, 1024, 0.99,
                         {{50, OpKind::kGet, 1, 1}, {50, OpKind::kRmw, 1, 4}},
                         false};
    const ZipfSampler zipf(small.keys, small.zipf);
    {
        auto d = deploy(small);
        const uint64_t bad_load = load(*d->store, small);
        const PhaseResult r =
            run_phase(*d->store, small, &zipf, 7, kStreamTimed, 0, 500, 0);
        expect(bad_load == 0 && r.failed == 0, "load and phase succeed");
        Gate right;
        check_store(*d->store, small, loaded_sum(small) + r.rmw_ok, right);
        check_kv_accounting(*d->store, right);
        expect(right.violations == 0, "gate accepts the true expected sum");
        Gate wrong;
        check_store(*d->store, small, loaded_sum(small) + r.rmw_ok + 1,
                    wrong);
        expect(wrong.violations > 0, "gate rejects a wrong expected sum");
    }
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace rococo::perfbench

int
main(int argc, char** argv)
{
    using namespace rococo::perfbench;
    rococo::Cli cli(argc, argv,
                    {"workload", "seed", "seconds", "trace", "trace-out",
                     "dump-stream", "self-test"});
    if (cli.get_bool("self-test", false)) return self_test();

    pin_program_threads();
    const std::string name = cli.get("workload", "");
    const Workload* w = find_workload(name);
    if (w == nullptr) {
        std::fprintf(stderr, "kvbench: unknown workload '%s'\n", name.c_str());
        return 2;
    }
    const uint64_t seed = static_cast<uint64_t>(cli.get_int("seed", 1));
    const std::unique_ptr<rococo::ZipfSampler> zipf =
        w->zipf > 0 ? std::make_unique<rococo::ZipfSampler>(w->keys, w->zipf)
                    : nullptr;
    const int64_t dump = cli.get_int("dump-stream", 0);
    if (dump > 0) {
        std::printf("%016" PRIx64 "\n",
                    stream_digest(*w, zipf.get(), seed, uint64_t(dump)));
        return 0;
    }
    const double seconds = cli.get_double("seconds", 10.0);
    if (!(seconds > 0)) {
        std::fprintf(stderr, "kvbench: --seconds must be positive\n");
        return 2;
    }
    const uint64_t duration_ns = static_cast<uint64_t>(seconds * 1e9);
    if (cli.get_int("trace", 0) != 0) {
        return run_traced(*w, zipf.get(), seed, duration_ns,
                          cli.get("trace-out", "kvbench.trace.json"));
    }
    return run_e2e(*w, zipf.get(), seed, duration_ns);
}
