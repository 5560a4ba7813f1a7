/// @file
/// Sharded validation tier: S independent ValidationEngines — each with
/// its own sliding window, cid space and signature history — behind one
/// fpga::ValidationBackend seam, multiplying the effective window
/// capacity of the single W=64 engine by the shard count (the scaling
/// axis SafarDB takes across accelerator instances).
///
/// Routing. Every address is owned by exactly one shard
/// (shard/partition.h), so every ->rw edge lives in exactly one shard.
/// A transaction touching one shard — the common case the tier is
/// built to keep cheap — validates on that shard alone, in one pass,
/// under that shard's lock, with full ROCoCo flexibility. A
/// transaction touching multiple shards goes through a two-phase
/// coordinator:
///
///   reserve — acquire every touched shard's lock in ascending shard
///       order (a deterministic total order, so concurrent
///       coordinators cannot deadlock) and validate the per-shard
///       slice on each shard without committing. The held lock IS the
///       provisional verdict slot: no other transaction can slip into
///       the shard between reserve and commit, so a reserve-time
///       verdict cannot go stale.
///   commit — only if every shard validated: commit every slice, all
///       under the same lock set, so the transaction occupies one
///       atomic position in the global commit order.
///   release — on any shard's abort, drop the locks; nothing was
///       committed anywhere, no engine state to undo.
///
/// Cross-shard serializability. Per-shard validation alone is unsound:
/// two shards can each accept an edge of a cycle the other never sees.
/// The tier closes this with two conservative rules (proof sketch in
/// docs/SHARDING.md):
///
///   * a cross-shard transaction must have no forward dependencies —
///     it serializes after everything committed at its validation, and
///     its position is the same on every shard (locks make it atomic);
///   * each shard keeps a fence at the cid of its latest cross-shard
///     commit; no later transaction may take a forward dependency at
///     or behind the fence ("commit into the past" never crosses a
///     cross-shard commit).
///
/// Violations abort with obs::AbortReason::kCrossShardFence. Between
/// fences, single-shard transactions keep the full ROCoCo reachability
/// flexibility of the paper.
///
/// Snapshots. Clients ship one global snapshot_cid (commits observed,
/// exactly the ValidTS the single-engine deployment ships). Each shard
/// remembers the global commit number of every commit still in its
/// window, so the router translates the global snapshot into an exact
/// per-shard snapshot. A snapshot too old to translate (the shard has
/// evicted commits the reader may not have observed) aborts
/// kWindowOverflow — the paper's "neglects updates of t_{k-W}" rule at
/// shard granularity. kCommit results carry the *global* commit number
/// as their cid, so the TM's cid-ordered write-back is unchanged.
///
/// Threading. The router owns no threads: validation runs in the
/// calling thread under the touched shards' locks, so concurrent
/// callers on different shards validate genuinely in parallel — the
/// throughput multiplier bench/ablation_shards.cc measures. After
/// stop() validate() returns kRejected at once. Per-request scratch
/// (the partition split, the classified ValidationRequest, the lock
/// array) is thread_local, so any number of caller threads are safe.
/// Single-shard requests take one shard's mutex; cross-shard requests
/// take their ascending unique_lock sets (deadlock-free by the total
/// order on shard ids).
/// svc::Server calls the router from its one service thread; in-process
/// RococoTm deployments (validation_shards > 1) call it from every
/// transaction thread at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fpga/validation_backend.h"
#include "fpga/validation_engine.h"
#include "obs/registry.h"
#include "shard/partition.h"

namespace rococo::shard {

struct ShardConfig
{
    /// Number of validation engines S (>= 1; 1 degenerates to a
    /// single-engine backend with router bookkeeping).
    uint32_t shards = 4;
    /// Per-shard engine geometry: every shard gets its *own* window of
    /// engine.window entries, so total capacity is shards x window.
    fpga::EngineConfig engine;
    /// Seed of the address partitioner; anything computing ownership
    /// (benches, tests) must agree.
    uint64_t partition_seed = 42;
};

/// Per-call routing attribution, for svc.stage.shard_route /
/// svc.stage.shard_coord and the ablation bench.
struct RouteInfo
{
    uint32_t shards_touched = 0;
    uint64_t route_ns = 0; ///< partition + lock acquisition
    uint64_t coord_ns = 0; ///< cross-shard reserve+commit (0 single-shard)
};

/// Fixed-capacity FIFO of strictly increasing values — the shard's
/// in-window commit ledger. A std::deque here allocates a fresh block
/// every ~64 push/pop rotations, which is a per-commit heap hit on the
/// hot path (tests/hotpath_alloc_test.cc pins the steady state at
/// exactly zero); the ledger is bounded by the engine window, so a
/// preallocated ring needs no growth ever. Monotonicity keeps rank
/// queries a binary search.
class MonotoneRing
{
  public:
    /// Size the ring for @p capacity values. Existing contents are
    /// discarded. Allocates; call once at construction time.
    void
    reset(size_t capacity)
    {
        buf_.assign(capacity, 0);
        head_ = 0;
        count_ = 0;
    }

    size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    uint64_t front() const { return buf_[head_]; }
    uint64_t
    operator[](size_t i) const
    {
        return buf_[(head_ + i) % buf_.size()];
    }

    void
    push_back(uint64_t value)
    {
        buf_[(head_ + count_) % buf_.size()] = value;
        ++count_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) % buf_.size();
        --count_;
    }

    /// Number of stored values < @p v (equivalently, the index of the
    /// first value >= v): std::lower_bound over the logical order.
    size_t
    rank(uint64_t v) const
    {
        size_t lo = 0;
        size_t hi = count_;
        while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            if ((*this)[mid] < v) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        return lo;
    }

  private:
    std::vector<uint64_t> buf_;
    size_t head_ = 0;
    size_t count_ = 0;
};

class ShardRouter final : public fpga::ValidationBackend
{
  public:
    explicit ShardRouter(const ShardConfig& config = {});
    ~ShardRouter() override;

    ShardRouter(const ShardRouter&) = delete;
    ShardRouter& operator=(const ShardRouter&) = delete;

    const ShardConfig& config() const { return config_; }
    const Partitioner& partitioner() const { return partitioner_; }

    /// Validate synchronously in the calling thread. @p info, when
    /// non-null, receives the routing attribution of this call.
    core::ValidationResult process(const fpga::OffloadRequest& request,
                                   RouteInfo* info = nullptr);

    /// Total commits across all shards — the global cid space. A
    /// kCommit result's cid is this counter's value at its commit.
    uint64_t global_commits() const
    {
        return global_commits_.load(std::memory_order_acquire);
    }

    /// Sum of per-shard window occupancies.
    size_t occupancy() const;

    /// Live max/mean of the per-shard validation counts — the same
    /// value export_metrics publishes as the shard.imbalance gauge,
    /// readable without a snapshot (lock-free counter reads) so the
    /// MetricSampler can track it as a series. 1.0 is perfectly
    /// balanced; 0 before any validation.
    double imbalance() const;

    /// Modeled isolated CCI latency of @p request on one engine (all
    /// shards share the link parameters).
    double isolated_latency_ns(const fpga::OffloadRequest& request) const;

    /// Diagnostic / test access to shard @p s's engine. Not
    /// synchronized: callers must be quiescent.
    const fpga::ValidationEngine& engine(uint32_t s) const;

    // fpga::ValidationBackend
    /// process() in the calling thread. A deadline already past at the
    /// call is answered kTimeout without validating; once validation has
    /// started it runs to the verdict (its only waits are shard locks,
    /// each held for bounded engine passes).
    core::ValidationResult validate(
        fpga::OffloadRequest request,
        fpga::Deadline deadline = fpga::kNoDeadline) override;

    /// Counters: per-verdict totals ("commit" / "abort-cycle" /
    /// "window-overflow"), "submitted", "timeout", plus the shard.*
    /// keys (shard.<i>.validations, shard.<i>.aborts,
    /// shard.validations, shard.cross). The registry holds the first
    /// two as shard.verdict.<v> and shard.submitted; this view strips
    /// the prefixes.
    CounterBag stats() const override;

    /// Merge router metrics into @p registry: the counters above plus
    /// shard.<i>.occupancy gauges, the shard.cross_fraction and
    /// shard.imbalance gauges (max/mean per-shard validations,
    /// refreshed at export), shard.route_ns / shard.coord_ns
    /// histograms, the conflict-forensics aggregates
    /// (shard.<i>.conflict.{victims,aggressors}, shard.conflict.depth)
    /// and the per-shard hot-key table
    /// (shard.<i>.topk.<rank>.{key,count} gauges — note keys above 2^53
    /// lose precision through the double-typed gauge; topk_json(), the
    /// kSnapshot reply's "topk" section, carries them exactly).
    void export_metrics(obs::Registry& registry) const override;

    /// Serialize every shard's conflict top-K table as JSON (the "topk"
    /// section of the kSnapshot reply): {"shards": [{"shard": s, "offered": n,
    /// "entries": [{"key":..,"count":..,"error":..}, ...]}, ...]}.
    /// Takes each shard lock in turn; exact u64 keys.
    void topk_json(std::string* out) const;

    std::shared_ptr<const sig::SignatureConfig> signature_config()
        const override;

    /// No worker to stop; later submissions resolve kRejected.
    /// Idempotent.
    void stop() override;

  private:
    struct Shard
    {
        std::mutex mutex;
        fpga::ValidationEngine engine;
        /// Global commit number of each in-window commit, oldest first;
        /// evicted in lockstep with the engine window. Sized to
        /// window + 1 at construction (push precedes the conditional
        /// evicting pop), so steady-state commits never allocate.
        MonotoneRing commit_globals;
        uint64_t evicted = 0; ///< per-shard commits dropped from the ring
        /// Per-shard cids < fence may not be forward-dependency targets
        /// (fence = latest cross-shard commit's cid + 1).
        uint64_t fence = 0;
        obs::Counter* validations = nullptr;
        obs::Counter* aborts = nullptr;
        /// Conflict forensics: transactions aborted on this shard with
        /// a named conflicting commit (victims), and times one of this
        /// shard's commits was named as the collision target
        /// (aggressors). They coincide today — a conflict never spans
        /// engines — but the two roles are kept separate so the
        /// scheduler work can consume either signal.
        obs::Counter* conflict_victims = nullptr;
        obs::Counter* conflict_aggressors = nullptr;

        explicit Shard(const fpga::EngineConfig& engine_config)
            : engine(engine_config)
        {
            commit_globals.reset(engine.config().window + 1);
        }
    };

    /// Exact per-shard snapshot for global snapshot @p g, or false when
    /// the shard has evicted commits the reader may not have observed
    /// (conservative kWindowOverflow unless the slice reads nothing).
    static bool translate_snapshot(const Shard& shard, uint64_t g,
                                   uint64_t* out);

    /// Validate one slice on one locked shard up to (not including) the
    /// engine decision: translation, overflow precheck, classification,
    /// fence check. Returns kCommit with @p classified filled when the
    /// slice may proceed to validate/commit.
    core::ValidationResult prepare_slice(Shard& shard, SubRequest& sub,
                                         uint64_t global_snapshot,
                                         bool cross,
                                         core::ValidationRequest* classified);

    /// Record @p sub's commit on @p shard: engine commit, global-number
    /// bookkeeping, fence advance for cross-shard commits.
    void commit_slice(Shard& shard, const SubRequest& sub,
                      const core::ValidationRequest& classified,
                      uint64_t global, bool cross);

    void count_verdict(Shard& shard, const core::ValidationResult& result);

    /// Abort provenance bookkeeping for a non-commit @p result carrying
    /// a shard-local conflict_cid: bump the victim/aggressor counters,
    /// record the conflict depth (how far back in the window the
    /// collision sits), and translate conflict_cid to the global commit
    /// number in place (kNoConflictCid when the mapping was evicted).
    /// Caller holds @p shard's lock.
    void attribute_conflict(Shard& shard, const SubRequest& sub,
                            core::ValidationResult* result);

    ShardConfig config_;
    Partitioner partitioner_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::atomic<uint64_t> global_commits_{0};
    std::atomic<bool> stopped_{false};

    /// shard.* metrics (thread-safe; mutable so the const export path
    /// can refresh derived gauges).
    mutable obs::Registry registry_;
    obs::Counter* submitted_ = nullptr;
    obs::Counter* cross_ = nullptr;
    obs::Counter* total_ = nullptr;
    /// Per-verdict counters resolved once at construction: the hot path
    /// must not build a name string and take the registry mutex per
    /// request (Counter::add is lock-free, lookup is not).
    obs::Counter* verdict_[core::kVerdictCount] = {};
    obs::LatencyHistogram* route_ns_ = nullptr;
    obs::LatencyHistogram* coord_ns_ = nullptr;
    /// Conflict forensics aggregates (see attribute_conflict()).
    obs::Counter* conflict_attributed_ = nullptr;
    obs::LatencyHistogram* conflict_depth_ = nullptr;
};

} // namespace rococo::shard
