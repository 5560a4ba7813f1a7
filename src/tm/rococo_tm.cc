#include "tm/rococo_tm.h"

#include <thread>

#include "common/check.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"
#include "shard/router.h"
#include "svc/client.h"

namespace rococo::tm {
namespace {

/// Per-thread binding of this runtime's descriptor index.
thread_local unsigned tls_thread_id = ~0u;

uint64_t
cell_key(const TmCell& cell)
{
    return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(&cell));
}

/// Config-selected validation backend: in-process pipeline by default,
/// a sharded router when validation_shards > 1, service client when a
/// socket path is configured.
std::unique_ptr<fpga::ValidationBackend>
make_backend(const RococoTmConfig& config)
{
    if (config.validation_service.empty()) {
        if (config.validation_shards > 1) {
            shard::ShardConfig sharded;
            sharded.shards = config.validation_shards;
            sharded.engine = config.engine;
            return std::make_unique<shard::ShardRouter>(sharded);
        }
        return std::make_unique<fpga::ValidationPipeline>(config.engine);
    }
    svc::ClientConfig client;
    client.socket_path = config.validation_service;
    client.engine = config.engine;
    auto backend = std::make_unique<svc::ValidationClient>(client);
    // A disconnected client resolves every validate() as kRejected, so
    // a wrong or unreachable socket path would silently retry forever;
    // fail construction loudly instead.
    ROCOCO_CHECK(backend->connected() &&
                 "validation service unreachable at "
                 "RococoTmConfig::validation_service");
    return backend;
}

} // namespace

/// The Tx handle: Algorithm 1's TM_READ / TM_WRITE.
class RococoTm::TxImpl final : public Tx
{
  public:
    TxImpl(RococoTm& rt, TxDescriptor& d)
        : rt_(rt), d_(d)
    {
    }

    Word
    load(const TmCell& cell) override
    {
        // Read-after-write: serve from the redo log (lines 1-4).
        Word value;
        if (!d_.redo.empty() && d_.redo.get(&cell, value)) return value;

        const uint64_t addr = cell_key(cell);
        for (unsigned spin = 0;; ++spin) {
            value = cell.value.load(std::memory_order_acquire);

            // Commit-time lock check AFTER the speculative load: if no
            // committer holds addr now, either the value predates any
            // in-flight commit of it, or that commit already advanced
            // GlobalTS and the snapshot scan below will catch it
            // (line 5).
            if (rt_.update_set_.query(addr)) {
                if (d_.miss_active) {
                    abort_tx(*d_.hot.eager_aborts,
                             obs::AbortReason::kLockedConflict);
                }
                std::this_thread::yield();
                continue;
            }

            const uint64_t gts = rt_.commit_log_.global_ts();
            if (d_.local_ts < gts) {
                const uint64_t prev_local = d_.local_ts;
                // Snapshot extension (lines 9-13): union the write
                // signatures of commits [LocalTS, GlobalTS).
                d_.temp_set.clear();
                if (!rt_.commit_log_.collect(d_.local_ts, gts,
                                             d_.temp_set)) {
                    abort_tx(*d_.hot.stale_aborts,
                             obs::AbortReason::kSnapshotStale);
                }
                d_.local_ts = gts;

                // Lines 14-19: if a previous read may have been
                // invalidated, the snapshot cannot be extended — fold
                // the missed updates into MissSet.
                const bool read_conflict =
                    d_.read_set.may_intersect(d_.temp_set) &&
                    d_.read_set.confirmed_intersect(d_.temp_set);
                if (d_.miss_active || read_conflict) {
                    d_.miss_set.unite(d_.temp_set);
                    d_.miss_active = true;
                } else {
                    d_.valid_ts = gts;
                }
                if (d_.temp_set.query(addr)) {
                    // addr itself was just updated: the loaded value's
                    // vintage is ambiguous; re-read with the advanced
                    // snapshot (or abort if the snapshot is broken).
                    if (d_.miss_active && d_.miss_set.query(addr)) {
                        abort_eager_conflict(prev_local, gts, addr);
                    }
                    continue;
                }
            }
            if (d_.miss_active && d_.miss_set.query(addr)) {
                // Reading an address in the miss set: no consistent
                // snapshot exists (Fig. 8 (d)).
                abort_eager_conflict(d_.valid_ts, d_.local_ts, addr);
            }
            break;
        }
        d_.read_set.insert(addr);
        return value;
    }

    void
    store(TmCell& cell, Word value) override
    {
        // Lines 21-22: buffer the tentative write.
        d_.write_sig.insert(cell_key(cell));
        d_.redo.put(&cell, value);
    }

    [[noreturn]] void
    retry() override
    {
        d_.user_retry = true;
        abort_tx(*d_.hot.eager_aborts, obs::AbortReason::kExplicitRetry);
    }

  private:
    [[noreturn]] void
    abort_tx(obs::Counter& counter, obs::AbortReason reason)
    {
        counter.add(1);
        d_.last_abort = reason;
        throw TxAbortException{};
    }

    /// kEagerConflict abort with provenance: name the commit in
    /// [from, to) whose write signature covers @p addr (the update that
    /// broke the snapshot). Abort path only — successful loads never
    /// scan.
    [[noreturn]] void
    abort_eager_conflict(uint64_t from, uint64_t to, uint64_t addr)
    {
        d_.last_conflict_cid =
            rt_.commit_log_.find_conflicting(from, to, addr);
        if (d_.last_conflict_cid != core::kNoConflictCid) {
            d_.hot.conflict_attributed->add(1);
        }
        abort_tx(*d_.hot.eager_aborts, obs::AbortReason::kEagerConflict);
    }

    RococoTm& rt_;
    TxDescriptor& d_;
};

RococoTm::RococoTm(const RococoTmConfig& config)
    : config_(config), backend_(make_backend(config)),
      sig_config_(backend_->signature_config()),
      commit_log_(sig_config_, config.commit_log_capacity),
      update_set_(sig_config_, config.max_threads),
      descriptors_(config.max_threads)
{
}

RococoTm::~RococoTm()
{
    backend_->stop();
    if (obs::telemetry_active()) {
        // Hand the backend-side occupancy gauges and verdict counters
        // to the session being recorded before they are destroyed.
        backend_->export_metrics(obs::Registry::global());
    }
}

void
RococoTm::thread_init(unsigned thread_id)
{
    ROCOCO_CHECK(thread_id < config_.max_threads);
    {
        std::lock_guard<std::mutex> lock(descriptor_mutex_);
        if (!descriptors_[thread_id]) {
            descriptors_[thread_id] =
                std::make_unique<TxDescriptor>(sig_config_, thread_id);
        }
    }
    tls_thread_id = thread_id;
}

void
RococoTm::thread_fini()
{
    ROCOCO_CHECK(tls_thread_id != ~0u);
    TxDescriptor& d = *descriptors_[tls_thread_id];
    registry_.merge(d.stats);
    d.stats.reset();
    tls_thread_id = ~0u;
}

TxDescriptor&
RococoTm::descriptor()
{
    ROCOCO_CHECK(tls_thread_id != ~0u);
    return *descriptors_[tls_thread_id];
}

bool
RococoTm::try_execute(const std::function<void(Tx&)>& body)
{
    TxDescriptor& d = descriptor();

    if (config_.irrevocable_after != 0 &&
        d.consecutive_aborts >= config_.irrevocable_after) {
        // Starvation escape hatch (§4.2): drain all concurrent
        // transactions and run alone. With no concurrency the snapshot
        // stays current, no forward edges arise, and validation cannot
        // fail — the attempt below must commit.
        std::unique_lock<std::shared_mutex> exclusive(gate_);
        const bool committed = attempt(body, d);
        if (!committed) {
            // Only a body-requested retry() — or, with a service
            // backend, a transport failure (timeout / backpressure) —
            // can fail here: running alone, validation cannot. Fall
            // back to optimistic mode either way.
            ROCOCO_CHECK((d.user_retry ||
                          d.last_abort == obs::AbortReason::kTimeout ||
                          d.last_abort == obs::AbortReason::kBackpressure) &&
                         "irrevocable attempt must commit");
            d.consecutive_aborts = 0;
            return false;
        }
        d.consecutive_aborts = 0;
        d.hot.irrevocable_commits->add(1);
        return true;
    }

    std::shared_lock<std::shared_mutex> shared(gate_);
    const bool committed = attempt(body, d);
    d.consecutive_aborts = committed ? 0 : d.consecutive_aborts + 1;
    return committed;
}

bool
RococoTm::attempt(const std::function<void(Tx&)>& body, TxDescriptor& d)
{
    d.reset(commit_log_.global_ts());
    TxImpl tx(*this, d);

    try {
        obs::ScopedSpan execute_span("tm", "tx.execute");
        body(tx);
    } catch (const TxAbortException&) {
        d.hot.aborts->add(1);
        return false;
    }

    if (d.redo.empty()) {
        // Read-only fast path: the snapshot stayed consistent at
        // valid_ts, commit directly on the CPU (§5.3).
        TRACE_INSTANT("tm", "tx.readonly_commit");
        d.hot.commits->add(1);
        d.hot.read_only_commits->add(1);
        return true;
    }

    // Ship R/W sets and ValidTS to the validation pipeline and wait
    // for the verdict (Fig. 6).
    fpga::OffloadRequest request;
    {
        TRACE_SPAN("tm", "tx.ship");
        request.reads = d.read_set.addresses();
        request.writes.reserve(d.redo.size());
        for (const auto& entry : d.redo.entries()) {
            request.writes.push_back(cell_key(*entry.cell));
        }
        request.snapshot_cid = d.valid_ts;
    }

    core::ValidationResult verdict;
    {
        obs::ScopedSpan validate_span("tm", "tx.validate");
        const fpga::Deadline deadline =
            config_.validation_timeout_ns > 0
                ? std::chrono::steady_clock::now() +
                      std::chrono::nanoseconds(config_.validation_timeout_ns)
                : fpga::kNoDeadline;
        verdict = backend_->validate(std::move(request), deadline);
        if (verdict.verdict == core::Verdict::kCommit) {
            validate_span.arg("cid", verdict.cid);
        }
    }
    if (verdict.verdict != core::Verdict::kCommit) {
        d.last_abort = verdict.reason == obs::AbortReason::kNone
                           ? obs::AbortReason::kUnknown
                           : verdict.reason;
        // Abort provenance shipped with the verdict: the committed cid
        // this attempt collided with (engine-local, wire or sharded —
        // all carry it in ValidationResult::conflict_cid).
        d.last_conflict_cid = verdict.conflict_cid;
        if (verdict.conflict_cid != core::kNoConflictCid) {
            d.hot.conflict_attributed->add(1);
        }
        d.hot.aborts->add(1);
        d.hot.validation_aborts->add(1);
        switch (verdict.verdict) {
          case core::Verdict::kAbortCycle:
            d.hot.cycle_aborts->add(1);
            break;
          case core::Verdict::kWindowOverflow:
            d.hot.overflow_aborts->add(1);
            break;
          case core::Verdict::kTimeout:
            d.hot.timeout_aborts->add(1);
            break;
          default:
            d.hot.rejected_aborts->add(1);
            break;
        }
        return false;
    }

    // Committer (§5.3): commit-time locking, in-cid-order write-back.
    const uint64_t cid = verdict.cid;
    {
        obs::ScopedSpan commit_span("tm", "tx.commit", "cid", cid);
        update_set_.publish(d.thread_id, d.write_sig);
        {
            TRACE_SPAN("tm", "tx.commit_lock");
            commit_log_.wait_turn(cid);
        }
        {
            TRACE_SPAN("tm", "tx.writeback");
            d.redo.apply();
        }
        commit_log_.publish(cid, d.write_sig);
        commit_log_.advance(cid);
        update_set_.clear(d.thread_id);
    }

    d.hot.commits->add(1);
    return true;
}

CounterBag
RococoTm::stats() const
{
    return registry_.to_counter_bag();
}

obs::AbortReason
RococoTm::last_abort_reason() const
{
    if (tls_thread_id == ~0u || !descriptors_[tls_thread_id]) {
        return obs::AbortReason::kUnknown;
    }
    return descriptors_[tls_thread_id]->last_abort;
}

uint64_t
RococoTm::last_conflict_cid() const
{
    if (tls_thread_id == ~0u || !descriptors_[tls_thread_id]) {
        return core::kNoConflictCid;
    }
    return descriptors_[tls_thread_id]->last_conflict_cid;
}

} // namespace rococo::tm
