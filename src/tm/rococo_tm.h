/// @file
/// ROCoCoTM: the hybrid TM of §5 — eager CPU-side conflict detection on
/// bloom-filter signatures (Algorithm 1), lazy version management
/// (redo log + commit-time write-back), commit-time locking via the
/// update set, and validation offloaded to the (software-modelled) FPGA
/// pipeline.
///
/// Lifecycle of a writing transaction (Fig. 6 (a)/(b)):
///   Executor (CPU): run the body; every load maintains the lazy
///     snapshot (LocalTS/ValidTS/MissSet) against the commit log and
///     aborts early on inconsistency — "fast path for true conflicts
///     without any atomic operation".
///   Detector+Manager (FPGA): the read/write address sets and ValidTS
///     are shipped over the pull queue; the pipeline classifies
///     dependencies and runs the ROCoCo reachability check.
///   Committer (CPU): on approval, publishes the write signature to the
///     update set, waits its cid turn, applies the redo log, appends
///     its signature to the commit log and advances GlobalTS.
///
/// Read-only transactions commit directly on the CPU (§5.3).
#pragma once

#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "fpga/validation_backend.h"
#include "fpga/validation_pipeline.h"
#include "tm/commit_log.h"
#include "tm/tm.h"
#include "tm/tx_descriptor.h"
#include "tm/update_set.h"

namespace rococo::tm {

struct RococoTmConfig
{
    fpga::EngineConfig engine;
    size_t commit_log_capacity = 1 << 14;
    unsigned max_threads = 64;
    /// Starvation escape hatch (§4.2: "to ensure long transactions can
    /// eventually commit, irrevocability may be required"): after this
    /// many consecutive aborts a transaction runs irrevocably —
    /// exclusively, with every other transaction drained — and is
    /// guaranteed to commit. 0 disables irrevocability.
    unsigned irrevocable_after = 64;
    /// Unix-socket path of a svc::Server to validate against. Empty
    /// (the default) keeps validation in-process: the runtime owns a
    /// ValidationPipeline, the single-address-space deployment of
    /// Fig. 6 (b). Non-empty swaps in a svc::ValidationClient, sharing
    /// the server's sliding window with every other client process —
    /// the engine geometry below must match the server's, and the
    /// server must be reachable when the runtime is constructed
    /// (ROCOCO_CHECK aborts otherwise: a disconnected backend would
    /// reject every validation and retry silently forever).
    std::string validation_service;
    /// Number of validation shards for the in-process deployment. 1
    /// (the default) keeps the single-engine ValidationPipeline; > 1
    /// swaps in a shard::ShardRouter that hash-partitions the address
    /// space across that many engines with cross-shard two-phase
    /// coordination (src/shard/router.h). Ignored when
    /// validation_service is set — the service server owns the shard
    /// count there (svc::ServerConfig::shards).
    uint32_t validation_shards = 1;
    /// Per-validation deadline in ns; 0 waits indefinitely. On expiry
    /// the attempt aborts with obs::AbortReason::kTimeout and retries —
    /// the verdict the backend eventually produces is discarded, which
    /// is safe precisely because the attempt aborts (never
    /// half-commits).
    uint64_t validation_timeout_ns = 0;
};

class RococoTm final : public TmRuntime
{
  public:
    explicit RococoTm(const RococoTmConfig& config = {});
    ~RococoTm() override;

    std::string name() const override { return "ROCoCoTM"; }

    void thread_init(unsigned thread_id) override;
    void thread_fini() override;

    CounterBag stats() const override;

    /// Typed cause of the calling thread's most recent abort.
    obs::AbortReason last_abort_reason() const override;

    /// Abort provenance: the committed cid the calling thread's most
    /// recent abort collided with, or core::kNoConflictCid. Meaningful
    /// under the same contract as last_abort_reason().
    uint64_t last_conflict_cid() const;

    /// Validation-backend verdict counters (the dotted line of
    /// Fig. 10); pipeline- or client-side depending on config.
    CounterBag fpga_stats() const { return backend_->stats(); }

    /// Full metrics registry behind stats() (per-thread registries
    /// merged at thread_fini).
    const obs::Registry& registry() const { return registry_; }

  protected:
    bool try_execute(const std::function<void(Tx&)>& body) override;

  private:
    class TxImpl;

    TxDescriptor& descriptor();

    /// One attempt through the normal path; assumes the caller holds
    /// the execution gate (shared or exclusive).
    bool attempt(const std::function<void(Tx&)>& body, TxDescriptor& d);

    RococoTmConfig config_;
    std::unique_ptr<fpga::ValidationBackend> backend_;
    std::shared_ptr<const sig::SignatureConfig> sig_config_;
    CommitLog commit_log_;
    UpdateSet update_set_;

    /// Execution gate: normal transactions hold it shared; an
    /// irrevocable transaction holds it exclusively, so it runs alone
    /// and its validation cannot fail.
    std::shared_mutex gate_;

    obs::Registry registry_; ///< merged per-thread metrics (thread-safe)
    /// Guards descriptor creation (thread_init from several threads).
    std::mutex descriptor_mutex_;
    std::vector<std::unique_ptr<TxDescriptor>> descriptors_;
};

} // namespace rococo::tm
