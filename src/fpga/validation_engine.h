/// @file
/// The complete FPGA validation engine: Detector + Manager in lockstep
/// (Fig. 5), plus the link timing model. The Manager — the
/// reachability matrix held in 2D registers plus the commit/evict
/// control — is the sliding-window validator itself
/// (core/sliding_window.h). This is the functional model —
/// call process() per request, in commit-arrival order. Concurrency and
/// queueing live one level up (ValidationPipeline for real threads, the
/// discrete-event simulator for modelled time).
#pragma once

#include <cstdint>
#include <memory>

#include "core/sliding_window.h"
#include "fpga/cci_link.h"
#include "fpga/detector.h"
#include "obs/topk.h"

namespace rococo::fpga {

/// Engine configuration; defaults reproduce the paper's deployment
/// (W = 64, 512-bit signatures, HARP2 link timings).
struct EngineConfig
{
    size_t window = 64;
    unsigned signature_bits = 512;
    unsigned signature_hashes = 4;
    uint64_t hash_seed = 42;
    /// Validate read-only transactions through the full cycle check
    /// instead of the paper's direct-commit fast path.
    bool strict_read_only = false;
    /// Hot-key forensics sampling: feed the conflict top-K sketch on
    /// every Nth cycle abort (1 = every abort, 0 = never). Only the
    /// abort path pays; compiled out entirely under ROCOCO_FORENSICS_OFF.
    unsigned forensics_sample = 1;
    LinkParams link;
};

/// Functional + timing model of the offloaded validation phase.
class ValidationEngine
{
  public:
    explicit ValidationEngine(const EngineConfig& config = {});

    const EngineConfig& config() const { return config_; }
    const CciLinkModel& link() const { return link_; }

    /// Signature geometry shared with CPU-side eager detection.
    const std::shared_ptr<const sig::SignatureConfig>& signature_config()
        const
    {
        return sig_config_;
    }

    /// Process one validation request (classification + reachability
    /// check + bookkeeping on commit).
    core::ValidationResult process(const OffloadRequest& request);

    /// The Detector half of process(): classify @p request against the
    /// current history without touching state.
    core::ValidationRequest classify(const OffloadRequest& request) const;

    /// classify() into caller-owned storage, reusing @p out's capacity
    /// (the zero-allocation hot path). Callers must serialize per
    /// engine, as they already do for process().
    void classify_into(const OffloadRequest& request,
                       core::ValidationRequest* out) const;

    /// Validate @p classified without committing — no window mutation.
    /// The reserve phase of the cross-shard two-phase coordinator
    /// (src/shard) holds the shard lock between this and
    /// commit_classified(), so the verdict cannot go stale.
    core::Verdict validate_only(const core::ValidationRequest& classified)
        const;

    /// The Manager half of process(): decide-and-commit a request
    /// previously built by classify(); records the commit's signatures
    /// on kCommit.
    core::ValidationResult commit_classified(
        const core::ValidationRequest& classified,
        const OffloadRequest& request);

    /// Feed the hot-key forensics sketch for an abort attributed to
    /// engine-local commit @p conflict_cid: the addresses of
    /// @p request that actually matched that commit's signatures.
    /// commit_classified() calls this on its own cycle aborts; the
    /// shard router calls it for aborts its coordinator raises before
    /// reaching the manager (fence rejections, reserve-phase cycles),
    /// which would otherwise never reach the sketch. Sampled per
    /// EngineConfig::forensics_sample; same serialization contract as
    /// process().
    void record_conflict(const OffloadRequest& request,
                         uint64_t conflict_cid);

    /// Modelled end-to-end latency of @p request when the pipeline is
    /// otherwise idle, in ns.
    double isolated_latency_ns(const OffloadRequest& request) const;

    uint64_t next_cid() const { return validator_.next_cid(); }
    uint64_t window_start() const { return validator_.window_start(); }

    const ConflictDetector& detector() const { return detector_; }
    /// The Manager: reachability matrix + commit/evict control.
    const core::SlidingWindowValidator& validator() const
    {
        return validator_;
    }

    /// Hot-key attribution sketch: the addresses of conflicting
    /// read/write-set entries, sampled on the cycle-abort path (see
    /// EngineConfig::forensics_sample). Same serialization contract as
    /// process() — read it under whatever lock serializes the engine.
    const obs::TopK& conflict_topk() const { return conflict_topk_; }

  private:
    EngineConfig config_;
    CciLinkModel link_;
    std::shared_ptr<const sig::SignatureConfig> sig_config_;
    ConflictDetector detector_;
    core::SlidingWindowValidator validator_;
    /// Classification scratch for process(); capacity reaches the
    /// window high-water once and is reused per request.
    core::ValidationRequest classify_scratch_;
    obs::TopK conflict_topk_;
    uint64_t cycle_aborts_ = 0; ///< forensics sampling counter
};

} // namespace rococo::fpga
