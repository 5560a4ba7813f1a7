#include "fpga/validation_engine.h"

namespace rococo::fpga {

ValidationEngine::ValidationEngine(const EngineConfig& config)
    : config_(config), link_(config.link),
      sig_config_(std::make_shared<const sig::SignatureConfig>(
          config.signature_bits, config.signature_hashes, config.hash_seed)),
      detector_(config.window, sig_config_), validator_(config.window)
{
}

core::ValidationResult
ValidationEngine::process(const OffloadRequest& request)
{
    if (request.writes.empty() && !config_.strict_read_only) {
        // Read-only fast path: committed directly on the CPU (§5.3);
        // requests should normally not even reach the engine.
        return {core::Verdict::kCommit, 0, obs::AbortReason::kNone};
    }

    if (request.snapshot_cid < validator_.window_start() &&
        !request.reads.empty()) {
        // The snapshot predates the window: updates of evicted commits
        // may have been neglected (§4.2).
        return {core::Verdict::kWindowOverflow, 0,
                obs::AbortReason::kWindowEviction};
    }

    detector_.classify_into(request, &classify_scratch_);
    return commit_classified(classify_scratch_, request);
}

core::ValidationRequest
ValidationEngine::classify(const OffloadRequest& request) const
{
    return detector_.classify(request);
}

void
ValidationEngine::classify_into(const OffloadRequest& request,
                                core::ValidationRequest* out) const
{
    detector_.classify_into(request, out);
}

core::Verdict
ValidationEngine::validate_only(
    const core::ValidationRequest& classified) const
{
    return validator_.validate_only(classified);
}

core::ValidationResult
ValidationEngine::commit_classified(
    const core::ValidationRequest& classified, const OffloadRequest& request)
{
    const core::ValidationResult result =
        validator_.validate_and_commit(classified);
    if (result.verdict == core::Verdict::kCommit) {
        detector_.record_commit(result.cid, request);
    } else if (result.verdict == core::Verdict::kAbortCycle &&
               result.conflict_cid != core::kNoConflictCid) {
        record_conflict(request, result.conflict_cid);
    }
    return result;
}

void
ValidationEngine::record_conflict([[maybe_unused]] const OffloadRequest&
                                      request,
                                  [[maybe_unused]] uint64_t conflict_cid)
{
#ifndef ROCOCO_FORENSICS_OFF
    if (config_.forensics_sample == 0 ||
        ++cycle_aborts_ % config_.forensics_sample != 0) {
        return;
    }
    // Hot-key attribution: ask the detector which of this request's
    // addresses actually matched the conflicting commit's
    // signatures, and feed them to the sketch. Fixed-size buffers
    // throughout — the abort path stays allocation-free.
    uint64_t addrs[obs::TopK::kCapacity];
    const size_t n = detector_.conflicting_addresses(
        request, conflict_cid, addrs, obs::TopK::kCapacity);
    for (size_t i = 0; i < n; ++i) conflict_topk_.offer(addrs[i]);
#endif
}

double
ValidationEngine::isolated_latency_ns(const OffloadRequest& request) const
{
    return link_.isolated_latency_ns(request.reads.size(),
                                     request.writes.size());
}

} // namespace rococo::fpga
