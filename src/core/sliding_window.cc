#include "core/sliding_window.h"

#include "common/check.h"

namespace rococo::core {

const char*
to_string(Verdict verdict)
{
    switch (verdict) {
      case Verdict::kCommit: return "commit";
      case Verdict::kAbortCycle: return "abort-cycle";
      case Verdict::kWindowOverflow: return "window-overflow";
      case Verdict::kTimeout: return "timeout";
      case Verdict::kRejected: return "rejected";
    }
    return "?";
}

obs::AbortReason
abort_reason(Verdict verdict)
{
    switch (verdict) {
      case Verdict::kCommit: return obs::AbortReason::kNone;
      case Verdict::kAbortCycle: return obs::AbortReason::kValidationCycle;
      case Verdict::kWindowOverflow: return obs::AbortReason::kWindowEviction;
      case Verdict::kTimeout: return obs::AbortReason::kTimeout;
      case Verdict::kRejected: return obs::AbortReason::kBackpressure;
    }
    return obs::AbortReason::kUnknown;
}

uint64_t
SlidingWindowValidator::window_start() const
{
    const uint64_t held = matrix_.occupied().count();
    return next_cid_ - held;
}

size_t
SlidingWindowValidator::occupancy() const
{
    return matrix_.occupied().count();
}

uint64_t
SlidingWindowValidator::conflict_cid_at(size_t slot) const
{
    if (slot == kNoConflictSlot) return kNoConflictCid;
    // The occupant of slot s is the unique cid c in
    // [window_start, next_cid) with c % W == s.
    const uint64_t start = window_start();
    const uint64_t w = window();
    const uint64_t cid = start + ((slot + w - start % w) % w);
    return cid < next_cid_ ? cid : kNoConflictCid;
}

bool
SlidingWindowValidator::build_vectors(const ValidationRequest& request,
                                      SlotSet& f, SlotSet& b) const
{
    const uint64_t start = window_start();
    for (uint64_t cid : request.forward) {
        ROCOCO_CHECK(cid < next_cid_);
        if (cid < start) return false;
        f.set(cid % window());
    }
    for (uint64_t cid : request.backward) {
        ROCOCO_CHECK(cid < next_cid_);
        if (cid < start) return false;
        b.set(cid % window());
    }
    return true;
}

ValidationResult
SlidingWindowValidator::validate_and_commit(const ValidationRequest& request)
{
    SlotSet f, b;
    if (!build_vectors(request, f, b)) {
        return {Verdict::kWindowOverflow, 0,
                obs::AbortReason::kWindowEviction};
    }

    const ProbeResult probe = matrix_.probe(f, b);
    if (probe.cyclic) {
        return {Verdict::kAbortCycle, 0, obs::AbortReason::kValidationCycle,
                conflict_cid_at(probe.conflict_slot)};
    }

    const uint64_t cid = next_cid_++;
    const size_t slot = cid % window();
    // Slot holds cid - W when the window is full: evict the oldest.
    // The probe legitimately ran against the full window (the hardware
    // detector compares against h_63 before the shift), so p/s may name
    // the evictee's slot; insert() reads a p bit there as a t |> evictee
    // edge, so future transactions reaching t abort.
    if (matrix_.occupied().test(slot)) matrix_.clear_slot(slot);
    matrix_.insert(slot, probe);
    return {Verdict::kCommit, cid, obs::AbortReason::kNone};
}

Verdict
SlidingWindowValidator::validate_only(const ValidationRequest& request) const
{
    SlotSet f, b;
    if (!build_vectors(request, f, b)) return Verdict::kWindowOverflow;
    return matrix_.probe(f, b).cyclic ? Verdict::kAbortCycle
                                      : Verdict::kCommit;
}

bool
SlidingWindowValidator::reaches(uint64_t a, uint64_t b) const
{
    ROCOCO_CHECK(a >= window_start() && a < next_cid_);
    ROCOCO_CHECK(b >= window_start() && b < next_cid_);
    return matrix_.reaches(a % window(), b % window());
}

} // namespace rococo::core
