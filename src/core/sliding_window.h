/// @file
/// Sliding-window ROCoCo validator (§4.2).
///
/// Hardware resources are bounded, so the FPGA keeps closure state for
/// only the last W committed transactions. Commits are numbered by a
/// monotonically increasing commit id (cid); cid c lives in slot c % W,
/// and committing cid c evicts cid c - W. A validating transaction that
/// depends on an evicted commit — i.e. one that "neglects updates of
/// t_{k-W}" — aborts with kWindowOverflow.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "core/reachability_matrix.h"
#include "obs/abort_reason.h"

namespace rococo::core {

/// Why a transaction was admitted or rejected by the validator (or, for
/// the last two, by the serving layer in front of it — the validator
/// itself only ever returns the first three).
enum class Verdict : uint8_t
{
    kCommit,         ///< no cycle; transaction committed and got a cid
    kAbortCycle,     ///< would close a ->rw cycle
    kWindowOverflow, ///< depends on a commit already evicted from the window
    kTimeout,        ///< deadline elapsed before the engine decided
    kRejected,       ///< server shed load (queue full); retry later
};

const char* to_string(Verdict verdict);

/// Number of Verdict values — sized for per-verdict counter arrays on
/// hot paths that must not build counter-name strings per request.
inline constexpr size_t kVerdictCount =
    static_cast<size_t>(Verdict::kRejected) + 1;

/// Typed abort cause for a rejecting verdict (obs::AbortReason::kNone
/// for kCommit), so telemetry attributes validator aborts without
/// re-deriving the mapping at every call site.
obs::AbortReason abort_reason(Verdict verdict);

/// A validation request expressed in commit ids: the incoming
/// transaction's direct R/W dependencies to already-committed
/// transactions.
struct ValidationRequest
{
    /// Commits the transaction must precede (t ->rw t_c): it read a
    /// version older than c's write.
    std::vector<uint64_t> forward;
    /// Commits that must precede the transaction (t_c ->rw t): RAW, WAR
    /// and WAW dependencies on c.
    std::vector<uint64_t> backward;
};

/// Sentinel for ValidationResult::conflict_cid: no conflicting commit
/// was identified for this result.
inline constexpr uint64_t kNoConflictCid = ~uint64_t{0};

/// Outcome of a validation.
struct ValidationResult
{
    Verdict verdict = Verdict::kAbortCycle;
    /// The commit id assigned on kCommit (undefined otherwise).
    uint64_t cid = 0;
    /// Typed abort cause (kNone on kCommit); always consistent with
    /// verdict — set wherever a result is constructed.
    obs::AbortReason reason = obs::AbortReason::kNone;
    /// Abort provenance: on kAbortCycle, the commit id of the committed
    /// transaction this one collided with (a witness of the cycle —
    /// cycles through several commits name the first found). Backends
    /// that cannot attribute the abort (timeouts, rejections, window
    /// overflows) leave kNoConflictCid.
    uint64_t conflict_cid = kNoConflictCid;
};

/// cid-addressed wrapper around ReachabilityMatrix implementing the
/// sliding-window policy. Single-threaded: concurrency is provided by
/// the pipeline around it (fpga/validation_pipeline.h), matching the
/// centralized Manager of the paper.
class SlidingWindowValidator
{
  public:
    explicit SlidingWindowValidator(size_t window);

    size_t window() const { return matrix_.window(); }

    /// cid that would be assigned to the next commit. cids start at 0.
    uint64_t next_cid() const { return next_cid_; }

    /// Oldest cid still present in the window (== next_cid() when the
    /// window is empty).
    uint64_t window_start() const;

    /// Number of commits currently tracked.
    size_t occupancy() const;

    /// Validate the request; on kCommit the transaction is atomically
    /// added to the window (evicting the oldest entry if full).
    ValidationResult validate_and_commit(const ValidationRequest& request);

    /// Validate without committing (used for what-if analysis and
    /// read-only transactions that still want a serializability check).
    Verdict validate_only(const ValidationRequest& request) const;

    /// Does committed cid @p a reach committed cid @p b? Both must be in
    /// the window. Exposed for tests and diagnostics.
    bool reaches(uint64_t a, uint64_t b) const;

    const ReachabilityMatrix& matrix() const { return matrix_; }

  private:
    /// Commit id of the current occupant of @p slot, or kNoConflictCid
    /// when @p slot is kNoConflictSlot or holds no live commit.
    uint64_t conflict_cid_at(size_t slot) const;

    /// Translate a cid-based request into slot vectors; returns false if
    /// any cid is already evicted.
    bool build_vectors(const ValidationRequest& request, BitVector& f,
                       BitVector& b) const;

    ReachabilityMatrix matrix_;
    uint64_t next_cid_ = 0;
    /// Per-call scratch (edge vectors + probe result), window-sized at
    /// construction so steady-state validation allocates nothing.
    /// Mutable because validate_only() is logically const; the class is
    /// single-threaded by contract (see the class comment), so the
    /// scratch needs no further synchronization.
    mutable BitVector f_scratch_;
    mutable BitVector b_scratch_;
    mutable ProbeResult probe_scratch_;
};

} // namespace rococo::core
