/// @file
/// Exact (address-set based) ROCoCo validation.
///
/// This is the reference spelling of the full ROCoCo validation phase:
/// it keeps the precise read/write sets of the committed window,
/// classifies the incoming transaction's dependencies into forward and
/// backward edges, and feeds them to the sliding-window reachability
/// check. The FPGA engine (src/fpga) performs the same classification
/// with bloom-filter signatures — conservatively (false positives add
/// spurious edges) — and is property-tested against this oracle.
///
/// Edge classification for an incoming transaction t with read set R,
/// write set W and snapshot cid s (t observed exactly the commits with
/// cid < s), against a committed window transaction c:
///
///   forward  (t ->rw c):  cid_c >= s  and  W_c ∩ R != ∅
///       t read a version older than c's write (write-after-read from
///       t to c); ROCoCo may still serialize t before c.
///   backward (c ->rw t):  W_c ∩ W != ∅   (WAW: writes apply in commit
///       order), or R_c ∩ W != ∅ (WAR: c read the pre-t version), or
///       cid_c < s and W_c ∩ R != ∅ (RAW: t read c's update).
///
/// A snapshot older than the window start cannot be checked against
/// evicted writes and aborts with kWindowOverflow ("transactions that
/// neglect updates of t_{k-W} abort", §4.2).
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "core/sliding_window.h"

namespace rococo::core {

/// Exact validator: sliding-window ROCoCo over precise address sets.
class ExactRococoValidator
{
  public:
    /// @param window sliding-window size W
    /// @param strict_read_only when true, read-only transactions go
    ///     through full cycle validation (they can still close cycles
    ///     via RAW + anti-dependency edges when writers commit "into
    ///     the past"); when false they commit directly, reproducing the
    ///     paper's fast path (§5.3).
    explicit ExactRococoValidator(size_t window,
                                  bool strict_read_only = true);

    /// Validate a transaction. @p snapshot_cid is the number of commits
    /// the transaction observed (it saw exactly cids < snapshot_cid).
    /// On kCommit of a writer, the transaction enters the window.
    ValidationResult validate(std::span<const uint64_t> reads,
                              std::span<const uint64_t> writes,
                              uint64_t snapshot_cid);

    uint64_t next_cid() const { return validator_.next_cid(); }
    uint64_t window_start() const { return validator_.window_start(); }

    /// Build the forward/backward request without validating (exposed
    /// so the FPGA detector tests can compare classifications).
    ValidationRequest classify(std::span<const uint64_t> reads,
                               std::span<const uint64_t> writes,
                               uint64_t snapshot_cid) const;

  private:
    struct Committed
    {
        uint64_t cid;
        std::vector<uint64_t> reads;
        std::vector<uint64_t> writes;
    };

    static bool overlaps(std::span<const uint64_t> sorted_a,
                         std::span<const uint64_t> sorted_b);

    SlidingWindowValidator validator_;
    std::deque<Committed> history_; ///< window entries, oldest first
    bool strict_read_only_;
};

} // namespace rococo::core
