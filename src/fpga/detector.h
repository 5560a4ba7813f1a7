/// @file
/// The conflict Detector of the FPGA pipeline (Fig. 5, left).
///
/// The detector keeps, for each of the last W committed transactions,
/// a pair of bloom-filter signatures (read set, write set) — the
/// bookkeeping h_0..h_{W-1} — and classifies an incoming transaction's
/// addresses against them into forward/backward dependency vectors for
/// the Manager. Addresses arrive as plain 64-bit words (the paper ships
/// addresses, not signatures, so the more precise per-address *query*
/// operation can be used, §5.3).
///
/// The history is stored *bit-sliced* (sig/sliced_history.h): per
/// signature bit position a W-bit occupancy column, so one address
/// yields its full W-bit match vector in k word ops — the comparator
/// array of the RTL, instead of a loop over W signatures. classify()
/// uses the bit-sliced kernel; classify_scalar() walks the row-major
/// shadow exactly like the original per-entry loop and serves as the
/// decision-identical oracle (tests/detector_equivalence_test.cc,
/// bench/micro_validate.cc).
///
/// Bloom false positives can only add spurious edges, i.e. make the
/// detector conservative: it may abort more than the exact classifier
/// (core/rococo_validator.h) but never misses a real dependency — a
/// property the test suite checks.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "common/small_vector.h"
#include "core/sliding_window.h"
#include "sig/sliced_history.h"

namespace rococo::fpga {

/// Inline capacity of an OffloadRequest address set: requests whose
/// sets fit (the common case — paper workloads average < 10 accesses)
/// travel the whole submit path without a heap allocation.
inline constexpr size_t kInlineAddresses = 16;

/// An offloaded validation request: what the CPU ships over the pull
/// queue (§5.3).
struct OffloadRequest
{
    SmallVector<uint64_t, kInlineAddresses> reads;
    SmallVector<uint64_t, kInlineAddresses> writes;
    /// The transaction observed exactly commits with cid < snapshot_cid
    /// (its ValidTS).
    uint64_t snapshot_cid = 0;
};

/// Sliding history of per-commit signatures plus edge classification.
class ConflictDetector
{
  public:
    /// @param window W, must match the Manager's window
    /// @param config signature geometry shared with the CPU side
    ConflictDetector(size_t window,
                     std::shared_ptr<const sig::SignatureConfig> config);

    size_t window() const { return window_; }

    /// Classify @p request against the current history into a
    /// cid-addressed ValidationRequest, oldest cid first. Convenience
    /// wrapper over classify_into() that returns fresh vectors.
    core::ValidationRequest classify(const OffloadRequest& request) const;

    /// Bit-sliced classification into @p out, reusing its capacity (the
    /// zero-allocation hot path). Uses mutable per-detector scratch:
    /// callers must serialize classification per detector, which every
    /// deployment already does (engine mutex / shard lock).
    void classify_into(const OffloadRequest& request,
                       core::ValidationRequest* out) const;

    /// Row-major reference classification — the original per-entry
    /// signature loop, kept as the oracle the bit-sliced kernel is
    /// proven decision-identical against (and as the baseline
    /// bench/micro_validate measures the speedup over).
    core::ValidationRequest classify_scalar(
        const OffloadRequest& request) const;

    /// Record the signatures of a transaction that just committed with
    /// @p cid; evicts the oldest entry when the window is full.
    void record_commit(uint64_t cid, const OffloadRequest& request);

    /// Abort forensics: which of @p request's addresses actually matched
    /// committed @p cid's signatures (reads against its write set,
    /// writes against both planes)? Fills @p out with up to @p capacity
    /// addresses and returns the count — allocation-free, abort-path
    /// only. Conservative like everything bloom-based: false positives
    /// possible, misses impossible. Returns 0 when @p cid is no longer
    /// resident.
    size_t conflicting_addresses(const OffloadRequest& request, uint64_t cid,
                                 uint64_t* out, size_t capacity) const;

    /// Oldest cid still tracked (== next expected cid when empty).
    uint64_t history_start() const;

    size_t history_size() const { return size_; }

  private:
    size_t window_;
    std::shared_ptr<const sig::SignatureConfig> config_;
    sig::SlicedSignatureHistory read_plane_;  ///< committed read sets
    sig::SlicedSignatureHistory write_plane_; ///< committed write sets
    std::vector<uint64_t> cids_; ///< per-slot cid of the resident commit
    size_t head_ = 0;            ///< slot of the oldest entry
    size_t size_ = 0;            ///< occupied slots
    /// Match accumulators (2 x mask_words) and one key's k column
    /// offsets, reused across classify calls; mutable because
    /// classification is logically const.
    mutable std::vector<uint64_t> scratch_;
};

} // namespace rococo::fpga
