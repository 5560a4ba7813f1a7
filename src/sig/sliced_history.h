/// @file
/// Bit-sliced (column-major) signature history — the software transpose
/// of the Detector's comparator array (Fig. 5, left).
///
/// The row-major view keeps one m-bit bloom signature per window slot
/// and answers "which slots may contain address a?" by querying W
/// signatures one after another: O(W * k) dependent loads. The hardware
/// does the opposite: address a is hashed once, and the k resulting
/// signature bit positions are compared against *all* W slots
/// simultaneously by wired comparators. This class is that layout in
/// software: for each of the m signature bit positions it keeps a W-bit
/// *occupancy column* (which slots have that bit set), so the W-wide
/// match vector for one address is
///
///     match(a) = AND over i in [0,k) of column[bit_index(a, i)]
///
/// — k word loads and k-1 ANDs per address for W <= 64, independent of
/// the window size, exactly the comparator tree the RTL wires up.
///
/// Both views are maintained: the row image (one signature per slot) is
/// what eviction iterates (clear only the bits the departing slot set)
/// and what the scalar oracle queries, so the bit-sliced and row-major
/// answers are provably identical bit for bit
/// (tests/detector_equivalence_test.cc).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sig/bloom_signature.h"

namespace rococo::sig {

/// One plane (read or write signatures) of the detector history, stored
/// column-major with a row-major shadow.
class SlicedSignatureHistory
{
  public:
    /// @param slots window size W (columns are ceil(W/64) words wide)
    /// @param config signature geometry shared with the CPU side
    SlicedSignatureHistory(size_t slots,
                           std::shared_ptr<const SignatureConfig> config);

    size_t slots() const { return slots_; }

    /// Words per occupancy column (== words per match accumulator).
    size_t mask_words() const { return mask_words_; }

    /// Insert @p key into slot @p slot's signature: sets the slot bit in
    /// k columns and the k signature bits in the slot's row image.
    void insert(size_t slot, uint64_t key);

    /// Evict slot @p slot: walks the slot's row image and clears the
    /// slot bit only in the columns that slot actually set — O(popcount)
    /// instead of O(m).
    void clear_slot(size_t slot);

    /// Row-major may-contain query (the scalar oracle): true iff all k
    /// signature bits for @p key are set in @p slot's row image.
    bool query(size_t slot, uint64_t key) const;

    /// The occupancy columns, column-major: word w of the column for
    /// signature bit `bit` is columns()[bit * mask_words() + w], and
    /// holds slots [64w, 64w+63]. What the detector's match phase ANDs.
    const uint64_t* columns() const { return columns_.data(); }

  private:
    std::shared_ptr<const SignatureConfig> config_;
    size_t slots_;
    size_t mask_words_;
    std::vector<uint64_t> columns_; ///< see columns()
    /// Row-major shadow: rows_[slot * config.words() + w] is word w of
    /// slot's signature — what BloomSignature::words() would hold.
    std::vector<uint64_t> rows_;
};

} // namespace rococo::sig
