/// @file
/// Dynamic bit vector with the bulk boolean operations the ROCoCo data
/// path is made of (or / and / and-reduce / any / none).
///
/// Any size, heap-backed, out-of-line operations: the graph/ oracle's
/// transitive closure (via common/bitmatrix.h) uses it. The validation
/// engine does not: the FPGA's W-bit registers are modelled at register
/// width by core::SlotSet and the flat fixed-stride rows of
/// core::ReachabilityMatrix (core/reachability_matrix.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rococo {

/// A fixed-size-at-construction vector of bits packed into 64-bit words.
class BitVector
{
  public:
    BitVector() = default;

    /// Construct with @p size bits, all zero.
    explicit BitVector(size_t size)
        : size_(size), words_((size + 63) / 64, 0)
    {
    }

    size_t size() const { return size_; }

    bool
    test(size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    void
    set(size_t i, bool value = true)
    {
        const uint64_t mask = uint64_t{1} << (i & 63);
        if (value) {
            words_[i >> 6] |= mask;
        } else {
            words_[i >> 6] &= ~mask;
        }
    }

    void reset(size_t i) { set(i, false); }

    /// Set all bits to zero.
    void clear();

    /// True iff no bit is set.
    bool none() const;

    /// True iff at least one bit is set.
    bool any() const { return !none(); }

    /// Number of set bits.
    size_t count() const;

    /// this |= other. Sizes must match.
    BitVector& operator|=(const BitVector& other);

    /// this &= other. Sizes must match.
    BitVector& operator&=(const BitVector& other);

    /// True iff (this & other) has at least one set bit.
    bool intersects(const BitVector& other) const;

    /// Index of the lowest set bit, or size() if none.
    size_t find_first() const;

    /// Index of the lowest set bit strictly greater than @p i,
    /// or size() if none.
    size_t find_next(size_t i) const;

    bool operator==(const BitVector& other) const = default;

    /// "0101..." rendering, index 0 first (for tests and debugging).
    std::string to_string() const;

    /// Raw word access (word w holds bits [64w, 64w+63]).
    uint64_t word(size_t w) const { return words_[w]; }
    size_t word_count() const { return words_.size(); }

  private:
    size_t size_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace rococo
