/// @file
/// Approximated universal hashing with the multiply-shift scheme
/// (Dietzfelbinger et al.), the family the paper picks because a
/// signature can be computed with a handful of AVX instructions on the
/// CPU and a DSP multiplier on the FPGA (§5.2).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace rococo::sig {

/// A family of k independent multiply-shift hash functions, each mapping
/// a 64-bit key to a bucket in [0, buckets) where buckets is a power of
/// two.
class MultiplyShiftHasher
{
  public:
    /// @param k number of hash functions
    /// @param buckets range of each function; must be a power of two
    /// @param seed seed for drawing the odd multipliers
    MultiplyShiftHasher(unsigned k, uint64_t buckets, uint64_t seed = 42);

    unsigned k() const { return static_cast<unsigned>(multipliers_.size()); }
    uint64_t buckets() const { return uint64_t{1} << log_buckets_; }

    /// Hash @p key with function @p i.
    uint64_t
    hash(uint64_t key, unsigned i) const
    {
        // Multiply-shift: the top log2(buckets) bits of an odd-multiplier
        // product are 2-universal.
        return (multipliers_[i] * key) >> (64 - log_buckets_);
    }

  private:
    std::vector<uint64_t> multipliers_;
    unsigned log_buckets_;
};

} // namespace rococo::sig
