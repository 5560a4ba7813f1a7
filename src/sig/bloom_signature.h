/// @file
/// Parallel (partitioned) bloom-filter signatures (Sanchez et al.), the
/// global metadata ROCoCoTM uses instead of per-location locks or
/// timestamps (§5.2).
///
/// A signature of m bits is split into k partitions of m/k bits; hash
/// function i sets one bit in partition i per inserted element. The type
/// supports the four operations the paper relies on: insertion,
/// membership query, set union and set intersection — all as bitwise
/// operations, which is what makes the scheme cheap on the CPU (a few
/// word operations per element) and implementable as wired logic on
/// the FPGA.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sig/hash.h"

namespace rococo::sig {

/// Geometry and hashing shared by all signatures of one TM instance.
///
/// Signatures are only comparable/intersectable when built from the same
/// config (same m, k and hash multipliers), so configs are shared by
/// const pointer.
class SignatureConfig
{
  public:
    /// @param m total signature bits (power of two, >= 64)
    /// @param k number of partitions / hash functions (divides m)
    /// @param seed hash-family seed
    SignatureConfig(unsigned m, unsigned k, uint64_t seed = 42);

    unsigned m() const { return m_; }
    unsigned k() const { return k_; }
    unsigned partition_bits() const { return m_ / k_; }
    unsigned words() const { return m_ / 64; }

    /// Global bit index (in [0, m)) element @p key sets in partition
    /// @p i.
    uint64_t
    bit_index(uint64_t key, unsigned i) const
    {
        return static_cast<uint64_t>(i) * partition_bits() +
               hasher_.hash(key, i);
    }

  private:
    unsigned m_;
    unsigned k_;
    MultiplyShiftHasher hasher_;
};

/// A parallel bloom-filter signature over 64-bit keys (addresses).
class BloomSignature
{
  public:
    explicit BloomSignature(std::shared_ptr<const SignatureConfig> config);

    const SignatureConfig& config() const { return *config_; }

    /// Insert @p key into the represented set.
    void insert(uint64_t key);

    /// May-contain query: false means definitely absent.
    bool query(uint64_t key) const;

    /// True iff no bit is set (represents the empty set).
    bool empty() const;

    /// Remove all elements.
    void clear();

    /// this := this ∪ other.
    void unite(const BloomSignature& other);

    /// this := this ∪ raw word image (same geometry). Used when folding
    /// signatures published through atomic word arrays (tm/commit_log).
    void unite_raw(const uint64_t* raw_words, size_t count);

    /// True iff the bitwise AND is non-zero anywhere, the cheap
    /// intersection test used on the hot path. Disjoint sets can test
    /// true (false set-overlap, Fig. 7 (b)); a false result is exact.
    bool intersects(const BloomSignature& other) const;

    /// Stricter intersection test: every partition of the AND must be
    /// non-empty (a real common element sets one bit in each partition).
    /// Lower false-overlap rate at slightly higher cost.
    bool intersects_all_partitions(const BloomSignature& other) const;

    /// Number of set bits (diagnostics / model validation).
    unsigned popcount() const;

    /// Raw 64-bit words, little-endian bit order.
    const std::vector<uint64_t>& words() const { return words_; }

    bool operator==(const BloomSignature& other) const
    {
        return words_ == other.words_;
    }

  private:
    std::shared_ptr<const SignatureConfig> config_;
    std::vector<uint64_t> words_;
};

} // namespace rococo::sig
