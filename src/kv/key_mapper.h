/// @file
/// Stable hashed key→address mapping of the KV layer (docs/KV.md).
///
/// String keys hash to a 64-bit fingerprint plus a home slot in a
/// power-of-two slot table; lookups probe linearly from the home slot
/// for at most kMaxProbe steps. The mapping is *stable*: it depends
/// only on the key bytes and the table capacity, never on insertion
/// history — so the same key maps to the same probe sequence in the
/// OCC store, the 2PL baseline and the service-mode YCSB clients, and
/// the wire addresses below let conflict forensics (svcctl stats --top,
/// scripts/resolve_topk.py) be joined back to string keys.
///
/// Collision accounting: every probe step that lands on a slot owned
/// by a *different* key is one open-addressing collision — observable
/// as the kv.key_collisions counter, so false conflicts introduced by
/// the hashed address space are measurable rather than silent.
/// Distinct keys with equal 64-bit fingerprints are not
/// distinguished; at benchmark key-space sizes (≤ 2^32 keys) the
/// collision odds are below 2^-32 per pair, an accepted limit
/// documented in docs/KV.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rococo::kv {

class KeyMapper
{
  public:
    /// Probe window: a lookup inspects at most this many slots. Bounds
    /// both the transactional read set of a point operation and the
    /// stripe span the 2PL baseline must lock.
    static constexpr size_t kMaxProbe = 32;

    static constexpr size_t kNpos = ~size_t{0};

    /// @param capacity slot count; rounded up to a power of two ≥ 64.
    explicit KeyMapper(size_t capacity);

    size_t capacity() const { return mask_ + 1; }

    struct Ref
    {
        uint64_t fingerprint; ///< ≥ kMinFingerprint, stable per key
        size_t home;          ///< first slot of the probe sequence
    };

    Ref map(std::string_view key) const;

    /// @p step'th slot of @p home's probe sequence (wraps around).
    size_t
    slot_at(size_t home, size_t step) const
    {
        return (home + step) & mask_;
    }

    /// Slot-derived wire addresses: the deterministic 64-bit addresses
    /// service-mode validation requests carry for a slot's metadata
    /// and value cells. These — not process-local cell pointers — are
    /// what --key-map-out dumps and resolve_topk.py joins against.
    static uint64_t meta_addr(size_t slot) { return uint64_t(slot) * 2; }
    static uint64_t value_addr(size_t slot)
    {
        return uint64_t(slot) * 2 + 1;
    }

    /// Slot metadata encoding shared by both stores: 0 = never used,
    /// 1 = tombstone, anything else = the owning key's fingerprint.
    static constexpr uint64_t kEmpty = 0;
    static constexpr uint64_t kTombstone = 1;
    static constexpr uint64_t kMinFingerprint = 2;

  private:
    size_t mask_;
};

} // namespace rococo::kv
