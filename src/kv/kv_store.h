/// @file
/// The OCC transactional key-value store: string keys over
/// tm::RococoTm (docs/KV.md).
///
/// Layout: the hashed key space (key_mapper.h) addresses a slot table
/// where each slot is a pair of transactional cells — metadata (the
/// owning key's fingerprint, or empty/tombstone) and the 64-bit
/// value. Every operation is one runtime transaction: probes read
/// slot metadata transactionally, so concurrent inserts racing for
/// one free slot conflict on its metadata cell and OCC validation
/// serializes them; no store-level locking exists at all.
///
/// Read-only operations (get, scan) ride RococoTm's CPU-side
/// read-only commit path — no validation offload, no commit-log slot.
/// Updates ship at most 2·kMaxTxnKeys addresses (meta + value per
/// key), which fits the offload request's inline capacity, keeping
/// the whole op path allocation-free in steady state
/// (tests/hotpath_alloc_test.cc pins this down).
#pragma once

#include <cstdint>
#include <vector>

#include "kv/kv.h"
#include "kv/kv_metrics.h"
#include "kv/key_mapper.h"
#include "tm/rococo_tm.h"

namespace rococo::kv {

struct KvStoreConfig
{
    /// Slot count (rounded up to a power of two ≥ 64). Size well above
    /// the live key count: load factors past ~0.7 make the bounded
    /// probe window fill up (kNoSpace) and inflate kv.key_collisions.
    size_t capacity = size_t{1} << 16;
    /// The underlying runtime's configuration — validation shards,
    /// validation service socket, deadline, all pass through
    /// (docs/SERVICE.md, docs/SHARDING.md).
    tm::RococoTmConfig tm;
};

class KvStore final : public KvInterface
{
  public:
    explicit KvStore(const KvStoreConfig& config = {});

    std::string name() const override { return "kv/occ"; }

    void thread_init(unsigned thread_id) override
    {
        runtime_.thread_init(thread_id);
    }
    void thread_fini() override { runtime_.thread_fini(); }

    KvStatus get(std::string_view key, uint64_t& value_out) override;
    KvStatus put(std::string_view key, uint64_t value) override;
    KvStatus erase(std::string_view key) override;
    KvStatus scan(std::span<const std::string_view> keys,
                  std::span<RmwEntry> out) override;
    KvStatus rmw(std::span<const std::string_view> keys,
                 RmwFn fn) override;

    const obs::Registry& metrics() const override { return metrics_; }

    tm::RococoTm& runtime() { return runtime_; }
    const KeyMapper& mapper() const { return mapper_; }

    /// The slot @p key currently occupies, or KeyMapper::kNpos.
    /// Non-transactional — for quiescent forensics (--key-map-out)
    /// only.
    size_t resolve_slot(std::string_view key) const;

  private:
    struct Slot
    {
        tm::TmCell meta;
        tm::TmCell value;
    };

    /// Probe outcome: `slot` is the key's slot (kNpos if absent),
    /// `insert` the first reusable slot of the sequence (kNpos if the
    /// window is full). All inspected metadata was read through @p tx.
    struct Probe
    {
        size_t slot = KeyMapper::kNpos;
        size_t insert = KeyMapper::kNpos;
    };
    Probe probe(tm::Tx& tx, const KeyMapper::Ref& ref,
                uint64_t& collisions) const;

    KeyMapper mapper_;
    std::vector<Slot> slots_;
    tm::RococoTm runtime_;
    obs::Registry metrics_;
    HotMetrics hot_;
};

} // namespace rococo::kv
