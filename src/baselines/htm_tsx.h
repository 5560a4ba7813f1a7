/// @file
/// Simulated best-effort HTM in the style of Intel TSX — the HTM
/// baseline of the paper's evaluation (§6.2).
///
/// Models the properties that shape TSX's Fig. 10 curves:
///  * eager conflict detection: accesses acquire cache-line-like
///    ownership (reader mask / writer slot per stripe); a conflicting
///    access dooms the current owner(s) — requester wins, producing the
///    chain-abort avalanche the paper observes;
///  * capacity aborts: a transaction whose footprint exceeds the
///    modelled cache capacity aborts unconditionally;
///  * best-effort + fallback: after `retries` aborted attempts, the
///    transaction takes a global lock, which quiesces and aborts all
///    speculative transactions (the standard lock-elision fallback).
///    With 4 retries the abort-rate ceiling is 5/6 ≈ 83.3%
///    (footnote 10).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "baselines/lock_table.h"
#include "common/stats.h"
#include "tm/redo_log.h"
#include "tm/tm.h"

namespace rococo::baselines {

struct HtmConfig
{
    size_t stripes = size_t{1} << 16;
    unsigned max_threads = 64;
    /// Speculative attempts before falling back to the global lock.
    unsigned retries = 4;
    /// Modelled capacity in distinct stripes (write set, ~L1) and
    /// total accesses (read set, ~L2), causing capacity aborts.
    size_t write_capacity = 512;
    size_t read_capacity = 4096;
};

class HtmTsxSim final : public tm::TmRuntime
{
  public:
    ~HtmTsxSim() override;

    explicit HtmTsxSim(const HtmConfig& config = {});

    std::string name() const override { return "HTM-TSX"; }

    void thread_init(unsigned thread_id) override;
    void thread_fini() override;

    CounterBag stats() const override;

    obs::AbortReason last_abort_reason() const override;

  protected:
    bool try_execute(const std::function<void(tm::Tx&)>& body) override;

  private:
    class TxImpl;
    struct Descriptor;

    /// Per-stripe ownership: a 64-thread reader bitmask and a writer
    /// slot (owner + 1, 0 = none).
    struct Stripe
    {
        std::atomic<uint64_t> readers{0};
        std::atomic<uint32_t> writer{0};
    };

    Descriptor& descriptor();

    bool speculative_attempt(const std::function<void(tm::Tx&)>& body,
                             Descriptor& d);
    void fallback_execute(const std::function<void(tm::Tx&)>& body,
                          Descriptor& d);
    void release_footprint(Descriptor& d);
    /// Doom @p victim's current attempt. Serialized with commit
    /// decisions: a victim that already passed its commit check has
    /// finished writing back by the time doom() returns, so the
    /// requester then reads the committed values, never a half-applied
    /// redo log.
    void doom(unsigned victim);
    /// Make @p thread_id the writer of @p stripe, dooming a foreign
    /// owner (serialized with commits, like doom()).
    void acquire_writer(Stripe& stripe, unsigned thread_id);
    /// True once @p d's attempt is doomed or a fallback transaction
    /// has started since it began.
    bool doomed(const Descriptor& d) const;

    HtmConfig config_;
    std::vector<Stripe> stripes_;
    std::unique_ptr<std::atomic<uint32_t>[]> doomed_;

    /// Serializes doom() against commit decision + write-back.
    std::mutex commit_mutex_;
    /// Fallback sequence: odd while a fallback (non-speculative)
    /// transaction runs, bumped at its start and end. A speculative
    /// attempt aborts once the sequence moves past the value it started
    /// with, even if the fallback already finished — the fallback's
    /// direct writes never doom anyone, so that is how they are seen.
    std::atomic<uint64_t> fallback_seq_{0};
    std::mutex fallback_mutex_;

    mutable std::mutex stats_mutex_;
    CounterBag stats_;
    std::vector<std::unique_ptr<Descriptor>> descriptors_;

    size_t
    stripe_index(const void* addr) const
    {
        auto x = reinterpret_cast<uintptr_t>(addr);
        x ^= x >> 33;
        x *= 0xc2b2ae3d27d4eb4fULL;
        x ^= x >> 29;
        return static_cast<size_t>(x) & (stripes_.size() - 1);
    }
};

} // namespace rococo::baselines
