#include "baselines/htm_tsx.h"

#include <bit>
#include <thread>

#include "common/check.h"

namespace rococo::baselines {
namespace {

thread_local unsigned tls_thread_id = ~0u;

} // namespace

struct HtmTsxSim::Descriptor
{
    explicit Descriptor(unsigned tid)
        : thread_id(tid)
    {
    }

    unsigned thread_id;
    unsigned failed_attempts = 0;
    uint64_t fallback_seq = 0; ///< fallback_seq_ at attempt start
    std::vector<size_t> read_stripes;  ///< stripes with our reader bit
    std::vector<size_t> write_stripes; ///< stripes we own as writer
    tm::RedoLog redo;
    size_t accesses = 0;
    CounterBag stats;
    obs::AbortReason last_abort = obs::AbortReason::kNone;

    void
    reset()
    {
        read_stripes.clear();
        write_stripes.clear();
        redo.clear();
        accesses = 0;
        last_abort = obs::AbortReason::kNone;
    }
};

class HtmTsxSim::TxImpl final : public tm::Tx
{
  public:
    TxImpl(HtmTsxSim& rt, Descriptor& d)
        : rt_(rt), d_(d)
    {
    }

    tm::Word
    load(const tm::TmCell& cell) override
    {
        check_doom_and_capacity();

        const size_t idx = rt_.stripe_index(&cell);
        Stripe& stripe = rt_.stripes_[idx];

        tm::Word value;
        if (!d_.redo.empty() && d_.redo.get(&cell, value)) return value;

        // Acquire shared ownership: publish the reader bit, then look
        // for a writer. Both sides are seq_cst (store() publishes the
        // writer, then scans readers), so of a racing reader and writer
        // at least one sees the other — acquire/release alone would let
        // each side's load pass its own store. A foreign writer loses
        // (requester wins, as when a load forces the writer's M-state
        // line out of its cache).
        const uint64_t my_bit = uint64_t{1} << (d_.thread_id & 63);
        if (!(stripe.readers.load(std::memory_order_relaxed) & my_bit)) {
            stripe.readers.fetch_or(my_bit, std::memory_order_seq_cst);
            d_.read_stripes.push_back(idx);
        }
        const uint32_t writer = stripe.writer.load(std::memory_order_seq_cst);
        if (writer != 0 && writer != d_.thread_id + 1) {
            rt_.doom(writer - 1);
        }
        ++d_.accesses;
        value = cell.value.load(std::memory_order_acquire);
        // A writer that doomed us before writing back this value is
        // visible now: abort rather than hand the body a torn view.
        check_doom();
        return value;
    }

    void
    store(tm::TmCell& cell, tm::Word value) override
    {
        check_doom_and_capacity();

        const size_t idx = rt_.stripe_index(&cell);
        Stripe& stripe = rt_.stripes_[idx];

        // Exclusive ownership: doom every foreign reader and writer
        // (the store invalidates their lines). Publishing the writer
        // slot before scanning readers is the other half of load()'s
        // seq_cst handshake.
        if (stripe.writer.load(std::memory_order_relaxed) !=
            d_.thread_id + 1) {
            rt_.acquire_writer(stripe, d_.thread_id);
            d_.write_stripes.push_back(idx);
        }
        const uint64_t my_bit = uint64_t{1} << (d_.thread_id & 63);
        uint64_t readers =
            stripe.readers.load(std::memory_order_seq_cst) & ~my_bit;
        while (readers != 0) {
            const unsigned victim = std::countr_zero(readers);
            rt_.doom(victim);
            readers &= readers - 1;
        }
        d_.redo.put(&cell, value);
        ++d_.accesses;
        if (d_.write_stripes.size() > rt_.config_.write_capacity) {
            capacity_abort();
        }
    }

    [[noreturn]] void
    retry() override
    {
        d_.stats.bump(tm::stat::kEagerAborts);
        d_.last_abort = obs::AbortReason::kExplicitRetry;
        throw tm::TxAbortException{};
    }

  private:
    void
    check_doom()
    {
        if (rt_.doomed(d_)) {
            d_.stats.bump(tm::stat::kConflictAborts);
            d_.last_abort = obs::AbortReason::kConflict;
            throw tm::TxAbortException{};
        }
    }

    void
    check_doom_and_capacity()
    {
        check_doom();
        if (d_.accesses > rt_.config_.read_capacity) capacity_abort();
    }

    [[noreturn]] void
    capacity_abort()
    {
        d_.stats.bump(tm::stat::kCapacityAborts);
        d_.last_abort = obs::AbortReason::kCapacity;
        throw tm::TxAbortException{};
    }

    HtmTsxSim& rt_;
    Descriptor& d_;
};

HtmTsxSim::HtmTsxSim(const HtmConfig& config)
    : config_(config), stripes_(config.stripes),
      doomed_(std::make_unique<std::atomic<uint32_t>[]>(config.max_threads)),
      descriptors_(config.max_threads)
{
    ROCOCO_CHECK(std::has_single_bit(config.stripes));
    ROCOCO_CHECK(config.max_threads <= 64);
    for (unsigned i = 0; i < config.max_threads; ++i) {
        doomed_[i].store(0, std::memory_order_relaxed);
    }
}

HtmTsxSim::~HtmTsxSim() = default;

void
HtmTsxSim::thread_init(unsigned thread_id)
{
    ROCOCO_CHECK(thread_id < config_.max_threads);
    if (!descriptors_[thread_id]) {
        descriptors_[thread_id] = std::make_unique<Descriptor>(thread_id);
    }
    tls_thread_id = thread_id;
}

void
HtmTsxSim::thread_fini()
{
    ROCOCO_CHECK(tls_thread_id != ~0u);
    Descriptor& d = *descriptors_[tls_thread_id];
    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        stats_.add(d.stats);
    }
    d.stats = CounterBag();
    tls_thread_id = ~0u;
}

HtmTsxSim::Descriptor&
HtmTsxSim::descriptor()
{
    ROCOCO_CHECK(tls_thread_id != ~0u);
    return *descriptors_[tls_thread_id];
}

void
HtmTsxSim::doom(unsigned victim)
{
    std::lock_guard<std::mutex> lock(commit_mutex_);
    doomed_[victim].store(1, std::memory_order_release);
}

void
HtmTsxSim::acquire_writer(Stripe& stripe, unsigned thread_id)
{
    const uint32_t me = thread_id + 1;
    uint32_t owner = 0;
    if (stripe.writer.compare_exchange_strong(owner, me,
                                              std::memory_order_seq_cst)) {
        return;
    }
    // Take the slot from its owner and doom it in one step with respect
    // to commits. An owner in write-back therefore keeps its slot until
    // it is done, and a reader that sees the slot dooms (and so waits
    // for) the transaction actually writing the stripe — not a thief
    // whose takeover hid the committing owner.
    std::lock_guard<std::mutex> lock(commit_mutex_);
    owner = stripe.writer.exchange(me, std::memory_order_seq_cst);
    if (owner != 0 && owner != me) {
        doomed_[owner - 1].store(1, std::memory_order_release);
    }
}

bool
HtmTsxSim::doomed(const Descriptor& d) const
{
    return doomed_[d.thread_id].load(std::memory_order_acquire) != 0 ||
           fallback_seq_.load(std::memory_order_acquire) != d.fallback_seq;
}

void
HtmTsxSim::release_footprint(Descriptor& d)
{
    const uint64_t my_bit = uint64_t{1} << (d.thread_id & 63);
    for (size_t idx : d.read_stripes) {
        stripes_[idx].readers.fetch_and(~my_bit, std::memory_order_acq_rel);
    }
    const uint32_t me = d.thread_id + 1;
    for (size_t idx : d.write_stripes) {
        uint32_t expected = me;
        stripes_[idx].writer.compare_exchange_strong(
            expected, 0, std::memory_order_acq_rel);
    }
}

bool
HtmTsxSim::speculative_attempt(const std::function<void(tm::Tx&)>& body,
                               Descriptor& d)
{
    while ((d.fallback_seq = fallback_seq_.load(std::memory_order_acquire)) &
           1) {
        std::this_thread::yield();
    }
    d.reset();
    doomed_[d.thread_id].store(0, std::memory_order_release);
    TxImpl tx(*this, d);

    bool committed = false;
    try {
        body(tx);
        // Commit decision and write-back are serialized against doom()
        // and the fallback barrier.
        std::lock_guard<std::mutex> lock(commit_mutex_);
        if (!doomed(d)) {
            d.redo.apply();
            committed = true;
        } else {
            d.stats.bump(tm::stat::kConflictAborts);
            d.last_abort = obs::AbortReason::kConflict;
        }
    } catch (const tm::TxAbortException&) {
        // Doom/capacity/user abort: counters were bumped at the throw
        // site.
    }
    release_footprint(d);
    return committed;
}

void
HtmTsxSim::fallback_execute(const std::function<void(tm::Tx&)>& body,
                            Descriptor& d)
{
    // Global-lock fallback: exclusive, non-speculative execution.
    std::lock_guard<std::mutex> serial(fallback_mutex_);
    fallback_seq_.fetch_add(1, std::memory_order_acq_rel);
    {
        // Barrier: wait out any in-flight speculative commit.
        std::lock_guard<std::mutex> barrier(commit_mutex_);
    }

    /// Direct-access Tx handle used only under the fallback lock.
    class DirectTx final : public tm::Tx
    {
      public:
        tm::Word
        load(const tm::TmCell& cell) override
        {
            return cell.value.load(std::memory_order_acquire);
        }
        void
        store(tm::TmCell& cell, tm::Word value) override
        {
            cell.value.store(value, std::memory_order_release);
        }
        [[noreturn]] void
        retry() override
        {
            throw tm::TxAbortException{};
        }
    } tx;

    try {
        body(tx);
    } catch (const tm::TxAbortException&) {
        // A retry() under the fallback lock cannot make progress by
        // waiting (we are serial); surface it as a commit of a no-op
        // retry loop by re-running the body until it succeeds.
        fallback_seq_.fetch_add(1, std::memory_order_acq_rel);
        throw;
    }
    fallback_seq_.fetch_add(1, std::memory_order_acq_rel);
    d.stats.bump(tm::stat::kFallbackCommits);
    d.stats.bump(tm::stat::kCommits);
}

bool
HtmTsxSim::try_execute(const std::function<void(tm::Tx&)>& body)
{
    Descriptor& d = descriptor();
    if (d.failed_attempts > config_.retries) {
        try {
            fallback_execute(body, d);
            d.failed_attempts = 0;
            return true;
        } catch (const tm::TxAbortException&) {
            // retry() under the fallback lock: go back to speculation so
            // other threads can change the awaited state.
            d.failed_attempts = 0;
            d.stats.bump(tm::stat::kAborts);
            return false;
        }
    }
    if (speculative_attempt(body, d)) {
        d.failed_attempts = 0;
        d.stats.bump(tm::stat::kCommits);
        return true;
    }
    ++d.failed_attempts;
    d.stats.bump(tm::stat::kAborts);
    return false;
}

CounterBag
HtmTsxSim::stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return stats_;
}

obs::AbortReason
HtmTsxSim::last_abort_reason() const
{
    if (tls_thread_id == ~0u || !descriptors_[tls_thread_id]) {
        return obs::AbortReason::kUnknown;
    }
    return descriptors_[tls_thread_id]->last_abort;
}

} // namespace rococo::baselines
