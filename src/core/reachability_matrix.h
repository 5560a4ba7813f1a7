/// @file
/// The reachability matrix at the heart of the ROCoCo algorithm (§4.1).
///
/// The matrix R over W transaction slots stores the transitive closure
/// of the committed-transaction DAG: r[i][j] = 1 iff t_i can reach
/// (precedes) t_j. Validating an incoming transaction t with direct
/// forward edges f (t -> t_i) and backward edges b (t_i -> t) amounts
/// to two matrix-vector products on boolean algebra:
///
///     p = f  OR  R^T f   (everything t reaches)
///     s = b  OR  R  b    (everything that reaches t)
///
/// and t closes a cycle iff p AND s != 0. On the FPGA these are W-wide
/// wired-OR reductions finishing in one cycle; in software we keep both
/// R and its transpose up to date so neither product needs the matrix
/// transposition the paper calls out as the CPU bottleneck (§4.2).
///
/// Layout: W is at most kMaxWindow. Each matrix is one allocation of W
/// contiguous rows, row i at words [i*n, i*n + n) with n = ceil(W/64)
/// words, bit j of a row in word j/64. Every other slot vector (edge
/// vectors, p/s, occupied, reaches-evicted) is a SlotSet: kMaxWindow
/// bits inline, bits at or above W always zero. So a probe ORs n-word
/// rows into registers, and an eviction is one masked AND over the
/// evicted slot's column word in every row.
///
/// Slots are a fixed pool; the sliding-window policy (which slot holds
/// which commit) lives in core/sliding_window.h.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rococo::core {

/// The widest supported window: four 64-bit words per row.
inline constexpr size_t kMaxWindow = 256;

/// A set of window slots held in registers (kMaxWindow bits inline).
struct SlotSet
{
    static constexpr size_t kWords = kMaxWindow / 64;
    std::array<uint64_t, kWords> words{};

    bool test(size_t i) const { return (words[i >> 6] >> (i & 63)) & 1; }
    void set(size_t i) { words[i >> 6] |= uint64_t{1} << (i & 63); }
    void reset(size_t i) { words[i >> 6] &= ~(uint64_t{1} << (i & 63)); }
    bool none() const { return *this == SlotSet{}; }
    bool operator==(const SlotSet&) const = default;

    size_t
    count() const
    {
        size_t total = 0;
        for (uint64_t w : words) total += std::popcount(w);
        return total;
    }

    /// Is some bit set in both this and @p other?
    bool
    intersects(const SlotSet& other) const
    {
        uint64_t any = 0;
        for (size_t w = 0; w < kWords; ++w) any |= words[w] & other.words[w];
        return any != 0;
    }

    /// Call @p fn(slot) for every set bit, lowest first.
    template <class Fn>
    void
    for_each(Fn&& fn) const
    {
        for (size_t w = 0; w < kWords; ++w) {
            for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
                fn(w * 64 + std::countr_zero(bits));
            }
        }
    }

    /// "0101..." over the first @p width slots, slot 0 first.
    std::string
    to_string(size_t width) const
    {
        std::string out;
        for (size_t i = 0; i < width; ++i) out += test(i) ? '1' : '0';
        return out;
    }
};

/// Sentinel for ProbeResult::conflict_slot: no conflicting slot
/// identified (the probe found no cycle).
inline constexpr size_t kNoConflictSlot = ~size_t{0};

/// Result of probing the matrix with an incoming transaction's direct
/// dependency vectors.
struct ProbeResult
{
    bool cyclic = false;
    SlotSet proceeding; ///< p: slots the transaction precedes
    SlotSet succeeding; ///< s: slots that precede the transaction
    /// When cyclic: one slot witnessing the cycle — the first slot that
    /// the transaction both precedes and succeeds (p AND s), or, for
    /// eviction cycles, the first slot in p that reaches an evicted
    /// transaction. kNoConflictSlot otherwise.
    size_t conflict_slot = kNoConflictSlot;
};

/// Transitive-closure matrix over a fixed number of slots, maintained
/// incrementally as transactions commit and are evicted.
class ReachabilityMatrix
{
  public:
    /// @p window must be in [1, kMaxWindow].
    explicit ReachabilityMatrix(size_t window);

    size_t window() const { return window_; }

    /// Occupied slots (those currently holding a committed transaction).
    const SlotSet& occupied() const { return occupied_; }

    /// Does t_i reach t_j? Both slots must be occupied. Reflexive:
    /// reaches(i, i) is true for occupied i.
    bool reaches(size_t i, size_t j) const;

    /// Compute p/s for a transaction with direct forward edges @p f and
    /// backward edges @p b (bits may only be set for occupied slots) and
    /// detect cycles. Does not modify the matrix.
    ProbeResult probe(const SlotSet& f, const SlotSet& b) const;

    /// Commit the probed transaction into @p slot (must be free):
    /// updates all closure entries (r[i][j] |= s[i] & p[j]) and installs
    /// p/s as the new slot's row/column. The probe may name @p slot
    /// itself if its occupant was evicted after the probe: a p bit there
    /// means the transaction preceded the evictee, so it reaches an
    /// evicted transaction (reaches_evicted()).
    void insert(size_t slot, const ProbeResult& probe);

    /// Evict the transaction in @p slot. Remaining slots that could
    /// reach the evicted transaction are accumulated into
    /// reaches_evicted(): a future transaction that reaches any of them
    /// would transitively precede an evicted (hence
    /// serialized-before-everything-future) transaction, closing an
    /// invisible cycle, and must abort. This sticky vector is the
    /// soundness companion of the paper's "transactions that neglect
    /// updates of t_{k-W} abort" rule.
    void clear_slot(size_t slot);

    /// Slots whose transaction precedes some already-evicted
    /// transaction (see clear_slot()).
    const SlotSet& reaches_evicted() const { return reaches_evicted_; }

    /// Expensive internal consistency check (transpose coherence,
    /// transitivity, no bits outside occupied slots); used by tests.
    bool check_invariants() const;

    /// Multi-line human-readable dump of the matrix state (occupied
    /// slots, closure rows, reaches-evicted flags) for debugging and
    /// teaching material.
    std::string debug_dump() const;

  private:
    /// Row @p i of @p rows (reach_ or reached_) as a SlotSet.
    SlotSet row(const std::vector<uint64_t>& rows, size_t i) const;

    size_t window_;
    size_t words_; ///< words per row: ceil(window_ / 64)
    std::vector<uint64_t> reach_;   ///< row i = {j : t_i |> t_j}
    std::vector<uint64_t> reached_; ///< row j = {i : t_i |> t_j}
    SlotSet occupied_;
    SlotSet reaches_evicted_;
};

} // namespace rococo::core
