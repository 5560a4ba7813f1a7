#include "core/reachability_matrix.h"

#include <algorithm>

#include "common/check.h"

namespace rococo::core {

ReachabilityMatrix::ReachabilityMatrix(size_t window)
    : window_(window), words_((window + 63) / 64),
      reach_(window * words_), reached_(window * words_)
{
    ROCOCO_CHECK(window > 0 && window <= kMaxWindow &&
                 "the window must be 1 to kMaxWindow (256) slots");
}

bool
ReachabilityMatrix::reaches(size_t i, size_t j) const
{
    ROCOCO_DCHECK(occupied_.test(i) && occupied_.test(j));
    return (reach_[i * words_ + (j >> 6)] >> (j & 63)) & 1;
}

ProbeResult
ReachabilityMatrix::probe(const SlotSet& f, const SlotSet& b) const
{
    // p = f | R^T f : union the reach-rows of every direct successor;
    // s = b | R b : union the reached-from rows of every direct
    // predecessor.
    const size_t n = words_;
    SlotSet p = f, s = b;
    f.for_each([&](size_t j) {
        ROCOCO_DCHECK(occupied_.test(j));
        for (size_t w = 0; w < n; ++w) p.words[w] |= reach_[j * n + w];
    });
    b.for_each([&](size_t j) {
        ROCOCO_DCHECK(occupied_.test(j));
        for (size_t w = 0; w < n; ++w) s.words[w] |= reached_[j * n + w];
    });
    ProbeResult out{false, p, s, kNoConflictSlot};

    // A cycle exists iff some committed transaction both precedes and is
    // preceded by the incoming one. Reaching a slot that precedes an
    // already-evicted transaction is also a cycle: evicted transactions
    // are serialized before everything that validates from now on. The
    // lowest such slot names a witness for abort provenance.
    for (size_t w = 0; w < n; ++w) {
        const uint64_t hit =
            p.words[w] & (s.words[w] | reaches_evicted_.words[w]);
        if (hit != 0) {
            out.cyclic = true;
            out.conflict_slot = w * 64 + std::countr_zero(hit);
            break;
        }
    }
    return out;
}

void
ReachabilityMatrix::insert(size_t slot, const ProbeResult& probe)
{
    ROCOCO_CHECK(!occupied_.test(slot));
    ROCOCO_CHECK(!probe.cyclic);
    // With the new vertex in both sets (reflexive), one pass does it
    // all: r[i][j] |= s[i] & p[j] for the closure through the vertex,
    // and, since a free slot's row and column are zero, the vertex's
    // own row p and column s.
    SlotSet p = probe.proceeding;
    SlotSet s = probe.succeeding;
    p.set(slot);
    s.set(slot);
    const size_t n = words_;
    s.for_each([&](size_t i) {
        for (size_t w = 0; w < n; ++w) reach_[i * n + w] |= p.words[w];
    });
    p.for_each([&](size_t j) {
        for (size_t w = 0; w < n; ++w) reached_[j * n + w] |= s.words[w];
    });
    occupied_.set(slot);

    // Evictions between this transaction's probe and its insert (its
    // own commit evicting the oldest window entry) may have grown
    // reaches_evicted_, or evicted a transaction it precedes; either
    // way it now reaches an evicted transaction.
    if (probe.proceeding.intersects(reaches_evicted_) ||
        probe.proceeding.test(slot)) {
        reaches_evicted_.set(slot);
    }
}

void
ReachabilityMatrix::clear_slot(size_t slot)
{
    ROCOCO_CHECK(occupied_.test(slot));
    occupied_.reset(slot);
    reaches_evicted_.reset(slot);

    // Whoever still precedes the transaction being evicted now
    // precedes an evicted one.
    const size_t n = words_;
    for (size_t w = 0; w < n; ++w) {
        reaches_evicted_.words[w] |=
            reached_[slot * n + w] & occupied_.words[w];
    }

    // Zero the slot's row and column, then its bit in every other row
    // of both matrices: one masked AND per row.
    std::fill_n(&reach_[slot * n], n, 0);
    std::fill_n(&reached_[slot * n], n, 0);
    const uint64_t keep = ~(uint64_t{1} << (slot & 63));
    for (size_t at = slot >> 6; at < reach_.size(); at += n) {
        reach_[at] &= keep;
        reached_[at] &= keep;
    }
}

SlotSet
ReachabilityMatrix::row(const std::vector<uint64_t>& rows, size_t i) const
{
    SlotSet out;
    std::copy_n(&rows[i * words_], words_, out.words.begin());
    return out;
}

std::string
ReachabilityMatrix::debug_dump() const
{
    std::string out = "reachability matrix (W=" +
                      std::to_string(window_) + ")\n";
    out += "occupied:        " + occupied_.to_string(window_) + "\n";
    out += "reaches_evicted: " + reaches_evicted_.to_string(window_) + "\n";
    occupied_.for_each([&](size_t i) {
        out += "  slot " + std::to_string(i) + " reaches " +
               row(reach_, i).to_string(window_) + "\n";
    });
    return out;
}

bool
ReachabilityMatrix::check_invariants() const
{
    bool ok = true;
    auto subset = [&](const SlotSet& a, const SlotSet& b) {
        for (size_t w = 0; w < SlotSet::kWords; ++w) {
            ok = ok && (a.words[w] & ~b.words[w]) == 0;
        }
    };
    SlotSet in_window;
    for (size_t i = 0; i < window_; ++i) in_window.set(i);
    subset(occupied_, in_window);
    subset(reaches_evicted_, occupied_);
    for (size_t i = 0; i < window_ && ok; ++i) {
        // An occupied slot's row and column are reflexive and hold
        // occupied slots only; a free slot's are zero.
        const bool live = occupied_.test(i);
        const SlotSet reach = row(reach_, i), reached = row(reached_, i);
        ok = reach.test(i) == live && reached.test(i) == live;
        subset(reach, live ? occupied_ : SlotSet{});
        subset(reached, live ? occupied_ : SlotSet{});
        // The transpose mirrors every entry, and i |> j, j |> k implies
        // i |> k: row j is a subset of row i.
        reach.for_each([&](size_t j) {
            ok = ok && row(reached_, j).test(i);
            subset(row(reach_, j), reach);
        });
        reached.for_each(
            [&](size_t j) { ok = ok && row(reach_, j).test(i); });
    }
    return ok;
}

} // namespace rococo::core
