/// Property and unit tests for the ROCoCo core: reachability matrix,
/// sliding-window validator and the exact (set-based) validator.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "core/reachability_matrix.h"
#include "core/rococo_validator.h"
#include "core/sliding_window.h"
#include "graph/cycle.h"
#include "graph/dependency_graph.h"
#include "graph/transitive_closure.h"

namespace rococo::core {
namespace {

using graph::DependencyGraph;

/// Window widths the oracle fuzzes run at: one-, two- and four-word
/// rows, full and partial tail words, up to kMaxWindow.
constexpr size_t kWidths[] = {2, 8, 10, 63, 64, 65, 128, 200, 256};

/// Oracle mirroring a validator run: the full ->rw graph over ALL
/// committed transactions (evicted ones included).
class GraphOracle
{
  public:
    /// Would committing a transaction with these direct edges create a
    /// cycle among committed transactions?
    bool
    would_cycle(const std::vector<uint64_t>& forward,
                const std::vector<uint64_t>& backward) const
    {
        DependencyGraph g = graph_;
        const size_t v = g.add_vertex();
        for (uint64_t c : forward) g.add_edge(v, c);
        for (uint64_t c : backward) g.add_edge(c, v);
        return graph::has_cycle(g);
    }

    /// Record the commit (cid must equal the number of prior commits).
    void
    commit(uint64_t cid, const std::vector<uint64_t>& forward,
           const std::vector<uint64_t>& backward)
    {
        const size_t v = graph_.add_vertex();
        EXPECT_EQ(v, cid);
        for (uint64_t c : forward) graph_.add_edge(v, c);
        for (uint64_t c : backward) graph_.add_edge(c, v);
    }

    const DependencyGraph& graph() const { return graph_; }

  private:
    DependencyGraph graph_;
};

TEST(ReachabilityMatrix, EmptyProbeNeverCyclic)
{
    ReachabilityMatrix m(8);
    const ProbeResult probe = m.probe(SlotSet{}, SlotSet{});
    EXPECT_FALSE(probe.cyclic);
    EXPECT_TRUE(probe.proceeding.none());
    EXPECT_TRUE(probe.succeeding.none());
}

TEST(ReachabilityMatrix, ChainReachability)
{
    // Commit t0, then t1 with b-edge to t0 (t0 -> t1), then t2 with
    // b-edge to t1: t0 must reach t2 transitively.
    ReachabilityMatrix m(8);
    m.insert(0, m.probe(SlotSet{}, SlotSet{}));

    SlotSet b1;
    b1.set(0);
    m.insert(1, m.probe(SlotSet{}, b1));
    EXPECT_TRUE(m.reaches(0, 1));

    SlotSet b2;
    b2.set(1);
    m.insert(2, m.probe(SlotSet{}, b2));
    EXPECT_TRUE(m.reaches(1, 2));
    EXPECT_TRUE(m.reaches(0, 2)) << "transitive closure missing";
    EXPECT_FALSE(m.reaches(2, 0));
    EXPECT_TRUE(m.check_invariants());
}

TEST(ReachabilityMatrix, DirectTwoCycleDetected)
{
    ReachabilityMatrix m(4);
    m.insert(0, m.probe(SlotSet{}, SlotSet{}));
    SlotSet f, b;
    f.set(0);
    b.set(0);
    EXPECT_TRUE(m.probe(f, b).cyclic);
}

TEST(ReachabilityMatrix, CommitIntoThePast)
{
    // t0 commits; t1 commits with a forward edge to t0 (t1 precedes t0
    // in serial order even though it commits later) — the phantom
    // ordering TOCC forbids and ROCoCo allows.
    ReachabilityMatrix m(4);
    m.insert(0, m.probe(SlotSet{}, SlotSet{}));
    SlotSet f;
    f.set(0);
    const ProbeResult probe = m.probe(f, SlotSet{});
    EXPECT_FALSE(probe.cyclic);
    m.insert(1, probe);
    EXPECT_TRUE(m.reaches(1, 0));
    EXPECT_FALSE(m.reaches(0, 1));
    EXPECT_TRUE(m.check_invariants());
}

TEST(ReachabilityMatrix, IndirectCycleThroughClosure)
{
    // t1 |> t0 (committed into the past). A new transaction with
    // b-edge from t1 and f-edge to... t0 -> new -> t0? Build:
    // new has f-edge to t1 and b-edge from t0: new |> t1 |> t0 |> new?
    // t0 |> new requires b-edge from t0. Cycle: new -> t1 -> t0 -> new.
    ReachabilityMatrix m(4);
    m.insert(0, m.probe(SlotSet{}, SlotSet{}));
    SlotSet f1;
    f1.set(0);
    m.insert(1, m.probe(f1, SlotSet{})); // t1 |> t0

    SlotSet f, b;
    f.set(1); // new |> t1 (and transitively |> t0)
    b.set(0); // t0 |> new
    EXPECT_TRUE(m.probe(f, b).cyclic);
}

TEST(ReachabilityMatrix, EvictionKeepsClosureAmongSurvivors)
{
    // 0 -> 1 -> 2; evicting 1 must keep 0 |> 2.
    ReachabilityMatrix m(8);
    m.insert(0, m.probe(SlotSet{}, SlotSet{}));
    SlotSet b1;
    b1.set(0);
    m.insert(1, m.probe(SlotSet{}, b1));
    SlotSet b2;
    b2.set(1);
    m.insert(2, m.probe(SlotSet{}, b2));

    m.clear_slot(1);
    EXPECT_TRUE(m.reaches(0, 2));
    EXPECT_FALSE(m.occupied().test(1));
    EXPECT_TRUE(m.check_invariants());
}

TEST(ReachabilityMatrix, ReachesEvictedBlocksInvisibleCycle)
{
    // t1 |> t0 ("into the past"); evict t0. A future transaction that
    // reaches t1 would transitively precede the evicted t0, closing a
    // cycle with the invariant "evicted precedes all future commits" —
    // the probe must treat it as cyclic.
    ReachabilityMatrix m(4);
    m.insert(0, m.probe(SlotSet{}, SlotSet{}));
    SlotSet f1;
    f1.set(0);
    m.insert(1, m.probe(f1, SlotSet{})); // t1 |> t0
    m.clear_slot(0);
    EXPECT_TRUE(m.reaches_evicted().test(1));

    SlotSet f;
    f.set(1); // new |> t1 |> (evicted t0)
    EXPECT_TRUE(m.probe(f, SlotSet{}).cyclic);
}

TEST(ReachabilityMatrix, ReachesEvictedIsSticky)
{
    // t1 precedes both t0 and t2. Evicting t0 flags t1; evicting t2,
    // which t1 also precedes, must leave the flag set.
    ReachabilityMatrix m(4);
    m.insert(0, m.probe(SlotSet{}, SlotSet{}));
    m.insert(2, m.probe(SlotSet{}, SlotSet{}));
    SlotSet f1;
    f1.set(0);
    f1.set(2);
    m.insert(1, m.probe(f1, SlotSet{})); // t1 |> t0, t1 |> t2
    m.clear_slot(0);
    ASSERT_TRUE(m.reaches_evicted().test(1));
    m.clear_slot(2);
    EXPECT_TRUE(m.reaches_evicted().test(1));
    EXPECT_TRUE(m.check_invariants());

    SlotSet f;
    f.set(1); // new |> t1 |> (evicted t0, t2)
    EXPECT_TRUE(m.probe(f, SlotSet{}).cyclic);
}

TEST(SlidingWindowValidator, CommitPrecedingItsEvicteeReachesEvicted)
{
    // W=2: t (cid 2) commits into the past, before cid 0, and its own
    // commit evicts cid 0. t now precedes an evicted transaction, so a
    // later transaction that precedes t must abort.
    SlidingWindowValidator v(2);
    ASSERT_EQ(v.validate_and_commit({}).verdict, Verdict::kCommit);
    ASSERT_EQ(v.validate_and_commit({}).verdict, Verdict::kCommit);
    ValidationRequest t;
    t.forward = {0};
    const ValidationResult committed = v.validate_and_commit(t);
    ASSERT_EQ(committed.verdict, Verdict::kCommit);
    EXPECT_EQ(v.window_start(), 1u);
    EXPECT_TRUE(v.matrix().reaches_evicted().test(committed.cid % 2));
    EXPECT_TRUE(v.matrix().check_invariants());

    ValidationRequest u;
    u.forward = {committed.cid};
    EXPECT_EQ(v.validate_and_commit(u).verdict, Verdict::kAbortCycle);
}

TEST(SlidingWindowValidator, AssignsSequentialCids)
{
    SlidingWindowValidator v(16);
    for (uint64_t i = 0; i < 5; ++i) {
        const auto r = v.validate_and_commit({});
        EXPECT_EQ(r.verdict, Verdict::kCommit);
        EXPECT_EQ(r.cid, i);
    }
    EXPECT_EQ(v.occupancy(), 5u);
    EXPECT_EQ(v.window_start(), 0u);
}

TEST(SlidingWindowValidator, WindowOverflowAbortsStaleDependency)
{
    SlidingWindowValidator v(4);
    for (int i = 0; i < 6; ++i) {
        ASSERT_EQ(v.validate_and_commit({}).verdict, Verdict::kCommit);
    }
    // cids 0 and 1 are evicted (window holds 2..5).
    EXPECT_EQ(v.window_start(), 2u);
    ValidationRequest stale;
    stale.backward = {1};
    EXPECT_EQ(v.validate_and_commit(stale).verdict,
              Verdict::kWindowOverflow);
    ValidationRequest fresh;
    fresh.backward = {2};
    EXPECT_EQ(v.validate_and_commit(fresh).verdict, Verdict::kCommit);
}

TEST(SlidingWindowValidator, AttributesTheConflictingCommit)
{
    SlidingWindowValidator v(8);
    for (uint64_t i = 0; i < 3; ++i) {
        const auto r = v.validate_and_commit({});
        ASSERT_EQ(r.verdict, Verdict::kCommit);
        // Commits never name a conflict.
        EXPECT_EQ(r.conflict_cid, kNoConflictCid);
    }
    // t both precedes and follows cid 1: a direct cycle whose witness
    // is exactly that commit.
    ValidationRequest cyc;
    cyc.forward = {1};
    cyc.backward = {1};
    const ValidationResult r = v.validate_and_commit(cyc);
    ASSERT_EQ(r.verdict, Verdict::kAbortCycle);
    EXPECT_EQ(r.conflict_cid, 1u);
    // The abort committed nothing; the window is unchanged.
    EXPECT_EQ(v.next_cid(), 3u);
}

TEST(SlidingWindowValidator, AttributesTransitiveCycles)
{
    // Chain 0 -> 1 -> 2 inside the window, then close the loop
    // transitively: t -> 0 and 2 -> t. The witness must be one of the
    // commits on the cycle (the exact pick is the probe's first hit).
    SlidingWindowValidator v(8);
    ASSERT_EQ(v.validate_and_commit({}).verdict, Verdict::kCommit);
    ValidationRequest after0;
    after0.backward = {0};
    ASSERT_EQ(v.validate_and_commit(after0).verdict, Verdict::kCommit);
    ValidationRequest after1;
    after1.backward = {1};
    ASSERT_EQ(v.validate_and_commit(after1).verdict, Verdict::kCommit);

    ValidationRequest loop;
    loop.forward = {0};
    loop.backward = {2};
    const ValidationResult r = v.validate_and_commit(loop);
    ASSERT_EQ(r.verdict, Verdict::kAbortCycle);
    EXPECT_NE(r.conflict_cid, kNoConflictCid);
    EXPECT_LT(r.conflict_cid, 3u);
}

TEST(SlidingWindowValidator, OverflowLeavesTheConflictSentinel)
{
    SlidingWindowValidator v(4);
    for (int i = 0; i < 6; ++i) {
        ASSERT_EQ(v.validate_and_commit({}).verdict, Verdict::kCommit);
    }
    ValidationRequest stale;
    stale.backward = {1}; // evicted
    const ValidationResult r = v.validate_and_commit(stale);
    ASSERT_EQ(r.verdict, Verdict::kWindowOverflow);
    // Overflow cannot name the evicted commit it depends on — the
    // window no longer knows it; provenance stays unattributed.
    EXPECT_EQ(r.conflict_cid, kNoConflictCid);
}

TEST(SlidingWindowValidator, ValidateOnlyDoesNotCommit)
{
    SlidingWindowValidator v(8);
    EXPECT_EQ(v.validate_only({}), Verdict::kCommit);
    EXPECT_EQ(v.next_cid(), 0u);
}

TEST(SlidingWindowValidator, MatchesOracleWithoutEviction)
{
    // Strict equivalence while nothing is evicted: verdicts must equal
    // the full-graph cycle oracle. Each width fills 15/16 of its window
    // (60 of 64 at W=64) with about five expected edges of each kind
    // per request in a full window.
    for (const size_t window : kWidths) {
        SCOPED_TRACE("W=" + std::to_string(window));
        Xoshiro256 rng(33);
        const double edge = std::min(0.5, 5.12 / double(window));
        const int rounds = window > 64 ? 5 : 20;
        for (int round = 0; round < rounds; ++round) {
            SlidingWindowValidator v(window);
            GraphOracle oracle;
            int committed = 0;
            for (size_t t = 0; t < window - window / 16; ++t) {
                ValidationRequest req;
                for (uint64_t c = v.window_start(); c < v.next_cid(); ++c) {
                    if (rng.chance(edge)) req.forward.push_back(c);
                    if (rng.chance(edge)) req.backward.push_back(c);
                }
                const bool oracle_cyclic =
                    oracle.would_cycle(req.forward, req.backward);
                const auto result = v.validate_and_commit(req);
                ASSERT_TRUE(v.matrix().check_invariants());
                ASSERT_NE(result.verdict, Verdict::kWindowOverflow);
                EXPECT_EQ(result.verdict == Verdict::kAbortCycle,
                          oracle_cyclic)
                    << "round " << round << " txn " << t;
                if (result.verdict == Verdict::kCommit) {
                    oracle.commit(result.cid, req.forward, req.backward);
                    ++committed;
                }
            }
            EXPECT_GT(committed, 0);
        }
    }
}

TEST(SlidingWindowValidator, SoundUnderEviction)
{
    // With a small window the validator may abort more than the oracle
    // (overflow, reaches-evicted) but must never commit a transaction
    // the full-history oracle says is cyclic, and the final committed
    // graph must be acyclic. Every width runs at least three windows'
    // worth of requests (W=8 is the original shape: 120 requests, edge
    // chance 0.1).
    for (const size_t window : kWidths) {
        SCOPED_TRACE("W=" + std::to_string(window));
        Xoshiro256 rng(77);
        const double edge = std::min(0.5, 0.8 / double(window));
        const int rounds = window > 64 ? 5 : 15;
        for (int round = 0; round < rounds; ++round) {
            SlidingWindowValidator v(window);
            GraphOracle oracle;
            for (size_t t = 0; t < std::max<size_t>(120, 3 * window); ++t) {
                ValidationRequest req;
                for (uint64_t c = v.window_start(); c < v.next_cid(); ++c) {
                    if (rng.chance(edge)) req.forward.push_back(c);
                    if (rng.chance(edge)) req.backward.push_back(c);
                }
                const bool oracle_cyclic =
                    oracle.would_cycle(req.forward, req.backward);
                const auto result = v.validate_and_commit(req);
                ASSERT_TRUE(v.matrix().check_invariants());
                if (result.verdict == Verdict::kCommit) {
                    EXPECT_FALSE(oracle_cyclic)
                        << "committed a cyclic transaction, round " << round
                        << " txn " << t;
                    oracle.commit(result.cid, req.forward, req.backward);
                }
            }
            EXPECT_FALSE(graph::has_cycle(oracle.graph()));
        }
    }
}

TEST(ExactValidator, SimpleCommitAndRaw)
{
    ExactRococoValidator v(16);
    const std::vector<uint64_t> w1 = {10, 11};
    EXPECT_EQ(v.validate({}, w1, 0).verdict, Verdict::kCommit);

    // Reader of 10 with a snapshot including cid 0: RAW backward edge,
    // commits.
    const std::vector<uint64_t> r2 = {10};
    const std::vector<uint64_t> w2 = {12};
    EXPECT_EQ(v.validate(r2, w2, 1).verdict, Verdict::kCommit);
}

TEST(ExactValidator, PhantomOrderingCommitsIntoThePast)
{
    // Fig. 2 (a): t2 updates x, then t1 — which read the OLD x (its
    // snapshot predates t2) — validates. TOCC aborts t1; ROCoCo
    // serializes t1 before t2 and commits.
    ExactRococoValidator v(16);
    const std::vector<uint64_t> x = {1};
    const std::vector<uint64_t> y = {2};
    EXPECT_EQ(v.validate({}, x, 0).verdict, Verdict::kCommit); // t2: W(x)

    // t1: R(x) old version (snapshot 0), W(y).
    EXPECT_EQ(v.validate(x, y, 0).verdict, Verdict::kCommit);
}

TEST(ExactValidator, LostUpdateAborts)
{
    // t read x before t2's write and also writes x: forward edge
    // (read old x) + backward WAW edge to the same commit = 2-cycle.
    ExactRococoValidator v(16);
    const std::vector<uint64_t> x = {1};
    EXPECT_EQ(v.validate({}, x, 0).verdict, Verdict::kCommit); // t2: W(x)
    EXPECT_EQ(v.validate(x, x, 0).verdict, Verdict::kAbortCycle);
}

TEST(ExactValidator, WindowOverflowOnAncientSnapshot)
{
    ExactRococoValidator v(4);
    const std::vector<uint64_t> w = {5};
    for (int i = 0; i < 6; ++i) {
        ASSERT_EQ(v.validate({}, w, v.next_cid()).verdict,
                  Verdict::kCommit);
    }
    const std::vector<uint64_t> r = {5};
    EXPECT_EQ(v.validate(r, {}, 0).verdict, Verdict::kWindowOverflow);
}

TEST(ExactValidator, ReadOnlyFastPathSkipsValidation)
{
    ExactRococoValidator strict(8, /*strict_read_only=*/true);
    ExactRococoValidator fast(8, /*strict_read_only=*/false);
    const std::vector<uint64_t> r = {7};
    EXPECT_EQ(fast.validate(r, {}, 0).verdict, Verdict::kCommit);
    EXPECT_EQ(fast.next_cid(), 0u); // no cid consumed
    EXPECT_EQ(strict.validate(r, {}, 0).verdict, Verdict::kCommit);
    EXPECT_EQ(strict.next_cid(), 1u); // enters the window
}

TEST(ExactValidator, StrictReadOnlyCatchesReadOnlyCycle)
{
    // Writer commits into the past around a read-only transaction:
    //   t_a writes x (cid 0).
    //   r reads x (sees cid 0) and reads y (old) — snapshot 1.
    //   t_b writes y with a snapshot predating r's y-read... t_b reads
    //   nothing, writes y with snapshot 0: WAR edge r -> t_b and also
    //   t_b must precede ... craft: r: R{x,y} snapshot 1 (saw t_a).
    //   t_b: R{x} old (snapshot 0 — before t_a), W{y}.
    // Serial constraints: t_a -> r (RAW x), r -> t_b (WAR y),
    // t_b -> t_a (read old x, forward edge). Cycle through r.
    ExactRococoValidator strict(16, /*strict_read_only=*/true);
    const std::vector<uint64_t> x = {1}, y = {2};
    std::vector<uint64_t> xy = {1, 2};

    ASSERT_EQ(strict.validate({}, x, 0).verdict, Verdict::kCommit); // t_a
    ASSERT_EQ(strict.validate(xy, {}, 1).verdict, Verdict::kCommit); // r
    // t_b: reads old x (snapshot 0), writes y.
    EXPECT_EQ(strict.validate(x, y, 0).verdict, Verdict::kAbortCycle);

    // The fast path misses it (documented restriction of the paper's
    // read-only direct commit).
    ExactRococoValidator fast(16, /*strict_read_only=*/false);
    ASSERT_EQ(fast.validate({}, x, 0).verdict, Verdict::kCommit);
    ASSERT_EQ(fast.validate(xy, {}, 1).verdict, Verdict::kCommit);
    EXPECT_EQ(fast.validate(x, y, 0).verdict, Verdict::kCommit);
}

TEST(ExactValidator, ClassifyEdges)
{
    ExactRococoValidator v(16);
    const std::vector<uint64_t> w0 = {1, 2};
    ASSERT_EQ(v.validate({}, w0, 0).verdict, Verdict::kCommit); // cid 0

    // Reader of 1 with snapshot 0 (did not see cid 0): forward edge.
    std::vector<uint64_t> r = {1};
    std::vector<uint64_t> w = {3};
    auto req = v.classify(r, w, 0);
    EXPECT_EQ(req.forward, (std::vector<uint64_t>{0}));
    EXPECT_TRUE(req.backward.empty());

    // Same reader with snapshot 1 (saw cid 0): backward RAW edge.
    req = v.classify(r, w, 1);
    EXPECT_TRUE(req.forward.empty());
    EXPECT_EQ(req.backward, (std::vector<uint64_t>{0}));

    // WAW: writing 2 adds a backward edge regardless of snapshot.
    std::vector<uint64_t> w2 = {2};
    req = v.classify({}, w2, 0);
    EXPECT_EQ(req.backward, (std::vector<uint64_t>{0}));
}

} // namespace
} // namespace rococo::core

namespace rococo::core {
namespace {

TEST(ReachabilityMatrix, FuzzClosureSupersetUnderEviction)
{
    // Differential fuzz: random insert/evict/probe sequences. The
    // matrix restricted to survivors must contain (as a superset) the
    // Warshall closure of the surviving direct edges — paths through
    // evicted vertices are legitimately remembered — and must satisfy
    // its structural invariants after every step. W=10 is the original
    // shape (120 steps, edge chance 0.15); wider windows run long
    // enough to fill.
    for (const size_t window : kWidths) {
        SCOPED_TRACE("W=" + std::to_string(window));
        Xoshiro256 rng(123);
        const double edge = std::min(0.5, 1.5 / double(window));
        const int rounds = window > 64 ? 3 : 10;
        for (int round = 0; round < rounds; ++round) {
            ReachabilityMatrix matrix(window);
            // Track surviving direct edges for the oracle.
            std::vector<std::pair<size_t, size_t>> direct_edges;
            std::vector<char> occupied(window, 0);

            for (size_t step = 0; step < std::max<size_t>(120, 6 * window);
                 ++step) {
                ASSERT_TRUE(matrix.check_invariants()) << "step " << step;
                const double dice = rng.uniform();
                if (dice < 0.55) {
                    // Insert into a random free slot with random edges.
                    std::vector<size_t> free_slots;
                    for (size_t s = 0; s < window; ++s) {
                        if (!occupied[s]) free_slots.push_back(s);
                    }
                    if (free_slots.empty()) continue;
                    const size_t slot =
                        free_slots[rng.below(free_slots.size())];
                    SlotSet f, b;
                    for (size_t s = 0; s < window; ++s) {
                        if (!occupied[s]) continue;
                        if (rng.chance(edge)) f.set(s);
                        if (rng.chance(edge)) b.set(s);
                    }
                    const ProbeResult probe = matrix.probe(f, b);
                    if (probe.cyclic) continue;
                    matrix.insert(slot, probe);
                    occupied[slot] = 1;
                    f.for_each([&](size_t s) {
                        direct_edges.push_back({slot, s});
                    });
                    b.for_each([&](size_t s) {
                        direct_edges.push_back({s, slot});
                    });
                } else if (dice < 0.75) {
                    // Evict a random occupied slot.
                    std::vector<size_t> used;
                    for (size_t s = 0; s < window; ++s) {
                        if (occupied[s]) used.push_back(s);
                    }
                    if (used.empty()) continue;
                    const size_t slot = used[rng.below(used.size())];
                    matrix.clear_slot(slot);
                    occupied[slot] = 0;
                    std::erase_if(direct_edges, [&](const auto& e) {
                        return e.first == slot || e.second == slot;
                    });
                } else {
                    // Check: superset of survivors' closure.
                    DependencyGraph g(window);
                    for (const auto& [from, to] : direct_edges) {
                        g.add_edge(from, to);
                    }
                    const BitMatrix closure =
                        graph::warshall_closure(g, /*reflexive=*/false);
                    for (size_t i = 0; i < window; ++i) {
                        for (size_t j = 0; j < window; ++j) {
                            if (i == j || !closure.test(i, j)) continue;
                            EXPECT_TRUE(matrix.reaches(i, j))
                                << "missing " << i << "->" << j
                                << " at step " << step;
                        }
                    }
                }
            }
            ASSERT_TRUE(matrix.check_invariants());
        }
    }
}

} // namespace
} // namespace rococo::core

namespace rococo::core {
namespace {

TEST(ReachabilityMatrix, DebugDumpShowsState)
{
    ReachabilityMatrix m(4);
    m.insert(0, m.probe(SlotSet{}, SlotSet{}));
    SlotSet b;
    b.set(0);
    m.insert(2, m.probe(SlotSet{}, b));
    const std::string dump = m.debug_dump();
    EXPECT_NE(dump.find("W=4"), std::string::npos);
    EXPECT_NE(dump.find("slot 0"), std::string::npos);
    EXPECT_NE(dump.find("slot 2"), std::string::npos);
}

} // namespace
} // namespace rococo::core
