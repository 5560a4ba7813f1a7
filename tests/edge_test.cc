/// Edge-case battery across modules: boundary sizes, error paths,
/// death tests on contract violations, and behaviours too small to
/// warrant their own file.
#include <gtest/gtest.h>

#include "common/bitvector.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/reachability_matrix.h"
#include "core/sliding_window.h"
#include "fpga/detector.h"
#include "fpga/resource_model.h"
#include "fpga/validation_engine.h"
#include "sig/bloom_signature.h"
#include "stamp/containers/node_pool.h"
#include "tm/redo_log.h"
#include "tm/tm.h"

namespace rococo {
namespace {

TEST(BitVectorEdge, SingleBitVector)
{
    BitVector v(1);
    EXPECT_EQ(v.find_first(), 1u);
    v.set(0);
    EXPECT_EQ(v.find_first(), 0u);
    EXPECT_EQ(v.find_next(0), 1u);
    EXPECT_EQ(v.count(), 1u);
}

TEST(BitVectorEdge, ExactWordBoundary)
{
    BitVector v(64);
    v.set(63);
    EXPECT_EQ(v.find_first(), 63u);
    EXPECT_EQ(v.find_next(63), 64u);
    BitVector w(128);
    w.set(64);
    EXPECT_EQ(w.find_first(), 64u);
    EXPECT_EQ(w.find_next(64), 128u);
}

TEST(TableEdge, ShortRowsPadded)
{
    Table t({"a", "b", "c"});
    t.row().cell("only-one");
    const std::string out = t.to_string();
    EXPECT_NE(out.find("only-one"), std::string::npos);
}

TEST(RngEdge, BelowOneIsAlwaysZero)
{
    Xoshiro256 rng(1);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(ReachabilityMatrixEdge, SingleSlotWindow)
{
    core::ReachabilityMatrix m(1);
    m.insert(0, m.probe({}, {}));
    EXPECT_TRUE(m.reaches(0, 0));
    core::SlotSet f, b;
    f.set(0);
    b.set(0);
    EXPECT_TRUE(m.probe(f, b).cyclic);
    m.clear_slot(0);
    EXPECT_TRUE(m.occupied().none());
}

TEST(ReachabilityMatrixEdge, InsertIntoOccupiedSlotDies)
{
    core::ReachabilityMatrix m(2);
    m.insert(0, m.probe({}, {}));
    const auto probe = m.probe({}, {});
    EXPECT_DEATH(m.insert(0, probe), "");
}

TEST(ReachabilityMatrixEdge, WindowAboveTheCapDies)
{
    // Rows are at most kMaxWindow bits wide; a wider window is refused
    // at construction, not truncated.
    core::ReachabilityMatrix widest(core::kMaxWindow);
    EXPECT_EQ(widest.window(), core::kMaxWindow);
    EXPECT_DEATH(core::ReachabilityMatrix(core::kMaxWindow + 1), "");
}

TEST(SlidingWindowEdge, FullWindowKeepsRolling)
{
    core::SlidingWindowValidator v(2);
    for (int i = 0; i < 50; ++i) {
        core::ValidationRequest req;
        if (v.next_cid() > v.window_start()) {
            req.backward.push_back(v.next_cid() - 1);
        }
        ASSERT_EQ(v.validate_and_commit(req).verdict,
                  core::Verdict::kCommit)
            << "iteration " << i;
    }
    EXPECT_EQ(v.occupancy(), 2u);
    EXPECT_EQ(v.window_start(), 48u);
}

TEST(DetectorEdge, HistoryStartTracksEviction)
{
    auto cfg = std::make_shared<const sig::SignatureConfig>(512, 4);
    fpga::ConflictDetector detector(2, cfg);
    for (uint64_t cid = 0; cid < 5; ++cid) {
        detector.record_commit(cid, {{}, {cid}, cid});
    }
    EXPECT_EQ(detector.history_size(), 2u);
    EXPECT_EQ(detector.history_start(), 3u);
}

TEST(EngineEdge, StrictReadOnlyValidatesReaders)
{
    fpga::EngineConfig config;
    config.strict_read_only = true;
    fpga::ValidationEngine engine(config);
    ASSERT_EQ(engine.process({{}, {1}, 0}).verdict,
              core::Verdict::kCommit);
    // A strict read-only transaction consumes a cid.
    ASSERT_EQ(engine.process({{1}, {}, 1}).verdict,
              core::Verdict::kCommit);
    EXPECT_EQ(engine.next_cid(), 2u);
}

TEST(EngineEdge, VerdictNames)
{
    EXPECT_STREQ(core::to_string(core::Verdict::kCommit), "commit");
    EXPECT_STREQ(core::to_string(core::Verdict::kAbortCycle),
                 "abort-cycle");
    EXPECT_STREQ(core::to_string(core::Verdict::kWindowOverflow),
                 "window-overflow");
}

TEST(ResourceModelEdge, CustomDeviceChangesUtilizationOnly)
{
    fpga::DeviceCapacity big;
    big.alms = 2 * 427200;
    const auto normal = fpga::estimate_resources({});
    const auto scaled = fpga::estimate_resources({}, big);
    EXPECT_EQ(normal.alms, scaled.alms);
    EXPECT_NEAR(scaled.alms_pct, normal.alms_pct / 2, 0.01);
}

TEST(NodePoolEdge, ExhaustionDies)
{
    stamp::NodePool<2> pool(4);
    EXPECT_EQ(pool.alloc(), 1u);
    EXPECT_EQ(pool.alloc(), 2u);
    EXPECT_EQ(pool.alloc(), 3u);
    EXPECT_DEATH(pool.alloc(), "");
}

TEST(NodePoolEdge, FieldsAreIndependent)
{
    stamp::NodePool<3> pool(8);
    const uint64_t a = pool.alloc();
    const uint64_t b = pool.alloc();
    pool.field(a, 0).unsafe_store(1);
    pool.field(a, 2).unsafe_store(3);
    pool.field(b, 0).unsafe_store(100);
    EXPECT_EQ(pool.field(a, 0).unsafe_load(), 1u);
    EXPECT_EQ(pool.field(a, 1).unsafe_load(), 0u);
    EXPECT_EQ(pool.field(a, 2).unsafe_load(), 3u);
    EXPECT_EQ(pool.field(b, 0).unsafe_load(), 100u);
}

TEST(RedoLogEdge, ManyCollidingCells)
{
    // Adjacent cells stress the open-addressing probe chains.
    tm::RedoLog log;
    std::vector<tm::TmCell> cells(1000);
    for (int round = 0; round < 3; ++round) {
        log.clear();
        for (size_t i = 0; i < cells.size(); ++i) {
            log.put(&cells[i], i * 3 + round);
        }
        EXPECT_EQ(log.size(), cells.size());
        tm::Word v = 0;
        ASSERT_TRUE(log.get(&cells[999], v));
        EXPECT_EQ(v, 999 * 3 + static_cast<uint64_t>(round));
    }
}

TEST(BloomEdge, MinimumGeometry)
{
    auto cfg = std::make_shared<const sig::SignatureConfig>(64, 1);
    sig::BloomSignature s(cfg);
    s.insert(42);
    EXPECT_TRUE(s.query(42));
    EXPECT_EQ(s.popcount(), 1u);
}

TEST(BloomEdge, PartitionSmallerThanWord)
{
    // 4 partitions of 32 bits each: the per-partition intersection
    // path that scans bits rather than whole words.
    auto cfg = std::make_shared<const sig::SignatureConfig>(128, 4);
    sig::BloomSignature a(cfg), b(cfg);
    a.insert(7);
    b.insert(7);
    EXPECT_TRUE(a.intersects_all_partitions(b));
    sig::BloomSignature c(cfg);
    c.insert(8);
    // A single differing element rarely matches all four partitions.
    EXPECT_TRUE(!a.intersects_all_partitions(c) || a.intersects(c));
}

} // namespace
} // namespace rococo

namespace rococo {
namespace {

TEST(TmVarTyped, RoundTripsNegativeAndFloating)
{
    tm::TmVar<int64_t> i(-42);
    EXPECT_EQ(i.get_unsafe(), -42);
    tm::TmVar<double> d(3.25);
    EXPECT_DOUBLE_EQ(d.get_unsafe(), 3.25);
    d.set_unsafe(-0.5);
    EXPECT_DOUBLE_EQ(d.get_unsafe(), -0.5);
    tm::TmVar<uint32_t> u(0xdeadbeef);
    EXPECT_EQ(u.get_unsafe(), 0xdeadbeefu);
    tm::TmVar<bool> b(true);
    EXPECT_TRUE(b.get_unsafe());
}

TEST(CliEdge, UnknownFlagExits)
{
    const char* argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT(
        { Cli cli(2, const_cast<char**>(argv), {"known"}); },
        ::testing::ExitedWithCode(2), "unknown flag");
}

TEST(CliEdge, PositionalArgumentExits)
{
    const char* argv[] = {"prog", "stray"};
    EXPECT_EXIT(
        { Cli cli(2, const_cast<char**>(argv), {"known"}); },
        ::testing::ExitedWithCode(2), "positional");
}

} // namespace
} // namespace rococo
