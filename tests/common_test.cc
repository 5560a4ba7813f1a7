/// Unit tests for src/common: bit containers, stats, histogram, table,
/// CLI, RNG, barrier and blocking queue.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <fstream>
#include <set>
#include <thread>

#include "common/barrier.h"
#include "common/bitmatrix.h"
#include "common/bitvector.h"
#include "common/cli.h"
#include "common/csv.h"
#include "common/rng.h"
#include "common/spin_wait.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/zipf.h"

namespace rococo {
namespace {

TEST(BitVector, SetTestReset)
{
    BitVector v(130);
    EXPECT_EQ(v.size(), 130u);
    EXPECT_TRUE(v.none());
    v.set(0);
    v.set(64);
    v.set(129);
    EXPECT_TRUE(v.test(0));
    EXPECT_TRUE(v.test(64));
    EXPECT_TRUE(v.test(129));
    EXPECT_FALSE(v.test(1));
    EXPECT_EQ(v.count(), 3u);
    v.reset(64);
    EXPECT_FALSE(v.test(64));
    EXPECT_EQ(v.count(), 2u);
}

TEST(BitVector, FindFirstAndNext)
{
    BitVector v(200);
    EXPECT_EQ(v.find_first(), 200u);
    v.set(3);
    v.set(67);
    v.set(199);
    EXPECT_EQ(v.find_first(), 3u);
    EXPECT_EQ(v.find_next(3), 67u);
    EXPECT_EQ(v.find_next(67), 199u);
    EXPECT_EQ(v.find_next(199), 200u);
}

TEST(BitVector, IterationMatchesTest)
{
    Xoshiro256 rng(11);
    BitVector v(257);
    std::set<size_t> expected;
    for (int i = 0; i < 60; ++i) {
        const size_t bit = rng.below(257);
        v.set(bit);
        expected.insert(bit);
    }
    std::set<size_t> seen;
    for (size_t b = v.find_first(); b < v.size(); b = v.find_next(b)) {
        seen.insert(b);
    }
    EXPECT_EQ(seen, expected);
}

TEST(BitVector, BooleanOps)
{
    BitVector a(100), b(100);
    a.set(5);
    a.set(70);
    b.set(70);
    b.set(99);
    EXPECT_TRUE(a.intersects(b));
    BitVector u = a;
    u |= b;
    EXPECT_EQ(u.count(), 3u);
    BitVector i = a;
    i &= b;
    EXPECT_EQ(i.count(), 1u);
    EXPECT_TRUE(i.test(70));
    b.reset(70);
    EXPECT_FALSE(a.intersects(b));
}

TEST(BitVector, ClearAndToString)
{
    BitVector v(4);
    v.set(1);
    v.set(3);
    EXPECT_EQ(v.to_string(), "0101");
    v.clear();
    EXPECT_TRUE(v.none());
}

TEST(BitMatrix, TransposeAndColumn)
{
    BitMatrix m(5);
    m.set(0, 3);
    m.set(2, 3);
    m.set(4, 1);
    const BitMatrix t = m.transposed();
    EXPECT_TRUE(t.test(3, 0));
    EXPECT_TRUE(t.test(3, 2));
    EXPECT_TRUE(t.test(1, 4));
    EXPECT_FALSE(t.test(0, 3));
    const BitVector col3 = m.column(3);
    EXPECT_TRUE(col3.test(0));
    EXPECT_TRUE(col3.test(2));
    EXPECT_FALSE(col3.test(4));
}

TEST(BitMatrix, Diagonal)
{
    BitMatrix m(3);
    m.set_diagonal();
    for (size_t i = 0; i < 3; ++i) EXPECT_TRUE(m.test(i, i));
}

TEST(RunningStat, MeanVarianceMinMax)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(CounterBag, BumpMergeRender)
{
    CounterBag a, b;
    a.bump("x");
    a.bump("x", 2);
    b.bump("y", 5);
    a.add(b);
    EXPECT_EQ(a.get("x"), 3u);
    EXPECT_EQ(a.get("y"), 5u);
    EXPECT_EQ(a.get("z"), 0u);
    EXPECT_EQ(a.to_string(), "x=3 y=5");
}

TEST(Table, Renders)
{
    Table t({"name", "value"});
    t.row().cell("alpha").num(uint64_t{42});
    t.row().cell("beta").num(3.14159, 2);
    const std::string out = t.to_string();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("3.14"), std::string::npos);
}

TEST(Cli, ParsesFlags)
{
    const char* argv[] = {"prog", "--threads=4", "--name", "foo",
                          "--flag"};
    Cli cli(5, const_cast<char**>(argv), {"threads", "name", "flag"});
    EXPECT_EQ(cli.get_int("threads", 1), 4);
    EXPECT_EQ(cli.get("name", ""), "foo");
    EXPECT_TRUE(cli.get_bool("flag", false));
    EXPECT_EQ(cli.get_int("missing", 7), 7);
}

TEST(Cli, ParsesIntList)
{
    const char* argv[] = {"prog", "--threads=1,4,28"};
    Cli cli(2, const_cast<char**>(argv), {"threads"});
    EXPECT_EQ(cli.get_int_list("threads", {}),
              (std::vector<int>{1, 4, 28}));
}

TEST(Rng, DeterministicAndSplit)
{
    Xoshiro256 a(42), b(42);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), b());
    Xoshiro256 child = a.split();
    EXPECT_NE(a(), child());
}

TEST(Rng, BelowInRangeAndUniform)
{
    Xoshiro256 rng(1);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(rng.below(17), 17u);
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Zipf, ThetaZeroIsExactlyUniform)
{
    // theta = 0 weights every rank 1, so the CDF is the uniform one and
    // draw frequencies match rng.below to sampling noise.
    const uint64_t n = 16;
    ZipfSampler sampler(n, 0.0);
    for (uint64_t k = 1; k <= n; ++k) {
        EXPECT_DOUBLE_EQ(sampler.head_mass(k), double(k) / double(n));
    }
    Xoshiro256 rng(42);
    std::vector<uint64_t> counts(n, 0);
    const uint64_t draws = 160000;
    for (uint64_t i = 0; i < draws; ++i) ++counts[sampler.draw(rng)];
    for (uint64_t k = 0; k < n; ++k) {
        EXPECT_NEAR(double(counts[k]), double(draws) / double(n),
                    0.05 * double(draws) / double(n))
            << "rank " << k;
    }
}

TEST(Zipf, SkewConcentratesHeadMass)
{
    // YCSB's canonical theta: the hottest 1% of a 10k key space carries
    // far more than 1% of the mass, and empirical draw frequencies
    // track the analytic head mass.
    ZipfSampler sampler(10000, 0.99);
    const double head = sampler.head_mass(100);
    EXPECT_GT(head, 0.3);
    EXPECT_LT(head, 1.0);

    Xoshiro256 rng(7);
    uint64_t in_head = 0;
    const uint64_t draws = 100000;
    for (uint64_t i = 0; i < draws; ++i) {
        if (sampler.draw(rng) < 100) ++in_head;
    }
    EXPECT_NEAR(double(in_head) / double(draws), head, 0.02);
    // Rank 0 strictly hotter than a mid-pack rank, by construction.
    EXPECT_GT(sampler.head_mass(1),
              sampler.head_mass(5001) - sampler.head_mass(5000));
}

TEST(Zipf, DrawsCoverRangeAndAreDeterministic)
{
    ZipfSampler sampler(8, 1.2);
    Xoshiro256 a(123), b(123);
    std::set<uint64_t> seen;
    for (int i = 0; i < 4000; ++i) {
        const uint64_t x = sampler.draw(a);
        EXPECT_EQ(x, sampler.draw(b)); // same seed, same stream
        EXPECT_LT(x, 8u);
        seen.insert(x);
    }
    EXPECT_EQ(seen.size(), 8u) << "4000 draws over 8 ranks missed one";
}

TEST(Zipf, SingleKeySpace)
{
    ZipfSampler sampler(1, 0.99);
    Xoshiro256 rng(1);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(sampler.draw(rng), 0u);
    EXPECT_DOUBLE_EQ(sampler.head_mass(1), 1.0);
}

TEST(Barrier, SynchronizesPhases)
{
    constexpr unsigned kThreads = 4;
    Barrier barrier(kThreads);
    std::atomic<int> phase_counter{0};
    std::vector<std::thread> threads;
    std::atomic<bool> ok{true};
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int phase = 0; phase < 3; ++phase) {
                phase_counter.fetch_add(1);
                barrier.arrive_and_wait();
                // After the barrier every participant of this phase has
                // incremented.
                if (phase_counter.load() < (phase + 1) * int(kThreads)) {
                    ok = false;
                }
                barrier.arrive_and_wait();
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_TRUE(ok);
    EXPECT_EQ(phase_counter.load(), 12);
}

} // namespace
} // namespace rococo

namespace rococo {
namespace {

TEST(CsvWriter, WritesEscapedRows)
{
    const std::string path = ::testing::TempDir() + "/out.csv";
    {
        CsvWriter csv(path, {"name", "value"});
        ASSERT_TRUE(csv.ok());
        csv.write_row({"plain", "1"});
        csv.write_row({"has,comma", "with \"quote\""});
        csv.write_row({"wrong-arity"}); // silently dropped
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "name,value");
    std::getline(in, line);
    EXPECT_EQ(line, "plain,1");
    std::getline(in, line);
    EXPECT_EQ(line, "\"has,comma\",\"with \"\"quote\"\"\"");
    EXPECT_FALSE(std::getline(in, line));
}

TEST(CsvWriter, BadPathIsNoOp)
{
    CsvWriter csv("/nonexistent-dir/x.csv", {"a"});
    EXPECT_FALSE(csv.ok());
    csv.write_row({"ignored"});
}

TEST(SpinWait, AllowedDescribesTheProcessNotItsFirstCaller)
{
    // Nothing in this test calls spin_allowed() before the pinned
    // thread does, so that thread is the first caller in the process.
    cpu_set_t process;
    CPU_ZERO(&process);
    ASSERT_EQ(sched_getaffinity(0, sizeof(process), &process), 0);
    if (CPU_COUNT(&process) < 2) GTEST_SKIP() << "process may use one CPU";
    int cpu = 0;
    while (!CPU_ISSET(cpu, &process)) ++cpu;
    bool pinned = false;
    bool allowed = false;
    std::thread first([&] {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned =
            pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
        allowed = spin_allowed();
    });
    first.join();
    ASSERT_TRUE(pinned);
    EXPECT_TRUE(allowed);
}

} // namespace
} // namespace rococo
