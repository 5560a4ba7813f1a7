/// Tests for the space-saving top-K sketch (src/obs/topk.h) against an
/// exact-count oracle: the classic stream-summary guarantees (never
/// under-counts, error bounds the slack, guaranteed presence of any key
/// above the offered/(K+1) frequency line) on uniform and zipf streams,
/// plus the snapshot/reset mechanics the exporters rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <map>
#include <vector>

#include "common/rng.h"
#include "obs/topk.h"

namespace rococo::obs {
namespace {

/// Feed @p stream into both the sketch and an exact counter.
std::map<uint64_t, uint64_t>
feed(TopK& sketch, const std::vector<uint64_t>& stream)
{
    std::map<uint64_t, uint64_t> exact;
    for (uint64_t key : stream) {
        sketch.offer(key);
        ++exact[key];
    }
    return exact;
}

/// The space-saving invariants, checked entry by entry against the
/// oracle. Works for any stream.
void
check_guarantees(const TopK& sketch,
                 const std::map<uint64_t, uint64_t>& exact,
                 uint64_t stream_length)
{
    ASSERT_EQ(sketch.offered(), stream_length);
    std::vector<uint64_t> tracked;
    for (size_t i = 0; i < sketch.size(); ++i) {
        const TopK::Entry& entry = sketch.entry(i);
        const auto it = exact.find(entry.key);
        const uint64_t truth = it == exact.end() ? 0 : it->second;
        // Estimated count never under-counts...
        EXPECT_GE(entry.count, truth) << "key " << entry.key;
        // ...and the recorded error bounds the over-estimation.
        EXPECT_LE(entry.count - entry.error, truth)
            << "key " << entry.key;
        tracked.push_back(entry.key);
    }
    // Guaranteed presence: every key hotter than offered/(K+1) must be
    // in the sketch (the space-saving frequent-items guarantee).
    const uint64_t line = stream_length / (TopK::kCapacity + 1);
    for (const auto& [key, count] : exact) {
        if (count <= line) continue;
        EXPECT_NE(std::find(tracked.begin(), tracked.end(), key),
                  tracked.end())
            << "hot key " << key << " (true count " << count
            << " > line " << line << ") missing from the sketch";
    }
}

TEST(TopK, FewDistinctKeysAreExact)
{
    // Fewer distinct keys than capacity: the sketch degenerates to an
    // exact counter with zero error.
    TopK sketch;
    Xoshiro256 rng(1);
    std::vector<uint64_t> stream;
    for (int i = 0; i < 5000; ++i) stream.push_back(rng.below(8));
    const auto exact = feed(sketch, stream);
    ASSERT_EQ(sketch.size(), exact.size());
    for (size_t i = 0; i < sketch.size(); ++i) {
        const TopK::Entry& entry = sketch.entry(i);
        EXPECT_EQ(entry.count, exact.at(entry.key));
        EXPECT_EQ(entry.error, 0u);
    }
    check_guarantees(sketch, exact, stream.size());
}

TEST(TopK, UniformStreamKeepsGuarantees)
{
    // Uniform over many more keys than capacity: no key clears the
    // presence line, but the count/error bounds must still hold.
    TopK sketch;
    Xoshiro256 rng(2);
    std::vector<uint64_t> stream;
    for (int i = 0; i < 20000; ++i) stream.push_back(rng.below(1024));
    const auto exact = feed(sketch, stream);
    EXPECT_EQ(sketch.size(), TopK::kCapacity);
    check_guarantees(sketch, exact, stream.size());
}

TEST(TopK, ZipfStreamSurfacesTheHotSet)
{
    // Zipf(1.2) over 4096 keys: the head is hot enough that the true
    // top-4 must be present AND lead the snapshot ordering — the
    // property `svcctl stats --top` depends on.
    TopK sketch;
    Xoshiro256 rng(3);
    std::vector<double> cdf(4096);
    double sum = 0;
    for (size_t i = 0; i < cdf.size(); ++i) {
        sum += 1.0 / std::pow(double(i + 1), 1.2);
        cdf[i] = sum;
    }
    for (double& c : cdf) c /= sum;
    std::vector<uint64_t> stream;
    for (int i = 0; i < 50000; ++i) {
        const double u = rng.uniform();
        stream.push_back(static_cast<uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()));
    }
    const auto exact = feed(sketch, stream);
    check_guarantees(sketch, exact, stream.size());

    // True top-4 by oracle count.
    std::vector<std::pair<uint64_t, uint64_t>> ranked(exact.begin(),
                                                      exact.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                  return a.second > b.second;
              });
    TopK::Entry top[TopK::kCapacity];
    const size_t n = sketch.snapshot(top, TopK::kCapacity);
    ASSERT_GE(n, 4u);
    for (size_t rank = 0; rank < 4; ++rank) {
        bool found = false;
        for (size_t i = 0; i < 4 && !found; ++i) {
            found = top[i].key == ranked[rank].first;
        }
        EXPECT_TRUE(found) << "true rank-" << rank << " key "
                           << ranked[rank].first
                           << " not in the sketch's top 4";
    }
}

TEST(TopK, SnapshotSortsAndTruncates)
{
    TopK sketch;
    // Distinct counts 1..10 for keys 1..10.
    for (uint64_t key = 1; key <= 10; ++key) {
        sketch.offer(key, key);
    }
    TopK::Entry out[TopK::kCapacity];
    size_t n = sketch.snapshot(out, TopK::kCapacity);
    ASSERT_EQ(n, 10u);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i].key, 10 - i);
        EXPECT_EQ(out[i].count, 10 - i);
        if (i > 0) EXPECT_LE(out[i].count, out[i - 1].count);
    }
    // A smaller destination keeps the hottest entries only.
    n = sketch.snapshot(out, 3);
    ASSERT_EQ(n, 3u);
    EXPECT_EQ(out[0].key, 10u);
    EXPECT_EQ(out[1].key, 9u);
    EXPECT_EQ(out[2].key, 8u);
}

TEST(TopK, ResetClearsEverything)
{
    TopK sketch;
    for (uint64_t i = 0; i < 100; ++i) sketch.offer(i);
    EXPECT_EQ(sketch.offered(), 100u);
    EXPECT_EQ(sketch.size(), TopK::kCapacity);
    sketch.reset();
    EXPECT_EQ(sketch.offered(), 0u);
    EXPECT_EQ(sketch.size(), 0u);
    TopK::Entry out[TopK::kCapacity];
    EXPECT_EQ(sketch.snapshot(out, TopK::kCapacity), 0u);
}

TEST(TopK, EvictionInheritsErrorFromTheVictim)
{
    TopK sketch;
    // Fill capacity with count-2 entries, then insert a fresh key: it
    // evicts a minimum entry and must carry count = victim + 1 with
    // error = victim count (the over-estimation certificate).
    for (uint64_t key = 0; key < TopK::kCapacity; ++key) {
        sketch.offer(key, 2);
    }
    sketch.offer(999);
    bool found = false;
    for (size_t i = 0; i < sketch.size(); ++i) {
        if (sketch.entry(i).key != 999) continue;
        found = true;
        EXPECT_EQ(sketch.entry(i).count, 3u);
        EXPECT_EQ(sketch.entry(i).error, 2u);
    }
    EXPECT_TRUE(found);
}

} // namespace
} // namespace rococo::obs
