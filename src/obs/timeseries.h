/// @file
/// In-process metric time-series: a MetricSampler periodically
/// snapshots a configured set of sources — counters, counter ratios,
/// gauges, histogram quantiles, arbitrary callbacks — into
/// fixed-capacity per-series rings holding (value, delta, rate) points.
/// Where the registry snapshot answers "what do the totals say *now*",
/// a series answers the operational questions the totals cannot:
/// abort-rate slope, queue-depth growth, p99 drift.
///
/// The sampler is the substrate the SloEngine (obs/health.h) evaluates
/// its multi-window burn-rate rules over, and the "monitor" section of
/// the kSnapshot wire op's reply (svcctl watch).
///
/// Threading: the sampler owns NO thread. Owners call tick(now) from
/// a loop they already run (svc::Server's poll loop); tick() is one
/// load + compare when no sample is due and uses try_lock so
/// concurrent owners never contend. Readers (window(), to_json()) take
/// the same mutex.
///
/// Allocation: construction resolves every source (metric pointers or
/// captured callbacks) and preallocates every ring; a steady-state
/// tick touches only those — no registry lookups, no strings, no heap
/// (tests/hotpath_alloc_test.cc extends its canary over an armed
/// sampler + SLO engine).
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace rococo::obs {

/// How a series derives its per-sample point from its source.
enum class SeriesKind : uint8_t
{
    kCounter,  ///< cumulative counter sum; value = rate/s over the interval
    kRatio,    ///< delta(numerators) / delta(denominators) per interval
    kGauge,    ///< last gauge sample
    kQuantile, ///< histogram quantile (cumulative distribution, sampled)
    kCallback, ///< arbitrary double() source
};

const char* to_string(SeriesKind kind);

/// One configured series. Sources are direct metric pointers (resolve
/// them once, like the server's hoisted handles) or, for kCallback, an
/// arbitrary callback.
struct SeriesSpec
{
    std::string name;
    SeriesKind kind = SeriesKind::kCounter;
    /// kCounter: summed cumulative source. kRatio: numerator sum.
    std::vector<const Counter*> counters;
    /// kRatio: denominator sum.
    std::vector<const Counter*> denominators;
    std::function<double()> callback;            ///< kCallback source
    const Gauge* gauge = nullptr;                ///< kGauge source
    const LatencyHistogram* histogram = nullptr; ///< kQuantile source
    double quantile = 0.99;                      ///< kQuantile q
};

/// One ring entry.
///
///   raw    — the level: cumulative count (kCounter), interval ratio
///            (kRatio), sampled value (kGauge/kQuantile/kCallback)
///   value  — what SLO rules threshold on: rate/s for kCounter, the
///            interval ratio for kRatio, raw for the rest
///   delta  — change since the previous sample (counter/numerator
///            delta; raw delta for sampled kinds)
///   weight — window-aggregation weight: Δt seconds (kCounter),
///            denominator delta (kRatio), 1 (sampled kinds); a
///            weighted mean over a window therefore yields the true
///            windowed rate / ratio / mean respectively
///   has_delta — false for a series' first sample, whose delta, rate
///            and ratio are undefined (exported as null, shown as "-")
struct SeriesPoint
{
    uint64_t t_ns = 0;
    double raw = 0.0;
    double value = 0.0;
    double delta = 0.0;
    double weight = 0.0;
    bool has_delta = false;
};

/// Fixed-capacity point ring, oldest-first indexing.
class SeriesRing
{
  public:
    explicit SeriesRing(size_t capacity);

    void push(const SeriesPoint& point);
    size_t size() const { return size_; }
    size_t capacity() const { return ring_.size(); }
    const SeriesPoint& at(size_t i) const
    {
        return ring_[(head_ + i) % ring_.size()];
    }
    const SeriesPoint& back() const { return at(size_ - 1); }

  private:
    std::vector<SeriesPoint> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
};

/// Weighted aggregate of the ring points inside [now - window, now].
struct WindowStat
{
    double value = 0.0;   ///< weighted mean of point values
    double weight = 0.0;  ///< total weight (Δt s / Δdenominator / #points)
    uint64_t span_ns = 0; ///< now - oldest in-window point
    size_t points = 0;    ///< in-window points contributing a value
};

WindowStat window_aggregate(const SeriesRing& ring, uint64_t now_ns,
                            uint64_t window_ns);

struct MetricSamplerConfig
{
    /// Sampling period; a sample is taken on the first tick() at least
    /// this long after the previous one.
    uint64_t sample_period_ns = 250'000'000; // 250 ms
    /// Per-series ring capacity (the look-back horizon: capacity x
    /// period — the default pair covers a 60 s slow window).
    size_t ring_capacity = 256;
    std::vector<SeriesSpec> series;
};

class MetricSampler
{
  public:
    explicit MetricSampler(MetricSamplerConfig config);

    MetricSampler(const MetricSampler&) = delete;
    MetricSampler& operator=(const MetricSampler&) = delete;

    const MetricSamplerConfig& config() const { return config_; }
    size_t series_count() const { return series_.size(); }
    const std::string& series_name(size_t i) const
    {
        return series_[i].spec.name;
    }
    /// Index of the named series, or -1.
    int index_of(const std::string& name) const;

    /// Sample every series if a period has elapsed. Returns true iff a
    /// sample was taken; cheap when not due, skips (rather than blocks)
    /// when another thread holds the sampler.
    bool tick(uint64_t now_ns);

    /// Unconditional sample (tests, forced refresh); blocks on the lock.
    void sample_now(uint64_t now_ns);

    uint64_t samples_taken() const;

    /// Windowed aggregate of one series (see WindowStat).
    WindowStat window(size_t series, uint64_t now_ns,
                      uint64_t window_ns) const;

    /// Most recent point of one series; has_delta == false and t_ns == 0
    /// when the series has no samples yet.
    SeriesPoint last_point(size_t series) const;

    /// {"now_ns": .., "period_ns": .., "series": [{"name": ..,
    ///  "kind": .., "last": <raw>, "rate": <value>|null,
    ///  "points": [[t_ns, raw, value|null], ...]}, ...]}
    /// "rate"/point value are null until the series has two samples —
    /// the wire-visible fix for first-iteration garbage rates.
    void to_json(std::string* out) const;

  private:
    struct Series
    {
        SeriesSpec spec;
        SeriesRing ring;
        double prev_num = 0.0; ///< previous cumulative numerator
        double prev_den = 0.0; ///< previous cumulative denominator
        bool primed = false;   ///< prev_* valid (one sample taken)
    };

    void sample_locked(uint64_t now_ns);

    MetricSamplerConfig config_;
    mutable std::mutex mutex_;
    std::vector<Series> series_;
    uint64_t last_sample_ns_ = 0;
    uint64_t samples_taken_ = 0;
};

} // namespace rococo::obs
