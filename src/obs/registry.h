/// @file
/// Metrics registry: named counters, gauges and HDR-style latency
/// histograms behind stable references, with JSON/CSV export and
/// cross-thread merging. This unifies the ad-hoc CounterBag plumbing
/// that used to be spread over the TM runtimes, the validation
/// pipeline and the simulator:
///
///   * Counter — monotonically increasing, lock-free (relaxed atomic);
///     safe to share between threads or to keep per-thread and merge.
///   * Gauge — last-value + running min/max/mean over set() samples
///     (queue depth, window occupancy, duty cycle, ...).
///   * LatencyHistogram — log2-bucketed (HDR-style: ~2x relative
///     error), lock-free record(), quantile estimation by bucket
///     interpolation. Designed for nanosecond latencies.
///
/// Lookup by name takes a mutex; hot paths should look a metric up
/// once and keep the reference (references stay valid for the
/// registry's lifetime; metrics are never removed).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/stats.h"

namespace rococo::obs {

/// Monotonically increasing counter; add() is lock-free.
class Counter
{
  public:
    void add(uint64_t by = 1) { value_.fetch_add(by, std::memory_order_relaxed); }
    uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/// Sampled value: keeps the last sample plus running min/max/mean.
class Gauge
{
  public:
    void set(double value);

    double value() const;   ///< last sample (0 before any)
    double min() const;     ///< smallest sample
    double max() const;     ///< largest sample
    double mean() const;    ///< mean of all samples
    uint64_t samples() const;

    /// Fold another gauge's samples into this one (other's last sample
    /// becomes the last value).
    void merge(const Gauge& other);

    void reset();

  private:
    mutable std::mutex mutex_;
    double last_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
    uint64_t n_ = 0;
};

/// Log2-bucketed latency histogram over uint64 samples (nanoseconds by
/// convention). record() is lock-free; quantiles carry at most one
/// power-of-two bucket of relative error, like HDR histograms at one
/// significant digit.
class LatencyHistogram
{
  public:
    static constexpr size_t kBuckets = 64;

    void record(uint64_t value);

    uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    uint64_t max() const { return max_.load(std::memory_order_relaxed); }
    /// Exact smallest recorded sample (0 with no samples) — the log2
    /// buckets only bound quantiles to a power of two, so min/max are
    /// tracked exactly alongside them.
    uint64_t min() const
    {
        const uint64_t v = min_.load(std::memory_order_relaxed);
        return v == kNoMin ? 0 : v;
    }
    uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    double mean() const;

    /// Value below which fraction @p q (clamped to [0,1]) of samples
    /// fall, interpolated within the containing log2 bucket and clamped
    /// to the observed maximum. 0 with no samples.
    uint64_t quantile(double q) const;

    uint64_t bucket_count(size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    void merge(const LatencyHistogram& other);

    void reset();

  private:
    /// min_ sentinel before any sample (so recording 0 stays exact).
    static constexpr uint64_t kNoMin = ~uint64_t{0};

    std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> max_{0};
    std::atomic<uint64_t> min_{kNoMin};
};

/// Named metric store. Thread-safe: registration under a mutex, metric
/// updates at the metric's own granularity (see class comments).
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry&) = delete;
    Registry& operator=(const Registry&) = delete;

    Counter& counter(const std::string& name);
    Gauge& gauge(const std::string& name);
    LatencyHistogram& histogram(const std::string& name);

    /// CounterBag-compatible shorthand for counter(name).add(by).
    void bump(const std::string& name, uint64_t by = 1)
    {
        counter(name).add(by);
    }

    /// Counter value, 0 if absent (CounterBag-compatible read).
    uint64_t get(const std::string& name) const;

    /// Fold @p other into this registry (counters add, histograms add
    /// bucket-wise, gauges merge their sample statistics). Every metric
    /// of @p other ends up here, zero-valued counters included.
    void merge(const Registry& other);

    /// Ingest legacy string-keyed counters.
    void add(const CounterBag& bag);

    /// Counters-only view for the CounterBag-returning public APIs.
    CounterBag to_counter_bag() const;

    /// Zero every metric (references stay valid).
    void reset();

    /// JSON object: {"counters":{..},"gauges":{..},"histograms":{..}}.
    /// Histograms export count/mean/min/max and p50/p90/p99.
    void to_json(std::ostream& out) const;

    /// Flat CSV: kind,name,field,value — one row per exported scalar.
    void to_csv(std::ostream& out) const;

    /// Process-wide registry the runtime-level telemetry records into
    /// while a TelemetrySession is active.
    static Registry& global();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

} // namespace rococo::obs
