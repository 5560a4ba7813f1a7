#include "obs/registry.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <ostream>
#include <vector>

namespace rococo::obs {

void
Gauge::set(double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    last_ = value;
    min_ = n_ ? std::min(min_, value) : value;
    max_ = n_ ? std::max(max_, value) : value;
    sum_ += value;
    ++n_;
}

double
Gauge::value() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return last_;
}

double
Gauge::min() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return min_;
}

double
Gauge::max() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return max_;
}

double
Gauge::mean() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return n_ ? sum_ / static_cast<double>(n_) : 0.0;
}

uint64_t
Gauge::samples() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return n_;
}

void
Gauge::merge(const Gauge& other)
{
    double o_last, o_min, o_max, o_sum;
    uint64_t o_n;
    {
        std::lock_guard<std::mutex> lock(other.mutex_);
        o_last = other.last_;
        o_min = other.min_;
        o_max = other.max_;
        o_sum = other.sum_;
        o_n = other.n_;
    }
    if (o_n == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    min_ = n_ ? std::min(min_, o_min) : o_min;
    max_ = n_ ? std::max(max_, o_max) : o_max;
    sum_ += o_sum;
    n_ += o_n;
    last_ = o_last;
}

void
Gauge::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    last_ = min_ = max_ = sum_ = 0.0;
    n_ = 0;
}

namespace {

/// Bucket i holds samples in [2^(i-1), 2^i); bucket 0 holds 0.
size_t
bucket_index(uint64_t value)
{
    return static_cast<size_t>(std::bit_width(value));
}

} // namespace

void
LatencyHistogram::record(uint64_t value)
{
    const size_t i = std::min(bucket_index(value), kBuckets - 1);
    buckets_[i].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    uint64_t low = min_.load(std::memory_order_relaxed);
    while (value < low &&
           !min_.compare_exchange_weak(low, value,
                                       std::memory_order_relaxed)) {
    }
}

double
LatencyHistogram::mean() const
{
    const uint64_t n = count();
    return n ? static_cast<double>(sum_.load(std::memory_order_relaxed)) /
                   static_cast<double>(n)
             : 0.0;
}

uint64_t
LatencyHistogram::quantile(double q) const
{
    const uint64_t n = count();
    if (n == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(n);
    double seen = 0.0;
    for (size_t i = 0; i < kBuckets; ++i) {
        const double in_bucket =
            static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
        if (in_bucket == 0.0) continue;
        if (seen + in_bucket >= target) {
            // Interpolate inside [2^(i-1), 2^i); bucket 0 is exactly 0.
            if (i == 0) return 0;
            const double lo = static_cast<double>(uint64_t{1} << (i - 1));
            const double frac = (target - seen) / in_bucket;
            const uint64_t estimate =
                static_cast<uint64_t>(lo + lo * std::max(frac, 0.0));
            // Clamp into the exact observed range: a quantile can never
            // fall below the smallest or above the largest sample.
            return std::clamp(estimate, min(), max());
        }
        seen += in_bucket;
    }
    return max();
}

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    for (size_t i = 0; i < kBuckets; ++i) {
        const uint64_t v = other.buckets_[i].load(std::memory_order_relaxed);
        if (v) buckets_[i].fetch_add(v, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    const uint64_t o = other.max();
    while (o > seen &&
           !max_.compare_exchange_weak(seen, o, std::memory_order_relaxed)) {
    }
    const uint64_t o_min = other.min_.load(std::memory_order_relaxed);
    uint64_t low = min_.load(std::memory_order_relaxed);
    while (o_min < low &&
           !min_.compare_exchange_weak(low, o_min,
                                       std::memory_order_relaxed)) {
    }
}

void
LatencyHistogram::reset()
{
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
    min_.store(kNoMin, std::memory_order_relaxed);
}

Counter&
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
}

Gauge&
Registry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
}

LatencyHistogram&
Registry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<LatencyHistogram>();
    return *slot;
}

uint64_t
Registry::get(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second->value();
}

void
Registry::merge(const Registry& other)
{
    // Snapshot other's metric pointers, then update ours outside its
    // lock (metric objects are internally synchronized and never
    // removed).
    std::vector<std::pair<std::string, const Counter*>> counters;
    std::vector<std::pair<std::string, const Gauge*>> gauges;
    std::vector<std::pair<std::string, const LatencyHistogram*>> hists;
    {
        std::lock_guard<std::mutex> lock(other.mutex_);
        for (const auto& [name, c] : other.counters_)
            counters.emplace_back(name, c.get());
        for (const auto& [name, g] : other.gauges_)
            gauges.emplace_back(name, g.get());
        for (const auto& [name, h] : other.histograms_)
            hists.emplace_back(name, h.get());
    }
    // Zero-valued counters are created too: a merged snapshot lists
    // every counter the source defines, not only those that moved.
    for (const auto& [name, c] : counters) counter(name).add(c->value());
    for (const auto& [name, g] : gauges) gauge(name).merge(*g);
    for (const auto& [name, h] : hists) histogram(name).merge(*h);
}

void
Registry::add(const CounterBag& bag)
{
    for (const auto& [name, value] : bag.counters()) {
        if (value) counter(name).add(value);
    }
}

CounterBag
Registry::to_counter_bag() const
{
    CounterBag bag;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, c] : counters_) {
        const uint64_t v = c->value();
        if (v) bag.bump(name, v);
    }
    return bag;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
}

void
Registry::to_json(std::ostream& out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[320]; // widest row: a histogram with seven u64-sized fields
    out << "{\n  \"counters\": {";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        std::snprintf(buf, sizeof(buf), "%s\n    \"%s\": %" PRIu64,
                      first ? "" : ",", name.c_str(), c->value());
        out << buf;
        first = false;
    }
    out << "\n  },\n  \"gauges\": {";
    first = true;
    for (const auto& [name, g] : gauges_) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n    \"%s\": {\"last\": %g, \"min\": %g, "
                      "\"max\": %g, \"mean\": %g, \"samples\": %" PRIu64
                      "}",
                      first ? "" : ",", name.c_str(), g->value(), g->min(),
                      g->max(), g->mean(), g->samples());
        out << buf;
        first = false;
    }
    out << "\n  },\n  \"histograms\": {";
    first = true;
    for (const auto& [name, h] : histograms_) {
        std::snprintf(buf, sizeof(buf),
                      "%s\n    \"%s\": {\"count\": %" PRIu64
                      ", \"mean\": %g, \"min\": %" PRIu64
                      ", \"max\": %" PRIu64
                      ", \"p50\": %" PRIu64 ", \"p90\": %" PRIu64
                      ", \"p99\": %" PRIu64 "}",
                      first ? "" : ",", name.c_str(), h->count(), h->mean(),
                      h->min(), h->max(), h->quantile(0.5), h->quantile(0.9),
                      h->quantile(0.99));
        out << buf;
        first = false;
    }
    out << "\n  }\n}";
}

void
Registry::to_csv(std::ostream& out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[192];
    out << "kind,name,field,value\n";
    for (const auto& [name, c] : counters_) {
        std::snprintf(buf, sizeof(buf), "counter,%s,value,%" PRIu64 "\n",
                      name.c_str(), c->value());
        out << buf;
    }
    for (const auto& [name, g] : gauges_) {
        std::snprintf(buf, sizeof(buf), "gauge,%s,last,%g\n", name.c_str(),
                      g->value());
        out << buf;
        std::snprintf(buf, sizeof(buf), "gauge,%s,mean,%g\n", name.c_str(),
                      g->mean());
        out << buf;
        std::snprintf(buf, sizeof(buf), "gauge,%s,max,%g\n", name.c_str(),
                      g->max());
        out << buf;
    }
    for (const auto& [name, h] : histograms_) {
        std::snprintf(buf, sizeof(buf), "histogram,%s,count,%" PRIu64 "\n",
                      name.c_str(), h->count());
        out << buf;
        std::snprintf(buf, sizeof(buf), "histogram,%s,mean,%g\n",
                      name.c_str(), h->mean());
        out << buf;
        std::snprintf(buf, sizeof(buf), "histogram,%s,min,%" PRIu64 "\n",
                      name.c_str(), h->min());
        out << buf;
        std::snprintf(buf, sizeof(buf), "histogram,%s,max,%" PRIu64 "\n",
                      name.c_str(), h->max());
        out << buf;
        std::snprintf(buf, sizeof(buf), "histogram,%s,p99,%" PRIu64 "\n",
                      name.c_str(), h->quantile(0.99));
        out << buf;
    }
}

Registry&
Registry::global()
{
    static Registry registry;
    return registry;
}

} // namespace rococo::obs
