#include "obs/timeseries.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace rococo::obs {

const char*
to_string(SeriesKind kind)
{
    switch (kind) {
    case SeriesKind::kCounter: return "counter";
    case SeriesKind::kRatio: return "ratio";
    case SeriesKind::kGauge: return "gauge";
    case SeriesKind::kQuantile: return "quantile";
    case SeriesKind::kCallback: return "callback";
    }
    return "?";
}

SeriesRing::SeriesRing(size_t capacity)
{
    ring_.resize(std::max<size_t>(capacity, 2));
}

void
SeriesRing::push(const SeriesPoint& point)
{
    if (size_ < ring_.size()) {
        ring_[(head_ + size_) % ring_.size()] = point;
        ++size_;
    } else {
        ring_[head_] = point;
        head_ = (head_ + 1) % ring_.size();
    }
}

WindowStat
window_aggregate(const SeriesRing& ring, uint64_t now_ns, uint64_t window_ns)
{
    WindowStat stat;
    double weighted_sum = 0.0;
    // Newest-first until we fall off the window; rings are small (a few
    // hundred points), so a linear walk is fine.
    for (size_t i = ring.size(); i-- > 0;) {
        const SeriesPoint& p = ring.at(i);
        if (now_ns - p.t_ns > window_ns) break;
        if (!p.has_delta && p.weight == 0.0) continue; // unprimed first point
        weighted_sum += p.value * p.weight;
        stat.weight += p.weight;
        ++stat.points;
        stat.span_ns = now_ns - p.t_ns;
    }
    if (stat.weight > 0.0) stat.value = weighted_sum / stat.weight;
    return stat;
}

MetricSampler::MetricSampler(MetricSamplerConfig config)
    : config_(std::move(config))
{
    if (config_.sample_period_ns == 0) config_.sample_period_ns = 1;
    series_.reserve(config_.series.size());
    for (auto& spec : config_.series) {
        series_.push_back({spec, SeriesRing(config_.ring_capacity), 0.0,
                           0.0, false});
    }
}

int
MetricSampler::index_of(const std::string& name) const
{
    for (size_t i = 0; i < series_.size(); ++i) {
        if (series_[i].spec.name == name) return static_cast<int>(i);
    }
    return -1;
}

bool
MetricSampler::tick(uint64_t now_ns)
{
    // Fast pre-check outside the lock: a torn/stale read of
    // last_sample_ns_ only skews one sampling decision by a period.
    if (now_ns - last_sample_ns_ < config_.sample_period_ns) return false;
    std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
    if (!lock.owns_lock()) return false;
    if (now_ns - last_sample_ns_ < config_.sample_period_ns) return false;
    sample_locked(now_ns);
    return true;
}

void
MetricSampler::sample_now(uint64_t now_ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    sample_locked(now_ns);
}

void
MetricSampler::sample_locked(uint64_t now_ns)
{
    for (Series& s : series_) {
        SeriesPoint p;
        p.t_ns = now_ns;
        const uint64_t prev_t =
            s.ring.size() ? s.ring.back().t_ns : 0;
        const double dt_s =
            s.primed ? static_cast<double>(now_ns - prev_t) / 1e9 : 0.0;

        switch (s.spec.kind) {
        case SeriesKind::kCounter: {
            double cum = 0.0;
            for (const Counter* c : s.spec.counters)
                cum += static_cast<double>(c->value());
            p.raw = cum;
            if (s.primed && dt_s > 0.0) {
                p.delta = std::max(0.0, cum - s.prev_num);
                p.value = p.delta / dt_s; // rate/s
                p.weight = dt_s;
                p.has_delta = true;
            }
            s.prev_num = cum;
            break;
        }
        case SeriesKind::kRatio: {
            double num = 0.0, den = 0.0;
            for (const Counter* c : s.spec.counters)
                num += static_cast<double>(c->value());
            for (const Counter* c : s.spec.denominators)
                den += static_cast<double>(c->value());
            if (s.primed) {
                const double dnum = std::max(0.0, num - s.prev_num);
                const double dden = std::max(0.0, den - s.prev_den);
                // Clamped: the sources are read one by one, so under a
                // full-tilt storm the numerator delta can slightly
                // outrun the denominator.
                p.value = dden > 0.0 ? std::min(1.0, dnum / dden) : 0.0;
                p.raw = p.value;
                p.delta = dnum;
                p.weight = dden;
                p.has_delta = true;
            }
            s.prev_num = num;
            s.prev_den = den;
            break;
        }
        case SeriesKind::kGauge:
        case SeriesKind::kQuantile:
        case SeriesKind::kCallback: {
            double v = 0.0;
            if (s.spec.kind == SeriesKind::kGauge && s.spec.gauge) {
                v = s.spec.gauge->value();
            } else if (s.spec.kind == SeriesKind::kQuantile &&
                       s.spec.histogram) {
                v = static_cast<double>(
                    s.spec.histogram->quantile(s.spec.quantile));
            } else if (s.spec.kind == SeriesKind::kCallback &&
                       s.spec.callback) {
                v = s.spec.callback();
            }
            p.raw = v;
            p.value = v;
            p.weight = 1.0;
            if (s.primed) {
                p.delta = v - s.prev_num;
                p.has_delta = true;
            }
            s.prev_num = v;
            break;
        }
        }
        s.ring.push(p);
        s.primed = true;
    }
    last_sample_ns_ = now_ns;
    ++samples_taken_;
}

uint64_t
MetricSampler::samples_taken() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return samples_taken_;
}

WindowStat
MetricSampler::window(size_t series, uint64_t now_ns,
                      uint64_t window_ns) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return window_aggregate(series_[series].ring, now_ns, window_ns);
}

SeriesPoint
MetricSampler::last_point(size_t series) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const SeriesRing& ring = series_[series].ring;
    return ring.size() ? ring.back() : SeriesPoint{};
}

namespace {

/// True when the point's value field is meaningful: rates/ratios need
/// a previous sample, sampled kinds are valid from the first point.
bool
value_valid(SeriesKind kind, const SeriesPoint& p)
{
    return p.has_delta || kind == SeriesKind::kGauge ||
           kind == SeriesKind::kQuantile || kind == SeriesKind::kCallback;
}

} // namespace

void
MetricSampler::to_json(std::string* out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "{\"now_ns\": %" PRIu64 ", \"period_ns\": %" PRIu64
                  ", \"series\": [",
                  last_sample_ns_, config_.sample_period_ns);
    *out += buf;
    for (size_t i = 0; i < series_.size(); ++i) {
        const Series& s = series_[i];
        std::snprintf(buf, sizeof buf, "%s\n{\"name\": \"%s\", \"kind\": "
                                       "\"%s\", ",
                      i == 0 ? "" : ",", s.spec.name.c_str(),
                      to_string(s.spec.kind));
        *out += buf;
        if (s.ring.size() == 0) {
            *out += "\"last\": null, \"rate\": null, \"points\": []}";
            continue;
        }
        const SeriesPoint& last = s.ring.back();
        std::snprintf(buf, sizeof buf, "\"last\": %g, ", last.raw);
        *out += buf;
        if (value_valid(s.spec.kind, last)) {
            std::snprintf(buf, sizeof buf, "\"rate\": %g, ", last.value);
            *out += buf;
        } else {
            *out += "\"rate\": null, ";
        }
        *out += "\"points\": [";
        for (size_t j = 0; j < s.ring.size(); ++j) {
            const SeriesPoint& p = s.ring.at(j);
            if (value_valid(s.spec.kind, p)) {
                std::snprintf(buf, sizeof buf,
                              "%s[%" PRIu64 ", %g, %g]", j == 0 ? "" : ",",
                              p.t_ns, p.raw, p.value);
            } else {
                std::snprintf(buf, sizeof buf,
                              "%s[%" PRIu64 ", %g, null]",
                              j == 0 ? "" : ",", p.t_ns, p.raw);
            }
            *out += buf;
        }
        *out += "]}";
    }
    *out += "\n]}";
}

} // namespace rococo::obs
