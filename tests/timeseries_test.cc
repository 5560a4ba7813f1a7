/// Tests for the continuous-monitoring layer (src/obs/timeseries.h,
/// src/obs/health.h): ring semantics, windowed weighted aggregation,
/// per-kind sampling (counter rate, ratio clamp, first-sample nulls),
/// multi-window burn-rate evaluation with hysteresis, and the
/// HealthMonitor -> FlightRecorder incident wiring. All sampling here
/// drives tick()/sample_now() with synthetic timestamps — the layer
/// never reads a clock itself, which is what makes these tests exact.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.h"
#include "obs/registry.h"
#include "obs/timeseries.h"

namespace rococo::obs {
namespace {

constexpr uint64_t kSecond = 1'000'000'000;

TEST(SeriesRing, PushWrapsKeepingNewestOldestFirst)
{
    SeriesRing ring(4);
    EXPECT_EQ(ring.size(), 0u);
    for (uint64_t i = 1; i <= 6; ++i) {
        SeriesPoint p;
        p.t_ns = i;
        p.raw = double(i);
        ring.push(p);
    }
    ASSERT_EQ(ring.size(), 4u);
    EXPECT_EQ(ring.capacity(), 4u);
    // Oldest-first indexing after the wrap: 3, 4, 5, 6.
    EXPECT_EQ(ring.at(0).t_ns, 3u);
    EXPECT_EQ(ring.at(3).t_ns, 6u);
    EXPECT_EQ(ring.back().t_ns, 6u);
}

TEST(SeriesRing, WindowAggregateIsWeightedMeanOverWindowOnly)
{
    SeriesRing ring(8);
    // Three in-window points with weights 1, 3, 1 and one stale point
    // far outside the window that must not contribute.
    auto push = [&](uint64_t t, double value, double weight) {
        SeriesPoint p;
        p.t_ns = t;
        p.value = value;
        p.weight = weight;
        p.has_delta = true;
        ring.push(p);
    };
    push(1 * kSecond, 100.0, 1.0); // stale
    push(8 * kSecond, 10.0, 1.0);
    push(9 * kSecond, 20.0, 3.0);
    push(10 * kSecond, 30.0, 1.0);
    const WindowStat w =
        window_aggregate(ring, 10 * kSecond, 5 * kSecond);
    EXPECT_EQ(w.points, 3u);
    EXPECT_DOUBLE_EQ(w.weight, 5.0);
    // (10*1 + 20*3 + 30*1) / 5 = 20.
    EXPECT_DOUBLE_EQ(w.value, 20.0);
    EXPECT_EQ(w.span_ns, 2 * kSecond);
}

TEST(MetricSampler, CounterSeriesYieldsRatePerSecond)
{
    Registry registry;
    Counter& c = registry.counter("reqs");
    MetricSamplerConfig config;
    config.sample_period_ns = kSecond;
    config.ring_capacity = 8;
    SeriesSpec spec;
    spec.name = "reqs";
    spec.kind = SeriesKind::kCounter;
    spec.counters = {&c};
    config.series.push_back(spec);
    MetricSampler sampler(std::move(config));

    // First sample primes the series: no delta, no rate.
    c.add(100);
    sampler.sample_now(1 * kSecond);
    SeriesPoint p = sampler.last_point(0);
    EXPECT_FALSE(p.has_delta);
    EXPECT_DOUBLE_EQ(p.raw, 100.0);

    // 300 more over 2 s -> 150/s, weight = 2 s.
    c.add(300);
    sampler.sample_now(3 * kSecond);
    p = sampler.last_point(0);
    ASSERT_TRUE(p.has_delta);
    EXPECT_DOUBLE_EQ(p.delta, 300.0);
    EXPECT_DOUBLE_EQ(p.value, 150.0);
    EXPECT_DOUBLE_EQ(p.weight, 2.0);

    // The windowed rate weights by interval length: (300 + 100) over
    // the 3 s the two samples cover.
    c.add(100);
    sampler.sample_now(4 * kSecond);
    const WindowStat w = sampler.window(0, 4 * kSecond, 3 * kSecond);
    EXPECT_DOUBLE_EQ(w.weight, 3.0);
    EXPECT_NEAR(w.value, 400.0 / 3.0, 1e-9);
}

TEST(MetricSampler, TickHonoursPeriodAndReportsSampling)
{
    MetricSamplerConfig config;
    config.sample_period_ns = kSecond;
    SeriesSpec spec;
    spec.name = "x";
    spec.kind = SeriesKind::kCallback;
    spec.callback = [] { return 1.0; };
    config.series.push_back(spec);
    MetricSampler sampler(std::move(config));

    EXPECT_TRUE(sampler.tick(1 * kSecond));
    EXPECT_FALSE(sampler.tick(1 * kSecond + 1)); // not due
    EXPECT_FALSE(sampler.tick(2 * kSecond - 1));
    EXPECT_TRUE(sampler.tick(2 * kSecond));
    EXPECT_EQ(sampler.samples_taken(), 2u);
}

TEST(MetricSampler, RatioSeriesClampsAndGatesOnDenominator)
{
    Registry registry;
    Counter& num = registry.counter("aborts");
    Counter& den = registry.counter("reqs");
    MetricSamplerConfig config;
    config.sample_period_ns = kSecond;
    SeriesSpec spec;
    spec.name = "abort_rate";
    spec.kind = SeriesKind::kRatio;
    spec.counters = {&num};
    spec.denominators = {&den};
    config.series.push_back(spec);
    MetricSampler sampler(std::move(config));

    sampler.sample_now(1 * kSecond);

    // 50 aborts of 100 requests -> 0.5, weighted by the 100 requests.
    num.add(50);
    den.add(100);
    sampler.sample_now(2 * kSecond);
    SeriesPoint p = sampler.last_point(0);
    ASSERT_TRUE(p.has_delta);
    EXPECT_DOUBLE_EQ(p.value, 0.5);
    EXPECT_DOUBLE_EQ(p.weight, 100.0);

    // Numerator outrunning the denominator (reader skew) clamps to 1.
    num.add(500);
    den.add(100);
    sampler.sample_now(3 * kSecond);
    EXPECT_DOUBLE_EQ(sampler.last_point(0).value, 1.0);

    // No denominator traffic: ratio contributes nothing (weight 0).
    num.add(3);
    sampler.sample_now(4 * kSecond);
    p = sampler.last_point(0);
    EXPECT_DOUBLE_EQ(p.weight, 0.0);
    EXPECT_DOUBLE_EQ(p.value, 0.0);
}

TEST(MetricSampler, GaugeQuantileAndCallbackSampleLevels)
{
    Registry registry;
    Gauge& g = registry.gauge("depth");
    LatencyHistogram& h = registry.histogram("lat");
    double level = 7.0;
    MetricSamplerConfig config;
    config.sample_period_ns = kSecond;
    SeriesSpec gauge_spec;
    gauge_spec.name = "depth";
    gauge_spec.kind = SeriesKind::kGauge;
    gauge_spec.gauge = &g;
    config.series.push_back(gauge_spec);
    SeriesSpec q_spec;
    q_spec.name = "p99";
    q_spec.kind = SeriesKind::kQuantile;
    q_spec.histogram = &h;
    q_spec.quantile = 0.99;
    config.series.push_back(q_spec);
    SeriesSpec cb_spec;
    cb_spec.name = "cb";
    cb_spec.kind = SeriesKind::kCallback;
    cb_spec.callback = [&] { return level; };
    config.series.push_back(cb_spec);
    MetricSampler sampler(std::move(config));

    g.set(42.0);
    for (int i = 0; i < 100; ++i) h.record(1000);
    sampler.sample_now(1 * kSecond);

    EXPECT_DOUBLE_EQ(sampler.last_point(0).raw, 42.0);
    const double p99 = sampler.last_point(1).raw;
    EXPECT_GE(p99, 1000.0 * 0.5);
    EXPECT_LE(p99, 4000.0);
    EXPECT_DOUBLE_EQ(sampler.last_point(2).raw, 7.0);
    // Sampled kinds carry weight 1 so windows average them.
    EXPECT_DOUBLE_EQ(sampler.last_point(2).weight, 1.0);
}

TEST(MetricSampler, ToJsonEmitsNullRateUntilPrimed)
{
    Registry registry;
    Counter& c = registry.counter("reqs");
    MetricSamplerConfig config;
    config.sample_period_ns = kSecond;
    SeriesSpec spec;
    spec.name = "reqs";
    spec.kind = SeriesKind::kCounter;
    spec.counters = {&c};
    config.series.push_back(spec);
    MetricSampler sampler(std::move(config));

    std::string json;
    sampler.to_json(&json);
    EXPECT_NE(json.find("\"series\": ["), std::string::npos);
    EXPECT_NE(json.find("\"last\": null"), std::string::npos);

    c.add(10);
    sampler.sample_now(1 * kSecond);
    json.clear();
    sampler.to_json(&json);
    // One sample: a last value exists but the rate is still undefined.
    EXPECT_NE(json.find("\"last\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"rate\": null"), std::string::npos);

    c.add(20);
    sampler.sample_now(2 * kSecond);
    json.clear();
    sampler.to_json(&json);
    EXPECT_NE(json.find("\"rate\": 20"), std::string::npos);
}

/// Drives a counter + ratio sampler through a controlled abort storm:
/// the abort-rate rule must walk ok -> warn (fast breach) ->
/// critical (slow breach with coverage) -> ok (hysteresis) in order.
class SloLadder : public ::testing::Test
{
  protected:
    SloLadder()
    {
        num_ = &registry_.counter("aborts");
        den_ = &registry_.counter("reqs");
        MetricSamplerConfig config;
        config.sample_period_ns = kSecond;
        config.ring_capacity = 64;
        SeriesSpec spec;
        spec.name = "abort_rate";
        spec.kind = SeriesKind::kRatio;
        spec.counters = {num_};
        spec.denominators = {den_};
        config.series.push_back(spec);
        sampler_ = std::make_unique<MetricSampler>(std::move(config));

        SloEngineConfig slo;
        SloRule rule;
        rule.name = "abort-rate";
        rule.series = "abort_rate";
        rule.threshold = 0.5;
        rule.fast_window_ns = 2 * kSecond;
        rule.slow_window_ns = 8 * kSecond;
        rule.min_weight = 10.0;
        rule.recovery_samples = 2;
        slo.rules.push_back(rule);
        engine_ = std::make_unique<SloEngine>(std::move(slo),
                                              sampler_.get());
    }

    /// One second of traffic: @p aborts of @p requests, then sample +
    /// evaluate at @p t seconds.
    void step(uint64_t t, uint64_t requests, uint64_t aborts)
    {
        num_->add(aborts);
        den_->add(requests);
        sampler_->sample_now(t * kSecond);
        engine_->evaluate(t * kSecond);
    }

    Registry registry_;
    Counter* num_ = nullptr;
    Counter* den_ = nullptr;
    std::unique_ptr<MetricSampler> sampler_;
    std::unique_ptr<SloEngine> engine_;
};

TEST_F(SloLadder, WalksWarnThenCriticalThenRecovers)
{
    ASSERT_EQ(engine_->rule_count(), 1u);

    // Healthy traffic primes both windows.
    uint64_t t = 1;
    for (; t <= 4; ++t) step(t, 100, 5);
    EXPECT_EQ(engine_->overall(), HealthState::kOk);

    // Storm. The fast window breaches within two samples -> warn;
    // critical requires the slow window (>= 4 s span at 8 s window)
    // to breach too, which takes sustained burn.
    step(t++, 100, 90);
    step(t++, 100, 90);
    EXPECT_EQ(engine_->overall(), HealthState::kWarn);

    bool saw_critical = false;
    for (; t <= 20 && !saw_critical; ++t) {
        step(t, 100, 90);
        saw_critical = engine_->overall() == HealthState::kCritical;
    }
    EXPECT_TRUE(saw_critical);

    // Recovery: calm traffic, but hysteresis demands recovery_samples
    // (2) consecutive calmer evaluations — recovery on the very first
    // calm step would mean the hysteresis is broken.
    bool recovered = false;
    unsigned calm_steps = 0;
    for (; t <= 60 && !recovered; ++t) {
        step(t, 100, 0);
        ++calm_steps;
        recovered = engine_->overall() == HealthState::kOk;
        if (recovered) EXPECT_GE(calm_steps, 2u);
    }
    EXPECT_TRUE(recovered);

    // The transition history names the whole ladder.
    std::string json;
    engine_->to_json(&json);
    EXPECT_NE(json.find("\"from\": \"ok\", \"to\": \"warn\""),
              std::string::npos);
    EXPECT_NE(json.find("\"from\": \"warn\", \"to\": \"critical\""),
              std::string::npos);
    EXPECT_NE(json.find("\"from\": \"critical\", \"to\": \"ok\""),
              std::string::npos);
}

TEST_F(SloLadder, MinWeightGatesIdleBlips)
{
    // Prime, then a single abort in an idle second: 1/1 = 100% abort
    // rate, but under min_weight (10) of traffic — must stay ok.
    step(1, 100, 5);
    step(2, 100, 5);
    step(3, 1, 1);
    step(4, 1, 1);
    EXPECT_EQ(engine_->overall(), HealthState::kOk);
}

TEST(SloEngine, TransitionHookFiresOutsideTheLock)
{
    Registry registry;
    Counter& num = registry.counter("aborts");
    Counter& den = registry.counter("reqs");
    MetricSamplerConfig config;
    config.sample_period_ns = kSecond;
    SeriesSpec spec;
    spec.name = "r";
    spec.kind = SeriesKind::kRatio;
    spec.counters = {&num};
    spec.denominators = {&den};
    config.series.push_back(spec);
    MetricSampler sampler(std::move(config));

    SloEngineConfig slo;
    SloRule rule;
    rule.name = "r";
    rule.series = "r";
    rule.threshold = 0.5;
    rule.fast_window_ns = 2 * kSecond;
    rule.slow_window_ns = 4 * kSecond;
    rule.min_weight = 1.0;
    slo.rules.push_back(rule);
    SloEngine engine(std::move(slo), &sampler);

    std::vector<std::pair<HealthState, HealthState>> fired;
    engine.set_transition_hook([&](const SloRule& r, HealthState from,
                                   HealthState to) {
        EXPECT_EQ(r.name, "r");
        // Re-entering the engine from the hook must not deadlock —
        // this is the recorder-dump path (dump embeds health JSON).
        std::string json;
        engine.to_json(&json);
        EXPECT_FALSE(json.empty());
        fired.emplace_back(from, to);
    });

    den.add(10);
    sampler.sample_now(1 * kSecond);
    engine.evaluate(1 * kSecond);
    num.add(9);
    den.add(10);
    sampler.sample_now(2 * kSecond);
    engine.evaluate(2 * kSecond);
    ASSERT_FALSE(fired.empty());
    EXPECT_EQ(fired[0].first, HealthState::kOk);
    EXPECT_EQ(fired[0].second, HealthState::kWarn);
}

TEST(SloEngine, DropsDisabledAndUnknownRules)
{
    MetricSamplerConfig config;
    SeriesSpec spec;
    spec.name = "known";
    spec.kind = SeriesKind::kCallback;
    spec.callback = [] { return 0.0; };
    config.series.push_back(spec);
    MetricSampler sampler(std::move(config));

    SloEngineConfig slo;
    SloRule disabled;
    disabled.name = "disabled";
    disabled.series = "known";
    disabled.threshold = 0.0; // 0 disables
    slo.rules.push_back(disabled);
    SloRule typo;
    typo.name = "typo";
    typo.series = "unknwon";
    typo.threshold = 1.0;
    slo.rules.push_back(typo);
    SloRule live;
    live.name = "live";
    live.series = "known";
    live.threshold = 1.0;
    slo.rules.push_back(live);
    SloEngine engine(std::move(slo), &sampler);
    ASSERT_EQ(engine.rule_count(), 1u);
    EXPECT_EQ(engine.rule(0).name, "live");
}

TEST(HealthMonitor, CriticalSloDumpsIncidentWithBreachingSeries)
{
    Registry registry;
    Counter& num = registry.counter("aborts");
    Counter& den = registry.counter("reqs");

    FlightRecorderConfig rec_config;
    rec_config.enabled = true;
    char prefix[64];
    std::snprintf(prefix, sizeof prefix, "/tmp/slo_incident_%d",
                  getpid());
    rec_config.output_prefix = prefix;
    FlightRecorder recorder(rec_config, [&](Registry& out) {
        out.merge(registry);
    });

    MetricSamplerConfig sampler_config;
    sampler_config.sample_period_ns = kSecond;
    SeriesSpec spec;
    spec.name = "svc.abort_rate";
    spec.kind = SeriesKind::kRatio;
    spec.counters = {&num};
    spec.denominators = {&den};
    sampler_config.series.push_back(spec);

    SloEngineConfig slo_config;
    SloRule rule;
    rule.name = "abort-rate";
    rule.series = "svc.abort_rate";
    rule.threshold = 0.5;
    rule.fast_window_ns = 2 * kSecond;
    rule.slow_window_ns = 6 * kSecond;
    rule.min_weight = 10.0;
    slo_config.rules.push_back(rule);

    HealthMonitor monitor(std::move(sampler_config),
                          std::move(slo_config));
    monitor.set_incident_recorder(&recorder);

    // tick() at exactly the sample period, with a storm that must
    // escalate to critical once the slow window is covered.
    uint64_t t = 1;
    for (; t <= 2; ++t) {
        den.add(100);
        monitor.tick(t * kSecond);
    }
    for (; t <= 12; ++t) {
        num.add(90);
        den.add(100);
        monitor.tick(t * kSecond);
    }
    ASSERT_EQ(monitor.slo().overall(), HealthState::kCritical);

    const std::string path = std::string(prefix) + "-1.json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no SLO incident at " << path;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string incident = buffer.str();
    // The SLO breach is the trigger, and the incident embeds the
    // health section with the breaching series' ring.
    EXPECT_NE(incident.find("\"trigger\": \"slo:abort-rate\""),
              std::string::npos);
    EXPECT_NE(incident.find("\"health\":"), std::string::npos);
    EXPECT_NE(incident.find("\"svc.abort_rate\""), std::string::npos);
    EXPECT_NE(incident.find("\"state\": \"critical\""),
              std::string::npos);
    std::remove(path.c_str());

    // De-escalation must NOT dump again: only transitions into
    // critical fire.
    for (; t <= 40 && monitor.slo().overall() != HealthState::kOk; ++t) {
        den.add(100);
        monitor.tick(t * kSecond);
    }
    EXPECT_EQ(monitor.slo().overall(), HealthState::kOk);
    std::ifstream second(std::string(prefix) + "-2.json");
    EXPECT_FALSE(second.good());
}

TEST(HealthMonitor, ConcurrentTicksExportsAndReadersAreSafe)
{
    // TSan-facing stress: four roles hammer one monitor — a ticker, a
    // status_json reader, a registry exporter and a counter writer.
    // The assertions are weak on purpose; the value is the interleaving
    // under -DROCOCO_SANITIZE=thread.
    Registry registry;
    Counter& num = registry.counter("aborts");
    Counter& den = registry.counter("reqs");
    Gauge& depth = registry.gauge("depth");

    MetricSamplerConfig sampler_config;
    sampler_config.sample_period_ns = 1; // sample on every tick
    SeriesSpec ratio;
    ratio.name = "abort_rate";
    ratio.kind = SeriesKind::kRatio;
    ratio.counters = {&num};
    ratio.denominators = {&den};
    sampler_config.series.push_back(ratio);
    SeriesSpec gauge;
    gauge.name = "depth";
    gauge.kind = SeriesKind::kGauge;
    gauge.gauge = &depth;
    sampler_config.series.push_back(gauge);

    SloEngineConfig slo_config;
    SloRule rule;
    rule.name = "abort-rate";
    rule.series = "abort_rate";
    rule.threshold = 0.5;
    rule.fast_window_ns = 1000;
    rule.slow_window_ns = 4000;
    rule.min_weight = 1.0;
    slo_config.rules.push_back(rule);

    HealthMonitor monitor(std::move(sampler_config),
                          std::move(slo_config));

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> now{1};
    std::thread ticker([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            monitor.tick(now.fetch_add(100, std::memory_order_relaxed));
        }
    });
    std::thread reader([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::string json;
            monitor.status_json(&json);
            ASSERT_FALSE(json.empty());
        }
    });
    std::thread exporter([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            std::ostringstream json;
            registry.to_json(json);
        }
    });
    std::thread writer([&] {
        uint64_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            num.add(i % 3 == 0 ? 1 : 0);
            den.add(1);
            depth.set(double(i % 64));
            ++i;
        }
    });

    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    stop.store(true);
    ticker.join();
    reader.join();
    exporter.join();
    writer.join();
    EXPECT_GT(monitor.sampler().samples_taken(), 0u);
}

} // namespace
} // namespace rococo::obs
