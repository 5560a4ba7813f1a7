/// Tests for the observability layer (src/obs): abort-reason taxonomy,
/// metrics registry (counters/gauges/log2 latency histograms, merge,
/// JSON/CSV export), the per-thread ring-buffer tracer (wraparound,
/// Chrome trace-event export) and the TelemetrySession envelope.
///
/// The TRACE_* macro tests compile in both tracer modes: with
/// -DROCOCO_TRACE=OFF the macros expand to nothing and the
/// runtime-gating expectations are #if'd out, which is itself the
/// compile-time check that instrumented code builds without the
/// tracer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/abort_reason.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/telemetry.h"
#include "obs/tracer.h"

namespace rococo::obs {
namespace {

/// Minimal JSON well-formedness check: quotes pair up (honouring
/// escapes) and braces/brackets balance outside strings. Not a parser —
/// just enough to catch truncated or mis-quoted exporter output.
bool
json_well_formed(const std::string& text)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : text) {
        if (in_string) {
            if (escaped) {
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{':
          case '[': ++depth; break;
          case '}':
          case ']':
            if (--depth < 0) return false;
            break;
          default: break;
        }
    }
    return depth == 0 && !in_string;
}

/// Restore the tracer to its pre-test state so tests compose.
struct TracerGuard
{
    ~TracerGuard()
    {
        Tracer::instance().stop();
        Tracer::instance().set_thread_capacity(size_t{1} << 13);
        Tracer::instance().reset();
    }
};

TEST(AbortReason, NamesAreStableAndDistinct)
{
    std::set<std::string> ids, counters, histograms;
    for (size_t r = 0; r < kAbortReasonCount; ++r) {
        const auto reason = static_cast<AbortReason>(r);
        const std::string id = to_string(reason);
        EXPECT_FALSE(id.empty());
        ids.insert(id);
        counters.insert(abort_counter_name(reason));
        histograms.insert(retry_histogram_name(reason));
        // The derived names embed the id, so logs, counters and
        // histograms can never disagree on spelling.
        EXPECT_EQ(abort_counter_name(reason),
                  std::string("tm.abort.") + id);
        EXPECT_EQ(retry_histogram_name(reason),
                  std::string("tm.retry_ns.") + id);
    }
    EXPECT_EQ(ids.size(), kAbortReasonCount);
    EXPECT_EQ(counters.size(), kAbortReasonCount);
    EXPECT_EQ(histograms.size(), kAbortReasonCount);
    EXPECT_STREQ(to_string(AbortReason::kNone), "none");
    EXPECT_STREQ(to_string(AbortReason::kValidationCycle),
                 "validation-cycle");
}

TEST(LatencyHistogram, RecordsLog2BucketsAndQuantiles)
{
    LatencyHistogram hist;
    EXPECT_EQ(hist.quantile(0.5), 0u);
    for (uint64_t v : {0, 1, 2, 3, 100, 1000, 1000000}) hist.record(v);
    EXPECT_EQ(hist.count(), 7u);
    EXPECT_EQ(hist.max(), 1000000u);
    // The top quantile is clamped to the observed maximum, not the
    // bucket upper bound (2^20 would overstate by ~5%).
    EXPECT_EQ(hist.quantile(1.0), 1000000u);
    EXPECT_EQ(hist.quantile(0.0), 0u);
    // Median falls in the bucket holding 3 (values 2..3).
    const uint64_t p50 = hist.quantile(0.5);
    EXPECT_GE(p50, 2u);
    EXPECT_LE(p50, 4u);
    // Quantile argument clamps instead of misbehaving.
    EXPECT_EQ(hist.quantile(7.0), hist.quantile(1.0));
    EXPECT_EQ(hist.quantile(-3.0), hist.quantile(0.0));
}

TEST(LatencyHistogram, MergeAndReset)
{
    LatencyHistogram a, b;
    for (uint64_t i = 0; i < 100; ++i) a.record(10);
    for (uint64_t i = 0; i < 100; ++i) b.record(100000);
    a.merge(b);
    EXPECT_EQ(a.count(), 200u);
    EXPECT_EQ(a.max(), 100000u);
    EXPECT_LT(a.quantile(0.25), 100u);
    EXPECT_GT(a.quantile(0.75), 50000u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.max(), 0u);
}

TEST(LatencyHistogram, TracksExactRunningMin)
{
    LatencyHistogram hist;
    EXPECT_EQ(hist.min(), 0u); // empty histogram reads 0, like max()
    for (uint64_t v : {500, 37, 10000, 37, 99}) hist.record(v);
    EXPECT_EQ(hist.min(), 37u);
    EXPECT_EQ(hist.sum(), 500u + 37 + 10000 + 37 + 99);
    // The bottom quantile is clamped to the observed minimum, not the
    // bucket lower bound (bucket of 37 starts at 32).
    EXPECT_EQ(hist.quantile(0.0), 37u);
    for (double q : {0.25, 0.5, 0.99}) {
        EXPECT_GE(hist.quantile(q), 37u);
        EXPECT_LE(hist.quantile(q), 10000u);
    }

    LatencyHistogram other;
    other.record(12);
    hist.merge(other);
    EXPECT_EQ(hist.min(), 12u);
    // Merging an empty histogram must not disturb the min (the
    // sentinel is not a value).
    LatencyHistogram empty;
    hist.merge(empty);
    EXPECT_EQ(hist.min(), 12u);

    hist.reset();
    EXPECT_EQ(hist.min(), 0u);
}

TEST(LatencyHistogram, MinMaxExactUnderConcurrentRecording)
{
    // Regression for the CAS-down min loop: with per-thread disjoint
    // value ranges, the global min/max must be the exact extremes, not
    // a torn or lost update. (Run under -DROCOCO_SANITIZE=thread this
    // also proves record() stays data-race-free with min tracking.)
    LatencyHistogram hist;
    constexpr unsigned kThreads = 8;
    constexpr uint64_t kPerThread = 20000;
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist, t] {
            // Thread t records in [1000*(t+1), 1000*(t+1) + kPerThread).
            const uint64_t base = 1000 * (uint64_t(t) + 1);
            for (uint64_t i = 0; i < kPerThread; ++i) {
                hist.record(base + i);
            }
        });
    }
    for (auto& thread : threads) thread.join();
    EXPECT_EQ(hist.count(), uint64_t(kThreads) * kPerThread);
    EXPECT_EQ(hist.min(), 1000u);
    EXPECT_EQ(hist.max(), 1000u * kThreads + kPerThread - 1);
}

TEST(Gauge, TracksLastMinMaxMean)
{
    Gauge gauge;
    EXPECT_EQ(gauge.samples(), 0u);
    gauge.set(4.0);
    gauge.set(1.0);
    gauge.set(7.0);
    EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
    EXPECT_DOUBLE_EQ(gauge.min(), 1.0);
    EXPECT_DOUBLE_EQ(gauge.max(), 7.0);
    EXPECT_DOUBLE_EQ(gauge.mean(), 4.0);
    EXPECT_EQ(gauge.samples(), 3u);
}

TEST(Registry, MergesPerThreadRegistriesExactly)
{
    // The RococoTm pattern: per-thread registries merged into a shared
    // one at thread_fini, with no double counting and no lost updates.
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 10000;
    std::vector<Registry> locals(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Registry& local = locals[static_cast<size_t>(t)];
            Counter& commits = local.counter("commits");
            LatencyHistogram& lat = local.histogram("latency_ns");
            for (uint64_t i = 0; i < kPerThread; ++i) {
                commits.add();
                lat.record(64 + i % 1024);
            }
            local.gauge("depth").set(static_cast<double>(t));
        });
    }
    for (auto& thread : threads) thread.join();

    Registry merged;
    for (const Registry& local : locals) merged.merge(local);
    EXPECT_EQ(merged.get("commits"), kThreads * kPerThread);
    EXPECT_EQ(merged.histogram("latency_ns").count(),
              kThreads * kPerThread);
    EXPECT_EQ(merged.gauge("depth").samples(),
              static_cast<uint64_t>(kThreads));
    EXPECT_DOUBLE_EQ(merged.gauge("depth").max(), kThreads - 1.0);
}

TEST(Registry, MergeCreatesZeroValuedCounters)
{
    // A merged snapshot lists every counter the source defines: one
    // that never moved must read as zero, not be missing.
    Registry source;
    source.counter("untouched");
    source.bump("moved", 2);
    Registry merged;
    merged.merge(source);
    std::ostringstream json;
    merged.to_json(json);
    EXPECT_NE(json.str().find("\"untouched\": 0"), std::string::npos)
        << json.str();
    EXPECT_EQ(merged.get("moved"), 2u);
}

TEST(Registry, CounterBagRoundTripSkipsZeros)
{
    Registry registry;
    CounterBag bag;
    bag.bump("aborts", 3);
    registry.add(bag);
    registry.bump("commits", 5);
    registry.counter("untouched"); // registered but zero
    const CounterBag out = registry.to_counter_bag();
    EXPECT_EQ(out.get("aborts"), 3u);
    EXPECT_EQ(out.get("commits"), 5u);
    EXPECT_EQ(out.counters().count("untouched"), 0u);
}

TEST(Registry, ConcurrentExportWhileWritersActive)
{
    // The flight-recorder / kSnapshot pattern: one thread repeatedly
    // exports (to_json + merge into a scratch registry) while writer
    // threads keep bumping counters, recording histograms and setting
    // gauges. Nothing to assert beyond "no crash, no torn registry" —
    // under TSan this is the data-race check for the registry's
    // internal locking.
    Registry registry;
    std::atomic<bool> stop{false};
    constexpr int kWriters = 4;
    std::vector<std::thread> writers;
    for (int t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
            Counter& hits = registry.counter("stress.hits");
            LatencyHistogram& lat = registry.histogram("stress.lat");
            uint64_t i = 0;
            // do-while: at least one write per thread even if the
            // exporter finishes its rounds before we are scheduled.
            do {
                hits.add(1);
                lat.record(64 + i % 4096);
                registry.gauge("stress.depth")
                    .set(static_cast<double>(t));
                // New names mid-flight: the map itself is contended,
                // not just the values.
                if (i % 1024 == 0) {
                    registry.counter("stress.dyn." +
                                     std::to_string(i % 8));
                }
                ++i;
            } while (!stop.load(std::memory_order_relaxed));
        });
    }
    Registry scratch;
    for (int round = 0; round < 200; ++round) {
        std::ostringstream out;
        registry.to_json(out);
        EXPECT_TRUE(json_well_formed(out.str()));
        scratch.reset();
        scratch.merge(registry);
        EXPECT_GE(scratch.get("stress.hits"), 0u);
    }
    stop.store(true);
    for (auto& writer : writers) writer.join();
    EXPECT_GT(registry.get("stress.hits"), 0u);
}

TEST(Registry, JsonAndCsvExportAreWellFormed)
{
    Registry registry;
    registry.bump("tm.commit", 42);
    registry.gauge("fpga.queue_depth").set(3.5);
    for (uint64_t i = 1; i <= 100; ++i) {
        registry.histogram("tm.attempt_ns.commit").record(i * 100);
    }
    std::ostringstream json;
    registry.to_json(json);
    EXPECT_TRUE(json_well_formed(json.str())) << json.str();
    EXPECT_NE(json.str().find("\"tm.commit\": 42"), std::string::npos)
        << json.str();
    EXPECT_NE(json.str().find("\"p99\""), std::string::npos);

    std::ostringstream csv;
    registry.to_csv(csv);
    EXPECT_NE(csv.str().find("counter,tm.commit,value,42"),
              std::string::npos)
        << csv.str();
}

TEST(Tracer, RingWrapsKeepingNewestEvents)
{
    TracerGuard guard;
    Tracer& tracer = Tracer::instance();
    tracer.set_thread_capacity(8);
    tracer.reset();
    tracer.start();
    for (uint64_t i = 0; i < 20; ++i) {
        TraceEvent event;
        event.name = "seq";
        event.arg_name = "seq";
        event.arg_value = i;
        event.ts_ns = i;
        event.phase = EventPhase::kCounter;
        tracer.record(event);
    }
    tracer.stop();
    const std::vector<TraceEvent> events = tracer.snapshot();
    ASSERT_EQ(events.size(), 8u);
    // The newest 8 of the 20 survive, oldest first.
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].arg_value, 12 + i);
    }
    EXPECT_GE(tracer.thread_count(), 1u);
}

TEST(Tracer, ExportsChromeEventArray)
{
    TracerGuard guard;
    Tracer& tracer = Tracer::instance();
    tracer.set_thread_capacity(64);
    tracer.reset();
    tracer.start();

    TraceEvent span;
    span.name = "tx.validate";
    span.cat = "tm";
    span.arg_name = "cid";
    span.arg_value = 7;
    span.ts_ns = 1000;
    span.dur_ns = 500;
    span.phase = EventPhase::kComplete;
    tracer.record(span);
    tracer.counter("queue_depth", 3);
    tracer.instant("tm", "tx.abort");
    tracer.stop();

    std::ostringstream out;
    tracer.export_chrome_events(out);
    const std::string text = out.str();
    EXPECT_TRUE(json_well_formed(text)) << text;
    EXPECT_EQ(text.front(), '[');
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(text.find("\"args\":{\"cid\":7}"), std::string::npos);
    // Timestamps are rebased to the earliest event and emitted in
    // microseconds: the span starts at ts 0.
    EXPECT_NE(text.find("\"ts\":0.000"), std::string::npos);
}

TEST(Tracer, CountsDroppedEventsWhenRingWraps)
{
    TracerGuard guard;
    Tracer& tracer = Tracer::instance();
    tracer.set_thread_capacity(8);
    tracer.reset();
    tracer.start();
    EXPECT_EQ(tracer.dropped_events(), 0u);
    for (uint64_t i = 0; i < 20; ++i) {
        TraceEvent event;
        event.name = "seq";
        event.ts_ns = i;
        event.phase = EventPhase::kInstant;
        tracer.record(event);
    }
    tracer.stop();
    // 20 pushed into a ring of 8: 12 overwritten.
    EXPECT_EQ(tracer.dropped_events(), 12u);
    tracer.reset();
    EXPECT_EQ(tracer.dropped_events(), 0u);
}

TEST(Tracer, ExportsFlowEventsWithSharedId)
{
    TracerGuard guard;
    Tracer& tracer = Tracer::instance();
    tracer.set_thread_capacity(64);
    tracer.reset();
    tracer.start();
    tracer.flow(EventPhase::kFlowStart, "svc", "svc.validate_flow",
                0xabcdef, 1000);
    tracer.flow(EventPhase::kFlowEnd, "svc", "svc.validate_flow",
                0xabcdef, 2000);
    tracer.stop();

    std::ostringstream out;
    tracer.export_chrome_events(out);
    const std::string text = out.str();
    EXPECT_TRUE(json_well_formed(text)) << text;
    EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos) << text;
    EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos) << text;
    // Both halves carry the binding id; the tail also binds to the
    // enclosing slice ("bp":"e"), which Perfetto needs to attach the
    // arrow to the receiving span rather than the one after it.
    const size_t first = text.find("\"id\":\"0xabcdef\"");
    ASSERT_NE(first, std::string::npos) << text;
    EXPECT_NE(text.find("\"id\":\"0xabcdef\"", first + 1), std::string::npos)
        << "both flow halves must carry the id";
    EXPECT_NE(text.find("\"bp\":\"e\""), std::string::npos);
}

TEST(TelemetrySession, SurfacesDroppedEventsAndMeta)
{
    TracerGuard guard;
    Tracer::instance().set_thread_capacity(4);
    const std::string path =
        testing::TempDir() + "obs_test_dropped.json";
    {
        TelemetrySession session(path);
#if ROCOCO_TRACE_ENABLED
        for (uint64_t i = 0; i < 10; ++i) {
            TRACE_INSTANT("test", "wrap.instant");
        }
#endif
        EXPECT_TRUE(session.finish());
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    EXPECT_TRUE(json_well_formed(text)) << text;
    // The meta envelope is always present...
    EXPECT_NE(text.find("\"meta\""), std::string::npos);
    EXPECT_NE(text.find("\"pid\""), std::string::npos);
    EXPECT_NE(text.find("\"base_time_ns\""), std::string::npos);
#if ROCOCO_TRACE_ENABLED
    // ...and the 6 events the 4-slot ring overwrote are accounted.
    EXPECT_NE(text.find("\"obs.trace.dropped\": 6"), std::string::npos)
        << text;
#endif
    std::remove(path.c_str());
}

TEST(TraceMacros, CompileAndGateOnTracerState)
{
    TracerGuard guard;
    Tracer& tracer = Tracer::instance();
    tracer.set_thread_capacity(64);
    tracer.reset();

    // Tracer stopped: macros must record nothing (and with
    // ROCOCO_TRACE=OFF they are not even compiled).
    {
        TRACE_SPAN("test", "span.idle");
        TRACE_SPAN_ARG("test", "span.idle_arg", "v", 1);
        TRACE_COUNTER("test.counter", 2);
        TRACE_INSTANT("test", "instant.idle");
    }
    EXPECT_EQ(tracer.snapshot().size(), 0u);

    tracer.start();
    {
        TRACE_SPAN("test", "span.active");
        ScopedSpan late("test", "span.late_arg");
        late.arg("cid", 9);
        TRACE_INSTANT("test", "instant.active");
    }
    tracer.stop();
#if ROCOCO_TRACE_ENABLED
    EXPECT_EQ(tracer.snapshot().size(), 3u);
#else
    EXPECT_EQ(tracer.snapshot().size(), 0u);
#endif
}

TEST(TelemetrySession, WritesCombinedFileAndGatesGlobalState)
{
    TracerGuard guard;
    const std::string path =
        testing::TempDir() + "obs_test_telemetry.json";

    EXPECT_FALSE(telemetry_active());
    {
        TelemetrySession inert("");
        EXPECT_FALSE(inert.active());
        EXPECT_FALSE(telemetry_active());
        EXPECT_TRUE(inert.finish());
    }

    TelemetrySession session(path);
    EXPECT_TRUE(session.active());
    EXPECT_TRUE(telemetry_active());
    // Per-reason counters must sum to the total for the file checker.
    Registry::global().bump("tm.abort", 2);
    Registry::global().bump(
        abort_counter_name(AbortReason::kValidationCycle), 2);
    Registry::global().bump("tm.commit", 5);
    {
        TRACE_SPAN("test", "session.span");
    }
    EXPECT_TRUE(session.finish());
    EXPECT_FALSE(telemetry_active());
    EXPECT_TRUE(session.finish()) << "finish must be idempotent";

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream content;
    content << in.rdbuf();
    const std::string text = content.str();
    EXPECT_TRUE(json_well_formed(text)) << text;
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"metrics\""), std::string::npos);
    EXPECT_NE(text.find("\"tm.commit\": 5"), std::string::npos);
    EXPECT_NE(text.find("\"tm.abort.validation-cycle\": 2"),
              std::string::npos);
#if ROCOCO_TRACE_ENABLED
    EXPECT_NE(text.find("session.span"), std::string::npos);
#endif
    std::remove(path.c_str());
}

std::string
read_file(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream content;
    content << in.rdbuf();
    return content.str();
}

TEST(FlightRecorder, ManualDumpWritesNumberedIncidentFiles)
{
    const std::string prefix = testing::TempDir() + "fr_manual";
    Registry source;
    source.bump("aborts", 3);
    FlightRecorderConfig config;
    config.output_prefix = prefix;
    FlightRecorder recorder(config,
                            [&](Registry& out) { out.merge(source); });

    const std::string first = recorder.dump("manual");
    EXPECT_EQ(first, prefix + "-1.json");
    const std::string second = recorder.dump("manual");
    EXPECT_EQ(second, prefix + "-2.json");
    EXPECT_EQ(recorder.dumps(), 2u);
    EXPECT_EQ(recorder.last_dump_path(), second);

    const std::string text = read_file(first);
    EXPECT_TRUE(json_well_formed(text)) << text;
    EXPECT_NE(text.find("\"trigger\": \"manual\""), std::string::npos);
    EXPECT_NE(text.find("\"seq\": 1"), std::string::npos);
    EXPECT_NE(text.find("\"aborts\": 3"), std::string::npos);
    // No topk source and no tracer: the stubs keep the schema whole.
    EXPECT_NE(text.find("\"topk\": {\"shards\": []}"), std::string::npos);
    EXPECT_NE(text.find("\"traceEvents\": []"), std::string::npos);
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(FlightRecorder, TopKSourceIsEmbeddedVerbatim)
{
    Registry source;
    FlightRecorderConfig config;
    config.output_prefix = testing::TempDir() + "fr_topk";
    FlightRecorder recorder(config,
                            [&](Registry& out) { out.merge(source); });
    recorder.set_topk_source([](std::string* out) {
        *out = "{\"shards\": [{\"shard\": 0, \"offered\": 7, "
               "\"entries\": [{\"key\": 42, \"count\": 7, \"error\": "
               "0}]}]}";
    });
    const std::string path = recorder.dump("manual");
    ASSERT_FALSE(path.empty());
    const std::string text = read_file(path);
    EXPECT_TRUE(json_well_formed(text)) << text;
    EXPECT_NE(text.find("\"key\": 42"), std::string::npos);
    std::remove(path.c_str());
}

TEST(TelemetrySession, StampsMonotonicExportSeqAndDroppedGauge)
{
    TracerGuard guard;
    const std::string path_a = testing::TempDir() + "obs_seq_a.json";
    const std::string path_b = testing::TempDir() + "obs_seq_b.json";
    {
        TelemetrySession session(path_a);
        EXPECT_TRUE(session.finish());
    }
    {
        TelemetrySession session(path_b);
        EXPECT_TRUE(session.finish());
    }
    auto export_seq = [](const std::string& text) -> long {
        const size_t at = text.find("\"export_seq\": ");
        EXPECT_NE(at, std::string::npos) << text;
        return at == std::string::npos
                   ? -1
                   : std::atol(text.c_str() + at + 14);
    };
    const std::string text_a = read_file(path_a);
    const std::string text_b = read_file(path_b);
    // Strictly increasing within the process, numbered from 1 — the
    // property merge_trace_json.py uses to reject stale duplicates.
    const long seq_a = export_seq(text_a);
    const long seq_b = export_seq(text_b);
    EXPECT_GE(seq_a, 1);
    EXPECT_GT(seq_b, seq_a);
    // The dropped gauge is exported even when zero, so --strict can
    // tell "no drops" from "nobody measured".
    EXPECT_NE(text_a.find("\"obs.trace.dropped_total\""),
              std::string::npos)
        << text_a;
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

} // namespace
} // namespace rococo::obs
