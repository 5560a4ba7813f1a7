#include "obs/flight_recorder.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <unistd.h>

#include "obs/clock.h"
#include "obs/tracer.h"

namespace rococo::obs {

FlightRecorder::FlightRecorder(FlightRecorderConfig config, Collector collect)
    : config_(std::move(config)), collect_(std::move(collect))
{
}

void
FlightRecorder::set_topk_source(std::function<void(std::string*)> source)
{
    std::lock_guard<std::mutex> lock(mutex_);
    topk_source_ = std::move(source);
}

void
FlightRecorder::set_health_source(std::function<void(std::string*)> source)
{
    std::lock_guard<std::mutex> lock(mutex_);
    health_source_ = std::move(source);
}

std::string
FlightRecorder::dump(const char* trigger)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t now_ns = obs::now_ns();
    const uint64_t seq = next_seq_++;
    char buf[192];
    std::string path = config_.output_prefix;
    std::snprintf(buf, sizeof buf, "-%" PRIu64 ".json", seq);
    path += buf;
    const std::string tmp = path + ".tmp";

    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return {};

    std::snprintf(buf, sizeof buf,
                  "{\n\"incident\": {\"trigger\": \"%s\", \"pid\": %d, "
                  "\"seq\": %" PRIu64 ", \"t_ns\": %" PRIu64 "},\n",
                  trigger, static_cast<int>(::getpid()), seq, now_ns);
    out << buf;

    Registry metrics;
    if (collect_) collect_(metrics);
    out << "\"metrics\": ";
    metrics.to_json(out);
    out << ",\n\"topk\": ";
    if (topk_source_) {
        std::string topk;
        topk_source_(&topk);
        out << topk;
    } else {
        out << "{\"shards\": []}";
    }

    out << ",\n\"health\": ";
    if (health_source_) {
        std::string health;
        health_source_(&health);
        out << health;
    } else {
        out << "{}";
    }

    out << ",\n\"traceEvents\": ";
    if (config_.include_trace && Tracer::instance().active()) {
        // Safe only on the span-writing thread / under quiescence — see
        // the header caveat. export_chrome_events emits the full array.
        Tracer::instance().export_chrome_events(out, nullptr);
    } else {
        out << "[]";
    }
    out << "\n}\n";
    out.close();
    if (!out) {
        std::remove(tmp.c_str());
        return {};
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return {};
    }
    ++dumps_;
    last_path_ = path;
    return path;
}

uint64_t
FlightRecorder::dumps() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dumps_;
}

std::string
FlightRecorder::last_dump_path() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return last_path_;
}

} // namespace rococo::obs
