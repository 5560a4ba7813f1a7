/// @file
/// Flight recorder: the incident writer of the monitoring pipeline.
///
/// A FlightRecorder writes one timestamped JSON incident file per
/// dump(): a full metrics snapshot, the hot-key top-K table, the
/// health section (the HealthMonitor's sampler rings + SLO verdicts —
/// the "what did the system look like right before it went wrong"
/// look-back) and, optionally, the tracer ring contents. Dumps come
/// from two places: an SLO rule going critical (trigger
/// "slo:<rule>", wired by HealthMonitor::set_incident_recorder) and a
/// manual request (svcctl dump / the kDump wire op, trigger
/// "manual"). The recorder samples nothing and evaluates no rule of
/// its own. scripts/check_trace_json.py --incident validates the
/// files.
///
/// Threading: the recorder owns NO thread; dump() takes the lock and
/// may block briefly while the file is written.
///
/// Tracer caveat: including trace events (config.include_trace) reads
/// the per-thread rings without locking out their owners, exactly like
/// TelemetrySession export. It is only safe when dump() runs on the
/// (sole) span-writing thread or while writers are quiescent — true
/// for svc::Server, whose service thread records every server span and
/// also runs the monitor tick and kDump. Leave it off elsewhere.
///
/// Allocation: only dump() allocates; the request hot path never calls
/// into the recorder, so the zero-allocation envelope
/// (tests/hotpath_alloc_test.cc) is untouched.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/registry.h"

namespace rococo::obs {

struct FlightRecorderConfig
{
    /// Master switch — the "one config knob". Off: owners skip
    /// construction entirely.
    bool enabled = false;
    /// Incident files are written as "<output_prefix>-<seq>.json"
    /// (seq starts at 1), via a .tmp + rename so readers never see a
    /// partial file. Embed a pid in the prefix when several processes
    /// share a directory.
    std::string output_prefix = "incident";
    /// Include the tracer rings in incident files (see the caveat in
    /// the file comment).
    bool include_trace = false;
};

class FlightRecorder
{
  public:
    /// @p collect fills an empty registry with the current metrics
    /// (typically: merge the owner's registry, then export derived
    /// gauges). Called under the recorder lock at every dump.
    using Collector = std::function<void(Registry&)>;

    FlightRecorder(FlightRecorderConfig config, Collector collect);

    FlightRecorder(const FlightRecorder&) = delete;
    FlightRecorder& operator=(const FlightRecorder&) = delete;

    /// Serialized top-K JSON included in incidents (the ShardRouter's
    /// topk_json). Called under the recorder lock at dump time.
    void set_topk_source(std::function<void(std::string*)> source);

    /// Serialized health JSON embedded in every incident's "health"
    /// section (the HealthMonitor's status_json: sampler rings + SLO
    /// verdicts, so the offending series ships inside the incident
    /// file). Called under the recorder lock at dump time — the source
    /// must not call back into this recorder.
    void set_health_source(std::function<void(std::string*)> source);

    /// Write an incident file now. @p trigger names the cause in the
    /// file ("manual", "slo:<rule>"). Returns the final path, or "" on
    /// I/O failure.
    std::string dump(const char* trigger);

    uint64_t dumps() const;
    /// Path of the most recent incident file ("" if none yet).
    std::string last_dump_path() const;

  private:
    FlightRecorderConfig config_;
    Collector collect_;
    std::function<void(std::string*)> topk_source_;
    std::function<void(std::string*)> health_source_;

    mutable std::mutex mutex_;
    uint64_t dumps_ = 0;
    uint64_t next_seq_ = 1;
    std::string last_path_;
};

} // namespace rococo::obs
