/// @file
/// Declarative service health: an SloEngine evaluates multi-window
/// burn-rate rules over MetricSampler rings and produces typed health
/// states with hysteresis.
///
/// Rule semantics (the classic fast/slow burn-rate pair):
///
///   * each rule watches one series and one threshold;
///   * the FAST window (default 5 s) aggregate breaching the threshold
///     means "something is spiking" — the rule goes kWarn;
///   * the SLOW window (default 60 s) aggregate *also* breaching —
///     with the ring actually covering at least half that window, so a
///     two-sample burst cannot impersonate a sustained burn — means
///     "and it is sustained" — the rule goes kCritical;
///   * ratio rules additionally require min_weight of denominator
///     traffic inside the fast window, so one abort in an idle second
///     cannot trip anything.
///
/// Escalation is immediate; de-escalation needs recovery_samples
/// consecutive calmer evaluations (hysteresis), so a flapping series
/// produces one incident, not one per oscillation.
///
/// The engine is the FlightRecorder's only automatic trigger: a
/// transition *into* kCritical fires an incident dump named
/// "slo:<rule>", and every incident (whatever its trigger) embeds the
/// sampler rings + rule verdicts via the recorder's health source — the
/// offending series ships inside the incident file.
///
/// HealthMonitor composes sampler + engine behind the single tick()
/// its owner already calls (svc::Server's poll loop). Steady-state
/// ticks are allocation-free; only a state transition (rare by
/// construction) allocates, in the dump path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/timeseries.h"

namespace rococo::obs {

enum class HealthState : uint8_t
{
    kOk = 0,
    kWarn = 1,
    kCritical = 2,
};

const char* to_string(HealthState state);

/// One burn-rate rule over one sampler series.
struct SloRule
{
    std::string name;   ///< incident trigger suffix ("slo:<name>")
    std::string series; ///< MetricSampler series name
    /// Breach boundary on the windowed aggregate (rate for counter
    /// series, ratio for ratio series, mean for sampled series).
    /// 0 disables the rule.
    double threshold = 0.0;
    uint64_t fast_window_ns = 5'000'000'000;  ///< 5 s
    uint64_t slow_window_ns = 60'000'000'000; ///< 60 s
    /// Minimum fast-window weight (denominator traffic for ratio
    /// rules, seconds for counter rules, points for sampled rules)
    /// before the rule may leave kOk.
    double min_weight = 1.0;
    /// Consecutive calmer evaluations required to de-escalate.
    unsigned recovery_samples = 3;
};

struct SloEngineConfig
{
    std::vector<SloRule> rules;
    /// Per-rule transition-history ring capacity (incident forensics:
    /// the ok -> warn -> critical path survives into the dump).
    size_t transition_capacity = 16;
};

class SloEngine
{
  public:
    /// @p sampler must outlive the engine; rules naming unknown series
    /// are dropped (a config typo disables a rule, never crashes a
    /// server).
    SloEngine(SloEngineConfig config, const MetricSampler* sampler);

    SloEngine(const SloEngine&) = delete;
    SloEngine& operator=(const SloEngine&) = delete;

    size_t rule_count() const { return rules_.size(); }

    /// Re-evaluate every rule against the sampler rings. Transitions
    /// are reported through the hook *after* the engine lock is
    /// released (so a hook may re-enter health_json / the recorder).
    void evaluate(uint64_t now_ns);

    /// Worst state across rules.
    HealthState overall() const;

    struct RuleStatus
    {
        HealthState state = HealthState::kOk;
        double fast = 0.0;        ///< fast-window aggregate
        double slow = 0.0;        ///< slow-window aggregate
        double fast_weight = 0.0; ///< fast-window traffic weight
        bool slow_covered = false;
    };
    RuleStatus status(size_t rule) const;
    const SloRule& rule(size_t i) const { return rules_[i].rule; }

    using TransitionHook = std::function<void(
        const SloRule&, HealthState from, HealthState to)>;
    void set_transition_hook(TransitionHook hook);

    /// {"state": "ok|warn|critical", "rules": [{"name", "series",
    ///  "state", "threshold", "fast", "slow", "fast_weight",
    ///  "transitions": [{"t_ns", "from", "to"}, ...]}, ...]}
    void to_json(std::string* out) const;

  private:
    struct Transition
    {
        uint64_t t_ns = 0;
        HealthState from = HealthState::kOk;
        HealthState to = HealthState::kOk;
    };
    struct Rule
    {
        SloRule rule;
        int series = -1;
        HealthState state = HealthState::kOk;
        unsigned calm_evals = 0; ///< consecutive evals below state
        RuleStatus last;
        std::vector<Transition> transitions; ///< ring, preallocated
        size_t transition_head = 0;
        size_t transition_size = 0;
    };

    SloEngineConfig config_;
    const MetricSampler* sampler_;
    TransitionHook hook_;
    mutable std::mutex mutex_;
    std::vector<Rule> rules_;
};

/// Owner-facing knobs for the default monitoring stack (the server's
/// ServerConfig::monitor). A threshold of 0 disables that rule; the
/// series are sampled regardless, so svcctl watch/monitor always have
/// data.
struct MonitorConfig
{
    /// Master switch, on by default (monitoring is the point of
    /// running a service). An armed flight recorder builds the monitor
    /// even when this is off: its incidents need the rings.
    bool enabled = true;
    uint64_t sample_period_ns = 250'000'000; // 250 ms
    size_t ring_capacity = 256;              ///< 64 s at 250 ms
    uint64_t fast_window_ns = 5'000'000'000;
    uint64_t slow_window_ns = 60'000'000'000;
    unsigned recovery_samples = 3;
    /// Abort-ratio rule (aborts / requests over the window).
    double abort_rate_threshold = 0.9;
    /// svc.stage.engine p99 rule, ns. 0 disables (latency budgets are
    /// deployment-specific).
    uint64_t p99_threshold_ns = 0;
    /// Queue-depth rule. 0 lets the owner pick a default (the server
    /// uses 90% of max_pending).
    double queue_threshold = 0.0;
    /// shard.imbalance rule (max/mean per-shard validations). 0
    /// disables (meaningless for a single shard).
    double imbalance_threshold = 0.0;
};

/// Sampler + engine behind one tick, with the FlightRecorder wiring.
class HealthMonitor
{
  public:
    HealthMonitor(MetricSamplerConfig sampler_config,
                  SloEngineConfig slo_config);

    MetricSampler& sampler() { return sampler_; }
    const MetricSampler& sampler() const { return sampler_; }
    SloEngine& slo() { return slo_; }
    const SloEngine& slo() const { return slo_; }

    /// Route SLO breaches into @p recorder: a transition into
    /// kCritical dumps an incident ("slo:<rule>"), and the recorder's
    /// health source is pointed at status_json() so *every* incident
    /// embeds the rings and verdicts. Call before ticking starts.
    void set_incident_recorder(FlightRecorder* recorder);

    /// Sample if due; on a fresh sample, re-evaluate the rules (and
    /// fire any armed incident hooks). Allocation-free steady state.
    void tick(uint64_t now_ns);

    /// {"now_ns": .., "health": <SloEngine::to_json>,
    ///  "series": <MetricSampler::to_json>} — the "monitor" section of
    /// the kSnapshot reply and the incident "health" section.
    void status_json(std::string* out) const;

  private:
    MetricSampler sampler_;
    SloEngine slo_;
};

} // namespace rococo::obs
