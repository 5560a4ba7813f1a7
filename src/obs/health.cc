#include "obs/health.h"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>

namespace rococo::obs {

const char*
to_string(HealthState state)
{
    switch (state) {
    case HealthState::kOk: return "ok";
    case HealthState::kWarn: return "warn";
    case HealthState::kCritical: return "critical";
    }
    return "?";
}

SloEngine::SloEngine(SloEngineConfig config, const MetricSampler* sampler)
    : config_(std::move(config)), sampler_(sampler)
{
    for (const SloRule& rule : config_.rules) {
        if (rule.threshold <= 0.0) continue; // disabled
        const int series = sampler_->index_of(rule.series);
        if (series < 0) continue; // unknown series: rule off, not UB
        Rule r;
        r.rule = rule;
        r.series = series;
        r.transitions.resize(std::max<size_t>(config_.transition_capacity, 1));
        rules_.push_back(std::move(r));
    }
}

void
SloEngine::set_transition_hook(TransitionHook hook)
{
    std::lock_guard<std::mutex> lock(mutex_);
    hook_ = std::move(hook);
}

void
SloEngine::evaluate(uint64_t now_ns)
{
    // Transitions are collected under the lock and the hook fires after
    // release: the hook reaches into the FlightRecorder, whose dump path
    // re-enters us through the health source — holding our lock across
    // it would deadlock. The fixed buffer keeps the steady state (and
    // even a full transition sweep of a realistic rule set) heap-free.
    struct Fired
    {
        const SloRule* rule;
        HealthState from, to;
    };
    std::array<Fired, 16> fired;
    size_t n_fired = 0;
    TransitionHook hook;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        hook = hook_;
        for (Rule& r : rules_) {
            const WindowStat fast = sampler_->window(
                static_cast<size_t>(r.series), now_ns, r.rule.fast_window_ns);
            const WindowStat slow = sampler_->window(
                static_cast<size_t>(r.series), now_ns, r.rule.slow_window_ns);

            r.last.fast = fast.value;
            r.last.slow = slow.value;
            r.last.fast_weight = fast.weight;
            // "Sustained" requires the ring to actually cover the slow
            // window (half of it, at least): a two-sample burst must
            // not impersonate a 60 s burn right after startup.
            r.last.slow_covered = slow.points >= 2 &&
                                  slow.span_ns >= r.rule.slow_window_ns / 2;

            const bool has_traffic = fast.weight >= r.rule.min_weight;
            const bool fast_breach =
                has_traffic && fast.value >= r.rule.threshold;
            const bool slow_breach = r.last.slow_covered &&
                                     slow.weight >= r.rule.min_weight &&
                                     slow.value >= r.rule.threshold;

            HealthState target = HealthState::kOk;
            if (fast_breach) {
                target = slow_breach ? HealthState::kCritical
                                     : HealthState::kWarn;
            }

            HealthState next = r.state;
            if (target > r.state) {
                next = target; // escalate immediately
            } else if (target < r.state) {
                // De-escalate only after recovery_samples consecutive
                // calmer evaluations (hysteresis).
                if (++r.calm_evals >= std::max(1u, r.rule.recovery_samples)) {
                    next = target;
                }
            } else {
                r.calm_evals = 0;
            }
            if (next != r.state) {
                Transition t{now_ns, r.state, next};
                if (r.transition_size < r.transitions.size()) {
                    r.transitions[(r.transition_head + r.transition_size) %
                                  r.transitions.size()] = t;
                    ++r.transition_size;
                } else {
                    r.transitions[r.transition_head] = t;
                    r.transition_head =
                        (r.transition_head + 1) % r.transitions.size();
                }
                if (n_fired < fired.size()) {
                    fired[n_fired++] = {&r.rule, r.state, next};
                }
                r.state = next;
                r.calm_evals = 0;
            }
            r.last.state = r.state;
        }
    }
    if (hook) {
        for (size_t i = 0; i < n_fired; ++i) {
            hook(*fired[i].rule, fired[i].from, fired[i].to);
        }
    }
}

HealthState
SloEngine::overall() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    HealthState worst = HealthState::kOk;
    for (const Rule& r : rules_) worst = std::max(worst, r.state);
    return worst;
}

SloEngine::RuleStatus
SloEngine::status(size_t rule) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rules_[rule].last;
}

void
SloEngine::to_json(std::string* out) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    HealthState worst = HealthState::kOk;
    for (const Rule& r : rules_) worst = std::max(worst, r.state);
    char buf[192];
    std::snprintf(buf, sizeof buf, "{\"state\": \"%s\", \"rules\": [",
                  to_string(worst));
    *out += buf;
    for (size_t i = 0; i < rules_.size(); ++i) {
        const Rule& r = rules_[i];
        std::snprintf(
            buf, sizeof buf,
            "%s\n{\"name\": \"%s\", \"series\": \"%s\", \"state\": \"%s\", "
            "\"threshold\": %g, \"fast\": %g, \"slow\": %g, "
            "\"fast_weight\": %g, \"slow_covered\": %s, \"transitions\": [",
            i == 0 ? "" : ",", r.rule.name.c_str(), r.rule.series.c_str(),
            to_string(r.state), r.rule.threshold, r.last.fast, r.last.slow,
            r.last.fast_weight, r.last.slow_covered ? "true" : "false");
        *out += buf;
        for (size_t j = 0; j < r.transition_size; ++j) {
            const Transition& t =
                r.transitions[(r.transition_head + j) % r.transitions.size()];
            std::snprintf(buf, sizeof buf,
                          "%s{\"t_ns\": %" PRIu64
                          ", \"from\": \"%s\", \"to\": \"%s\"}",
                          j == 0 ? "" : ",", t.t_ns, to_string(t.from),
                          to_string(t.to));
            *out += buf;
        }
        *out += "]}";
    }
    *out += "\n]}";
}

HealthMonitor::HealthMonitor(MetricSamplerConfig sampler_config,
                             SloEngineConfig slo_config)
    : sampler_(std::move(sampler_config)),
      slo_(std::move(slo_config), &sampler_)
{
}

void
HealthMonitor::set_incident_recorder(FlightRecorder* recorder)
{
    if (recorder == nullptr) return;
    slo_.set_transition_hook([recorder](const SloRule& rule, HealthState,
                                        HealthState to) {
        if (to != HealthState::kCritical) return;
        // Allocation here is fine: transitions are rare by
        // construction (hysteresis), and the dump itself writes a file.
        const std::string trigger = "slo:" + rule.name;
        recorder->dump(trigger.c_str());
    });
    recorder->set_health_source(
        [this](std::string* out) { status_json(out); });
}

void
HealthMonitor::tick(uint64_t now_ns)
{
    if (sampler_.tick(now_ns)) slo_.evaluate(now_ns);
}

void
HealthMonitor::status_json(std::string* out) const
{
    *out += "{\"enabled\": true, \"health\": ";
    slo_.to_json(out);
    *out += ",\n\"samples\": ";
    sampler_.to_json(out);
    *out += "}";
}

} // namespace rococo::obs
