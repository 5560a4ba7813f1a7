/// svcctl — live operator CLI for a running validation service
/// (src/svc). Speaks the kSnapshot wire op: the server answers with one
/// JSON operator view, {"metrics": ..., "monitor": ..., "topk": ...},
/// without an engine pass and without counting against the
/// pending-request queue, so poking a loaded — even saturated — server
/// is always safe (tests/svc_test.cc pins that down). Every command
/// below costs one kSnapshot round trip per view, except dump.
///
/// Usage:
///   svcctl [--socket=PATH] stats [--hist=NAME] [--shards] [--top]
///       Without a section flag, print the raw snapshot JSON. Each flag
///       formats one section instead:
///         --hist=NAME  one histogram's summary line (count/mean/min/
///                      max/p50/p90/p99), e.g. NAME = svc.stage.engine;
///                      exits 1 when no histogram has that name;
///         --shards     the per-shard breakdown of a sharded server
///                      (validations, aborts, window occupancy per
///                      shard, plus the cross-shard fraction and the
///                      load-imbalance factor);
///         --top        the per-shard hot-key table (the space-saving
///                      top-K sketch fed from conflicting addresses;
///                      empty unless the server was built with
///                      -DROCOCO_FORENSICS=ON and samples conflicts).
///   svcctl [--socket=PATH] watch [--interval-ms=1000] [--count=0]
///                                [--once]
///       Live terminal dashboard: overall health badge, per-rule SLO
///       burn-rate table, per-series last/rate plus a sparkline over
///       the sampler ring, and the conflict hot-key line. Refreshes in
///       place on a tty; count=0 runs until interrupted. A lost
///       connection (server restart) is survived: watch reconnects
///       with bounded exponential backoff and resumes, only giving up
///       when the server stays unreachable through the whole backoff
///       budget. --once prints a single frame without reconnecting and
///       exits 3 when any SLO rule is critical (0 otherwise), so
///       scripts can use it as a health probe.
///   svcctl [--socket=PATH] dump
///       Ask the server's flight recorder for a manual incident dump;
///       prints the server-side path of the incident file. Fails (exit
///       1) when the server runs without a recorder.
///
/// Exit status: 0 on success, 1 on connection/protocol failure, 2 on
/// usage errors, 3 for `watch --once` observing a critical health
/// state. (common/cli.h rejects positional arguments, so this tool
/// parses argv by hand.)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "svc/wire.h"

namespace {

using rococo::svc::FrameReader;
using rococo::svc::MsgType;

void
usage(FILE* out)
{
    std::fprintf(out,
                 "usage: svcctl [--socket=PATH] stats [--hist=NAME]"
                 " [--shards] [--top]\n"
                 "       svcctl [--socket=PATH] watch [--interval-ms=N]"
                 " [--count=N] [--once]\n"
                 "       svcctl [--socket=PATH] dump\n");
}

int
connect_server(const std::string& path)
{
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        close(fd);
        return -1;
    }
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        close(fd);
        return -1;
    }
    return fd;
}

/// One control round trip on an established connection: send an empty
/// @p request frame, wait for the first frame of type @p reply_type,
/// hand its payload back. Returns false on any transport or protocol
/// failure.
bool
round_trip(int fd, MsgType request, MsgType reply_type,
           std::string& json_out)
{
    std::vector<uint8_t> frame;
    rococo::svc::encode_control(frame, request);
    size_t off = 0;
    while (off < frame.size()) {
        const ssize_t n =
            send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        off += static_cast<size_t>(n);
    }
    FrameReader reader;
    uint8_t buf[64 * 1024];
    for (;;) {
        const ssize_t n = recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) return false;
        reader.append(buf, static_cast<size_t>(n));
        bool malformed = false;
        while (auto got = reader.next(&malformed)) {
            if (got->type != reply_type) continue;
            json_out.assign(reinterpret_cast<const char*>(got->payload),
                            got->size);
            return true;
        }
        if (malformed) return false;
    }
}

/// The kSnapshot reply, split into its three sections.
struct Snapshot
{
    std::string raw;
    std::string metrics; ///< Registry::to_json of service + shard metrics
    std::string monitor; ///< HealthMonitor::status_json (or the stub)
    std::string topk;    ///< ShardRouter::topk_json
};

/// Split @p snap.raw at its fixed top-level keys: server.cc writes
/// them in this order, each after a ",\n". Not a general JSON parser.
bool
split_snapshot(Snapshot& snap)
{
    static constexpr std::string_view kMetrics = "{\"metrics\": ";
    static constexpr std::string_view kMonitor = ",\n\"monitor\": ";
    static constexpr std::string_view kTopk = ",\n\"topk\": ";
    const std::string& raw = snap.raw;
    const size_t monitor_at = raw.find(kMonitor);
    const size_t topk_at = raw.find(kTopk, monitor_at);
    if (raw.compare(0, kMetrics.size(), kMetrics) != 0 ||
        topk_at == std::string::npos || raw.back() != '}') {
        return false;
    }
    const size_t monitor = monitor_at + kMonitor.size();
    const size_t topk = topk_at + kTopk.size();
    snap.metrics = raw.substr(kMetrics.size(), monitor_at - kMetrics.size());
    snap.monitor = raw.substr(monitor, topk_at - monitor);
    snap.topk = raw.substr(topk, raw.size() - 1 - topk);
    return true;
}

/// Connect, fetch one snapshot and split it. Prints the failure and
/// returns false on any error.
bool
fetch_snapshot(const std::string& socket_path, Snapshot& snap)
{
    const int fd = connect_server(socket_path);
    if (fd < 0) {
        std::fprintf(stderr, "svcctl: cannot connect to %s\n",
                     socket_path.c_str());
        return false;
    }
    const bool ok =
        round_trip(fd, MsgType::kSnapshot, MsgType::kSnapshotReply, snap.raw);
    close(fd);
    if (!ok || !split_snapshot(snap)) {
        std::fprintf(stderr, "svcctl: snapshot request failed\n");
        return false;
    }
    return true;
}

/// Extract `"name": <value-or-object>` from the snapshot JSON. Good
/// enough for the exporter's fixed, non-nested format (registry.cc);
/// not a general JSON parser.
bool
extract_value(const std::string& json, const std::string& name,
              std::string& out)
{
    const std::string key = "\"" + name + "\":";
    const size_t at = json.find(key);
    if (at == std::string::npos) return false;
    size_t pos = at + key.size();
    while (pos < json.size() && json[pos] == ' ') ++pos;
    if (pos >= json.size()) return false;
    if (json[pos] == '{') {
        const size_t end = json.find('}', pos);
        if (end == std::string::npos) return false;
        out = json.substr(pos, end - pos + 1);
        return true;
    }
    size_t end = pos;
    while (end < json.size() && json[end] != ',' && json[end] != '\n' &&
           json[end] != '}') {
        ++end;
    }
    out = json.substr(pos, end - pos);
    return true;
}

double
extract_number(const std::string& json, const std::string& name)
{
    std::string text;
    if (!extract_value(json, name, text)) return 0.0;
    // Gauges nest the value: {"last": X, ...}.
    if (!text.empty() && text[0] == '{') {
        const size_t at = text.find("\"last\":");
        if (at == std::string::npos) return 0.0;
        return std::atof(text.c_str() + at + 7);
    }
    return std::atof(text.c_str());
}

// ---- "monitor" section parsing ----------------------------------------
//
// The section is {"enabled": B, "health": {...}, "samples": {...}} with
// fixed key order (obs/health.cc, obs/timeseries.cc): every rule and
// every series object starts on its own line with {"name": "..." and
// ends at the first "]}" after it (the transitions / points array
// close). A linear scan is enough; this is not a general JSON parser.

/// Split the section into its health and samples parts so rule and
/// series objects (which share the {"name": ... shape) don't mix.
void
split_monitor(const std::string& json, std::string& health,
                   std::string& samples)
{
    const size_t at = json.find("\"samples\":");
    if (at == std::string::npos) {
        health = json;
        samples.clear();
        return;
    }
    health = json.substr(0, at);
    samples = json.substr(at);
}

/// All {"name": ...}-objects in a section, one per entry.
std::vector<std::string>
split_named_objects(const std::string& section)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while ((pos = section.find("\n{\"name\": \"", pos)) !=
           std::string::npos) {
        const size_t end = section.find("]}", pos);
        if (end == std::string::npos) break;
        out.push_back(section.substr(pos + 1, end + 2 - (pos + 1)));
        pos = end;
    }
    return out;
}

/// `"name": <number>` from one object; false when missing or null
/// (a counter/ratio series has rate null until two samples exist).
bool
extract_opt_number(const std::string& obj, const std::string& name,
                   double* out)
{
    std::string text;
    if (!extract_value(obj, name, text)) return false;
    if (text.compare(0, 4, "null") == 0) return false;
    *out = std::atof(text.c_str());
    return true;
}

std::string
extract_string(const std::string& obj, const std::string& name)
{
    std::string text;
    if (!extract_value(obj, name, text)) return "";
    // Strip the quotes: extract_value hands back "value" verbatim.
    if (text.size() >= 2 && text.front() == '"') {
        const size_t close = text.find('"', 1);
        if (close != std::string::npos) return text.substr(1, close - 1);
    }
    return text;
}

/// The per-point values of one series object's ring ([t, raw, value]
/// triples; null values — unprimed deltas — are skipped).
std::vector<double>
parse_point_values(const std::string& obj)
{
    std::vector<double> values;
    const size_t at = obj.find("\"points\": [");
    if (at == std::string::npos) return values;
    size_t pos = at + 11;
    while ((pos = obj.find('[', pos)) != std::string::npos) {
        const size_t close = obj.find(']', pos);
        if (close == std::string::npos) break;
        const std::string triple = obj.substr(pos + 1, close - pos - 1);
        const size_t c1 = triple.find(',');
        const size_t c2 =
            c1 == std::string::npos ? c1 : triple.find(',', c1 + 1);
        if (c2 != std::string::npos &&
            triple.find("null", c2) == std::string::npos) {
            values.push_back(std::atof(triple.c_str() + c2 + 1));
        }
        pos = close + 1;
    }
    return values;
}

/// Render up to the last @p width point values as a unicode sparkline.
std::string
sparkline(const std::vector<double>& values, size_t width)
{
    static const char* kBars[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
    if (values.empty()) return "";
    const size_t first = values.size() > width ? values.size() - width : 0;
    double lo = values[first];
    double hi = values[first];
    for (size_t i = first; i < values.size(); ++i) {
        lo = std::min(lo, values[i]);
        hi = std::max(hi, values[i]);
    }
    std::string out;
    for (size_t i = first; i < values.size(); ++i) {
        const double span = hi - lo;
        const int level =
            span <= 0.0 ? 0
                        : static_cast<int>((values[i] - lo) / span * 7.0);
        out += kBars[std::clamp(level, 0, 7)];
    }
    return out;
}

/// Humanize a sample value: large magnitudes collapse to k/M/G so the
/// dashboard columns stay aligned (latencies arrive in nanoseconds).
std::string
format_value(double v)
{
    char buf[32];
    const double a = std::fabs(v);
    if (a >= 1e9) {
        std::snprintf(buf, sizeof buf, "%.2fG", v / 1e9);
    } else if (a >= 1e6) {
        std::snprintf(buf, sizeof buf, "%.2fM", v / 1e6);
    } else if (a >= 1e4) {
        std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
    } else if (a == std::floor(a)) {
        std::snprintf(buf, sizeof buf, "%.0f", v);
    } else {
        std::snprintf(buf, sizeof buf, "%.3f", v);
    }
    return buf;
}

/// `stats --hist=NAME`: one histogram's summary line. Only the
/// "histograms" block is searched, so a gauge of the same name (also
/// an object) does not pass for a histogram.
bool
print_hist(const std::string& metrics, const std::string& name)
{
    const size_t at = metrics.find("\"histograms\":");
    std::string value;
    if (at == std::string::npos ||
        !extract_value(metrics.substr(at), name, value) || value.empty() ||
        value[0] != '{') {
        std::fprintf(stderr, "svcctl: no histogram named %s\n",
                     name.c_str());
        return false;
    }
    std::printf("%s: %s\n", name.c_str(), value.c_str());
    return true;
}

/// `stats --shards`: the per-shard breakdown.
bool
print_shards(const std::string& metrics)
{
    std::string probe;
    if (!extract_value(metrics, "shard.0.validations", probe)) {
        std::fprintf(stderr, "svcctl: server exports no shard metrics\n");
        return false;
    }
    std::printf("%8s %14s %12s %12s\n", "shard", "validations", "aborts",
                "window");
    for (unsigned s = 0;; ++s) {
        const std::string prefix = "shard." + std::to_string(s);
        if (!extract_value(metrics, prefix + ".validations", probe)) break;
        std::printf("%8u %14.0f %12.0f %12.0f\n", s,
                    extract_number(metrics, prefix + ".validations"),
                    extract_number(metrics, prefix + ".aborts"),
                    extract_number(metrics, prefix + ".occupancy"));
    }
    std::printf("cross-shard: %.0f of %.0f (fraction %.4f), imbalance %.3f\n",
                extract_number(metrics, "shard.cross"),
                extract_number(metrics, "shard.validations"),
                extract_number(metrics, "shard.cross_fraction"),
                extract_number(metrics, "shard.imbalance"));
    return true;
}

/// Formatted view of the "topk" section. Its shape is fixed by
/// ShardRouter::topk_json — {"shards": [{"shard": S, "offered": N,
/// "entries": [{"key": K, "count": C, "error": E}, ...]}, ...]} — so a
/// linear scan is enough; this is not a general JSON parser.
void
print_topk_table(const std::string& json)
{
    std::printf("%8s %20s %12s %12s\n", "shard", "key", "count", "error");
    size_t pos = 0;
    size_t rows = 0;
    long shard = -1;
    for (;;) {
        const size_t shard_at = json.find("\"shard\":", pos);
        const size_t key_at = json.find("\"key\":", pos);
        if (key_at == std::string::npos) break;
        if (shard_at != std::string::npos && shard_at < key_at) {
            shard = std::atol(json.c_str() + shard_at + 8);
            pos = shard_at + 8;
            continue;
        }
        const size_t count_at = json.find("\"count\":", key_at);
        const size_t error_at = json.find("\"error\":", key_at);
        if (count_at == std::string::npos || error_at == std::string::npos) {
            break;
        }
        std::printf("%8ld %20llu %12llu %12llu\n", shard,
                    static_cast<unsigned long long>(
                        std::strtoull(json.c_str() + key_at + 6, nullptr, 10)),
                    static_cast<unsigned long long>(std::strtoull(
                        json.c_str() + count_at + 8, nullptr, 10)),
                    static_cast<unsigned long long>(std::strtoull(
                        json.c_str() + error_at + 8, nullptr, 10)));
        ++rows;
        pos = error_at + 8;
    }
    if (rows == 0) {
        std::printf("(no hot keys recorded — forensics sampling off, or no"
                    " conflicts yet)\n");
    }
}

int
cmd_stats(const std::string& socket_path, const std::string& hist,
          bool shards, bool top)
{
    Snapshot snap;
    if (!fetch_snapshot(socket_path, snap)) return 1;
    if (hist.empty() && !shards && !top) {
        std::printf("%s\n", snap.raw.c_str());
        return 0;
    }
    bool ok = true;
    if (!hist.empty()) ok = print_hist(snap.metrics, hist) && ok;
    if (shards) ok = print_shards(snap.metrics) && ok;
    if (top) print_topk_table(snap.topk);
    return ok ? 0 : 1;
}

int
cmd_dump(const std::string& socket_path)
{
    const int fd = connect_server(socket_path);
    if (fd < 0) {
        std::fprintf(stderr, "svcctl: cannot connect to %s\n",
                     socket_path.c_str());
        return 1;
    }
    std::string json;
    const bool ok = round_trip(fd, MsgType::kDump, MsgType::kDumpReply, json);
    close(fd);
    if (!ok) {
        std::fprintf(stderr, "svcctl: dump request failed\n");
        return 1;
    }
    std::printf("%s\n", json.c_str());
    // {"ok": true, "path": "..."} on success; {"ok": false, ...} when
    // the server has no recorder or the write failed.
    return json.find("\"ok\": true") != std::string::npos ? 0 : 1;
}

/// Render one dashboard frame from the "monitor" section (plus the
/// "topk" section for the hot-key line). Returns the overall health
/// state string so the caller can derive the --once exit status.
std::string
print_monitor_frame(const std::string& monitor_json,
                    const std::string& topk_json)
{
    std::string health;
    std::string samples;
    split_monitor(monitor_json, health, samples);
    const std::string overall = extract_string(health, "state");

    char clock[32] = "";
    const std::time_t now = std::time(nullptr);
    std::tm tm_buf{};
    if (localtime_r(&now, &tm_buf) != nullptr) {
        std::strftime(clock, sizeof clock, "%H:%M:%S", &tm_buf);
    }
    std::printf("rococo monitor  %s   health: %s\n", clock,
                overall.empty() ? "?" : overall.c_str());

    const std::vector<std::string> rules = split_named_objects(health);
    if (!rules.empty()) {
        std::printf("\n%-16s %-24s %-9s %10s %10s %10s\n", "rule", "series",
                    "state", "threshold", "fast", "slow");
        for (const std::string& rule : rules) {
            double threshold = 0.0;
            double fast = 0.0;
            double slow = 0.0;
            extract_opt_number(rule, "threshold", &threshold);
            extract_opt_number(rule, "fast", &fast);
            extract_opt_number(rule, "slow", &slow);
            std::printf("%-16s %-24s %-9s %10s %10s %10s\n",
                        extract_string(rule, "name").c_str(),
                        extract_string(rule, "series").c_str(),
                        extract_string(rule, "state").c_str(),
                        format_value(threshold).c_str(),
                        format_value(fast).c_str(),
                        format_value(slow).c_str());
        }
    }

    const std::vector<std::string> series = split_named_objects(samples);
    std::printf("\n%-24s %10s %12s  %s\n", "series", "last", "rate",
                "trend");
    for (const std::string& s : series) {
        double last = 0.0;
        double rate = 0.0;
        const bool has_last = extract_opt_number(s, "last", &last);
        const bool has_rate = extract_opt_number(s, "rate", &rate);
        const std::string kind = extract_string(s, "kind");
        // Rate is per-second only for counter series; for the sampled
        // kinds (gauge/quantile/callback/ratio) the windowed value is
        // the level itself, which "last" already shows.
        std::string rate_text = "-";
        if (has_rate && kind == "counter") {
            rate_text = format_value(rate) + "/s";
        } else if (has_rate && kind == "ratio") {
            rate_text = format_value(rate);
        }
        std::printf("%-24s %10s %12s  %s\n",
                    extract_string(s, "name").c_str(),
                    has_last ? format_value(last).c_str() : "-",
                    rate_text.c_str(),
                    sparkline(parse_point_values(s), 32).c_str());
    }
    if (series.empty()) {
        std::printf("(server runs without a monitor — start it with"
                    " monitor.enabled)\n");
    }

    // Hot keys, compressed to one line (full table: svcctl stats --top).
    std::printf("\nhot keys:");
    size_t shown = 0;
    size_t pos = 0;
    while (shown < 6) {
        const size_t key_at = topk_json.find("\"key\":", pos);
        if (key_at == std::string::npos) break;
        const size_t count_at = topk_json.find("\"count\":", key_at);
        if (count_at == std::string::npos) break;
        std::printf(" %llu(%llu)",
                    static_cast<unsigned long long>(std::strtoull(
                        topk_json.c_str() + key_at + 6, nullptr, 10)),
                    static_cast<unsigned long long>(std::strtoull(
                        topk_json.c_str() + count_at + 8, nullptr, 10)));
        ++shown;
        pos = count_at + 8;
    }
    std::printf("%s\n", shown == 0 ? " (none)" : "");
    return overall;
}

int
cmd_watch(const std::string& socket_path, unsigned interval_ms,
          unsigned count, bool once)
{
    // One persistent connection: watch must observe the server, not
    // perturb it with a connect/close churn per frame. A failed round
    // trip means the server went away (restart, crash); instead of
    // dying with it, reconnect with bounded exponential backoff and
    // retry the same frame — only a server that stays down through the
    // whole backoff budget ends the watch. --once is a probe: it fails
    // at once instead of waiting for the server.
    constexpr unsigned kBackoffStartMs = 50;
    constexpr unsigned kBackoffCapMs = 2000;
    constexpr unsigned kMaxAttempts = 60;
    auto reconnect = [&]() -> int {
        unsigned backoff_ms = kBackoffStartMs;
        for (unsigned attempt = 0; attempt < kMaxAttempts; ++attempt) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff_ms));
            const int fd = connect_server(socket_path);
            if (fd >= 0) return fd;
            backoff_ms = std::min(backoff_ms * 2, kBackoffCapMs);
        }
        return -1;
    };
    int fd = connect_server(socket_path);
    if (fd < 0 && !once) {
        std::fprintf(stderr, "svcctl: waiting for %s\n",
                     socket_path.c_str());
        fd = reconnect();
    }
    if (fd < 0) {
        std::fprintf(stderr, "svcctl: cannot connect to %s\n",
                     socket_path.c_str());
        return 1;
    }
    const bool tty = isatty(STDOUT_FILENO) != 0;
    int status = 0;
    for (unsigned i = 0; count == 0 || i < count;) {
        Snapshot snap;
        if (!round_trip(fd, MsgType::kSnapshot, MsgType::kSnapshotReply,
                        snap.raw)) {
            close(fd);
            if (once) {
                std::fprintf(stderr, "svcctl: snapshot request failed\n");
                return 1;
            }
            std::fprintf(stderr, "svcctl: connection lost, reconnecting\n");
            fd = reconnect();
            if (fd < 0) {
                std::fprintf(stderr, "svcctl: server did not come back\n");
                return 1;
            }
            continue; // retry this frame on the fresh connection
        }
        if (!split_snapshot(snap)) {
            close(fd);
            std::fprintf(stderr, "svcctl: malformed snapshot reply\n");
            return 1;
        }
        if (tty && !once) {
            std::printf("\033[H\033[J"); // home + clear: redraw in place
        }
        const std::string overall =
            print_monitor_frame(snap.monitor, snap.topk);
        std::fflush(stdout);
        status = overall == "critical" ? 3 : 0;
        ++i;
        if (count == 0 || i < count) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(interval_ms));
        }
    }
    close(fd);
    return once ? status : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string socket_path = "/tmp/rococo_svc.sock";
    unsigned interval_ms = 1000;
    unsigned count = 0;
    std::string command;
    std::string hist;
    bool shards = false;
    bool top = false;
    bool once = false;
    bool extra_operand = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value_of = [&](const char* flag) -> const char* {
            const size_t len = std::strlen(flag);
            if (arg.compare(0, len, flag) != 0) return nullptr;
            if (arg.size() > len && arg[len] == '=') {
                return arg.c_str() + len + 1;
            }
            return nullptr;
        };
        if (const char* v = value_of("--socket")) {
            socket_path = v;
        } else if (const char* v = value_of("--interval-ms")) {
            interval_ms = static_cast<unsigned>(std::atoi(v));
        } else if (const char* v = value_of("--count")) {
            count = static_cast<unsigned>(std::atoi(v));
        } else if (const char* v = value_of("--hist")) {
            hist = v;
        } else if (arg == "--hist" && i + 1 < argc) {
            hist = argv[++i];
        } else if (arg == "--shards") {
            shards = true;
        } else if (arg == "--top") {
            top = true;
        } else if (arg == "--once") {
            once = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "svcctl: unknown flag %s\n", arg.c_str());
            usage(stderr);
            return 2;
        } else if (command.empty()) {
            command = arg;
        } else {
            extra_operand = true;
        }
    }

    if (!extra_operand && command == "stats") {
        return cmd_stats(socket_path, hist, shards, top);
    }
    if (!extra_operand && command == "watch") {
        if (interval_ms == 0) interval_ms = 1;
        return cmd_watch(socket_path, interval_ms, once ? 1 : count, once);
    }
    if (!extra_operand && command == "dump") {
        return cmd_dump(socket_path);
    }
    usage(stderr);
    return 2;
}
