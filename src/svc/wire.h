/// @file
/// Binary wire protocol of the networked validation service: the
/// software analogue of the cacheline-formatted messages the paper
/// ships over the CCI pull/push queues (§5.3). One request frame
/// carries what OffloadRequest carries in-process — the read/write
/// address sets (from which the server-side Detector builds bloom
/// signatures, exactly as the hardware does) plus the snapshot metadata
/// (ValidTS) — and one response frame carries a core::ValidationResult:
/// verdict, cid, typed obs::AbortReason.
///
/// Layout (all integers little-endian, no padding):
///
///   frame      := u32 payload_len | u8 type | payload
///   request2   := u64 request_id | u64 snapshot_cid | u64 deadline_ns
///                 | u64 trace_id | u64 parent_span_id
///                 | u32 n_reads | u32 n_writes
///                 | u64 reads[n_reads] | u64 writes[n_writes]
///   response2  := u64 request_id | u8 verdict | u8 reason | u64 cid
///                 | u64 server_queue_ns | u64 batch_wait_ns
///                 | u64 engine_ns | u64 link_ns | u64 conflict_cid
///   snapshot   := (empty)
///   snapreply  := raw JSON bytes: {"metrics": <Registry snapshot>,
///                 "monitor": <HealthMonitor status; {"enabled": false,
///                 ...} when the server runs without a monitor>,
///                 "topk": <the router's conflict top-K table>}
///   dump       := (empty)
///   dumpreply  := raw JSON bytes ({"ok": bool, "path"|"error": str})
///
/// Versioning: only the v2 request/response pair exists. Every peer is
/// built from this repository, so the v1 frames (type bytes 1 and 2)
/// were dropped; they now take the unknown-type path — malformed, the
/// connection closes. v2 carries the trace context (trace_id/
/// parent_span_id, 0 = none) used to flow-link client and server spans
/// across the process boundary, the per-stage server-side timing
/// breakdown (StageTimestamps) in the response, and the abort
/// provenance field (conflict_cid — the committed transaction a
/// kAbortCycle verdict collided with; core::kNoConflictCid when the
/// abort names no commit). The two control ops (kSnapshot, the one
/// read-only operator view, and kDump, the one action) are strictly
/// opt-in request/reply pairs: a server only ever sends a reply type
/// the peer just asked for. The control types were renumbered when
/// the per-section ops were folded into kSnapshot; the retired type
/// bytes (9-14) take the unknown-type path like 1 and 2.
///
/// deadline_ns is *relative* to server arrival (0 = none): processes on
/// the same host share the monotonic clock, but a relative deadline
/// also survives clock-domain changes if the transport ever crosses
/// hosts, so absolute timestamps never go on the wire. The same rule
/// holds for StageTimestamps: durations only, never wall-clock points.
///
/// The decoder is defensive: a frame that is malformed (bad type,
/// payload length disagreeing with the counts, oversized address sets)
/// yields nullopt and the server closes the connection — a misbehaving
/// client can never make the server allocate unbounded memory (the
/// other half of that guarantee is the server's per-connection outbound
/// cap, ServerConfig::max_out_bytes). The client library enforces
/// kMaxAddresses before encoding: an oversized request is resolved as
/// rejected locally instead of being sent as a frame the server would
/// treat as malformed, which would poison the whole connection.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sliding_window.h"
#include "fpga/detector.h"

namespace rococo::svc {

/// Frame type tags. 1 and 2 (the retired v1 request/response) are
/// unknown types, like anything above kDumpReply.
enum class MsgType : uint8_t
{
    kRequestV2 = 3,     ///< request + trace context
    kResponseV2 = 4,    ///< response + StageTimestamps
    kSnapshot = 5,      ///< operator-view request (empty payload)
    kSnapshotReply = 6, ///< metrics + monitor + topk (raw JSON payload)
    kDump = 7,          ///< flight-recorder dump request (empty payload)
    kDumpReply = 8,     ///< dump reply (raw JSON: ok + path or error)
};

/// Fixed header preceding every payload.
inline constexpr size_t kFrameHeaderBytes = 5; // u32 len + u8 type

/// Upper bound on addresses per set — a sanity bound far above any real
/// transaction footprint, protecting the server from garbage lengths.
inline constexpr uint32_t kMaxAddresses = 1u << 20;

/// Largest payload a well-formed frame can carry (two maximal address
/// sets plus the fixed request fields).
inline constexpr size_t kMaxPayloadBytes =
    8 + 8 + 8 + 8 + 8 + 4 + 4 + 2 * size_t{kMaxAddresses} * 8;

/// Where each nanosecond of a remote validation went, measured by the
/// server and shipped back in every response. All four are durations
/// (never timestamps — see the clock-domain note above):
///
///   server_queue — socket read → start of the engine pass that took it
///   batch_wait   — pass start → this request's engine.process() call
///   engine       — the engine.process() call itself
///   link         — *modeled* CCI round trip (CciLinkModel), reported
///                  alongside the measured stages for paper-Fig.8-style
///                  comparison; not part of the wall-clock sum
struct StageTimestamps
{
    uint64_t server_queue_ns = 0;
    uint64_t batch_wait_ns = 0;
    uint64_t engine_ns = 0;
    uint64_t link_ns = 0;
};

/// Encoded size of one response frame (fixed-size payload + header)
/// — the unit the server's outbound-buffer cap is expressed in.
inline constexpr size_t kResponseFrameBytes =
    kFrameHeaderBytes + 8 + 1 + 1 + 8 + 5 * 8;

/// A decoded request frame.
struct WireRequest
{
    uint64_t request_id = 0;
    /// Relative deadline in ns (0 = none): the server drops the request
    /// with Verdict::kTimeout if it is still queued this long after
    /// arrival.
    uint64_t deadline_ns = 0;
    /// Trace context (0 = none): the id binding the client's
    /// flow-start event to the server's flow-end event in a merged
    /// trace, and the client-side span the server span points back to.
    uint64_t trace_id = 0;
    uint64_t parent_span_id = 0;
    fpga::OffloadRequest offload;
};

/// A decoded response frame.
struct WireResponse
{
    uint64_t request_id = 0;
    core::ValidationResult result;
    StageTimestamps stages;
};

/// Append one encoded kRequestV2 frame to @p out.
void encode_request(std::vector<uint8_t>& out, const WireRequest& request);

/// Append one encoded kResponseV2 frame to @p out.
void encode_response(std::vector<uint8_t>& out,
                     const WireResponse& response);

/// Append one encoded control frame (kSnapshot, kSnapshotReply, kDump
/// or kDumpReply) carrying @p payload to @p out. Requests carry an
/// empty payload; replies carry raw JSON.
void encode_control(std::vector<uint8_t>& out, MsgType type,
                    std::string_view payload = {});

/// Decode a request payload (the bytes after the frame header). Types
/// other than kRequestV2 yield nullopt.
std::optional<WireRequest> decode_request(MsgType type,
                                          const uint8_t* payload,
                                          size_t size);

/// Decode a response payload. Types other than kResponseV2 yield
/// nullopt.
std::optional<WireResponse> decode_response(MsgType type,
                                            const uint8_t* payload,
                                            size_t size);

/// Incremental frame extractor over a connection's receive buffer.
/// Feed bytes with append(); next() yields complete frames in order.
class FrameReader
{
  public:
    struct Frame
    {
        MsgType type;
        const uint8_t* payload; ///< valid until the next append()
        size_t size;
    };

    /// Append @p size raw bytes from the socket.
    void append(const uint8_t* data, size_t size);

    /// Extract the next complete frame, or nullopt if more bytes are
    /// needed. Sets @p malformed (when non-null) and returns nullopt if
    /// the stream is unrecoverably corrupt (unknown type / oversized
    /// payload) — the caller should drop the connection.
    std::optional<Frame> next(bool* malformed = nullptr);

    size_t buffered() const { return buffer_.size() - consumed_; }

  private:
    std::vector<uint8_t> buffer_;
    size_t consumed_ = 0; ///< bytes of buffer_ already handed out
};

} // namespace rococo::svc
