#include "svc/wire.h"

#include <cstring>

namespace rococo::svc {
namespace {

// Explicit little-endian packing: byte-order independent and free of
// alignment assumptions (the receive buffer offsets are arbitrary).

void
put_u8(std::vector<uint8_t>& out, uint8_t v)
{
    out.push_back(v);
}

void
put_u32(std::vector<uint8_t>& out, uint32_t v)
{
    for (int i = 0; i < 4; ++i) out.push_back(uint8_t(v >> (8 * i)));
}

void
put_u64(std::vector<uint8_t>& out, uint64_t v)
{
    for (int i = 0; i < 8; ++i) out.push_back(uint8_t(v >> (8 * i)));
}

uint32_t
get_u32(const uint8_t* p)
{
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= uint32_t(p[i]) << (8 * i);
    return v;
}

uint64_t
get_u64(const uint8_t* p)
{
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= uint64_t(p[i]) << (8 * i);
    return v;
}

/// Reserve the header, returning the offset where the length goes.
size_t
begin_frame(std::vector<uint8_t>& out, MsgType type)
{
    const size_t at = out.size();
    put_u32(out, 0); // patched by end_frame
    put_u8(out, static_cast<uint8_t>(type));
    return at;
}

void
end_frame(std::vector<uint8_t>& out, size_t at)
{
    const uint32_t len =
        static_cast<uint32_t>(out.size() - at - kFrameHeaderBytes);
    for (int i = 0; i < 4; ++i) out[at + i] = uint8_t(len >> (8 * i));
}

void
put_address_sets(std::vector<uint8_t>& out, const fpga::OffloadRequest& off)
{
    put_u32(out, static_cast<uint32_t>(off.reads.size()));
    put_u32(out, static_cast<uint32_t>(off.writes.size()));
    for (uint64_t addr : off.reads) put_u64(out, addr);
    for (uint64_t addr : off.writes) put_u64(out, addr);
}

/// Validate the counts at @p p against the remaining payload and fill
/// the address sets. Returns false on a malformed length.
bool
get_address_sets(const uint8_t* p, size_t remaining,
                 fpga::OffloadRequest& off)
{
    if (remaining < 8) return false;
    const uint32_t n_reads = get_u32(p);
    const uint32_t n_writes = get_u32(p + 4);
    if (n_reads > kMaxAddresses || n_writes > kMaxAddresses) return false;
    if (remaining != 8 + (size_t{n_reads} + n_writes) * 8) return false;
    p += 8;
    off.reads.reserve(n_reads);
    for (uint32_t i = 0; i < n_reads; ++i, p += 8) {
        off.reads.push_back(get_u64(p));
    }
    off.writes.reserve(n_writes);
    for (uint32_t i = 0; i < n_writes; ++i, p += 8) {
        off.writes.push_back(get_u64(p));
    }
    return true;
}

} // namespace

void
encode_request(std::vector<uint8_t>& out, const WireRequest& request)
{
    const size_t at = begin_frame(out, MsgType::kRequestV2);
    put_u64(out, request.request_id);
    put_u64(out, request.offload.snapshot_cid);
    put_u64(out, request.deadline_ns);
    put_u64(out, request.trace_id);
    put_u64(out, request.parent_span_id);
    put_address_sets(out, request.offload);
    end_frame(out, at);
}

void
encode_response(std::vector<uint8_t>& out, const WireResponse& response)
{
    const size_t at = begin_frame(out, MsgType::kResponseV2);
    put_u64(out, response.request_id);
    put_u8(out, static_cast<uint8_t>(response.result.verdict));
    put_u8(out, static_cast<uint8_t>(response.result.reason));
    put_u64(out, response.result.cid);
    put_u64(out, response.stages.server_queue_ns);
    put_u64(out, response.stages.batch_wait_ns);
    put_u64(out, response.stages.engine_ns);
    put_u64(out, response.stages.link_ns);
    put_u64(out, response.result.conflict_cid);
    end_frame(out, at);
}

void
encode_control(std::vector<uint8_t>& out, MsgType type,
               std::string_view payload)
{
    const size_t at = begin_frame(out, type);
    out.insert(out.end(), payload.begin(), payload.end());
    end_frame(out, at);
}

std::optional<WireRequest>
decode_request(MsgType type, const uint8_t* payload, size_t size)
{
    if (type != MsgType::kRequestV2) return std::nullopt;
    constexpr size_t fixed = 8 + 8 + 8 + 8 + 8;
    if (size < fixed + 8) return std::nullopt;
    WireRequest request;
    request.request_id = get_u64(payload);
    request.offload.snapshot_cid = get_u64(payload + 8);
    request.deadline_ns = get_u64(payload + 16);
    request.trace_id = get_u64(payload + 24);
    request.parent_span_id = get_u64(payload + 32);
    if (!get_address_sets(payload + fixed, size - fixed, request.offload)) {
        return std::nullopt;
    }
    return request;
}

std::optional<WireResponse>
decode_response(MsgType type, const uint8_t* payload, size_t size)
{
    if (type != MsgType::kResponseV2 ||
        size != kResponseFrameBytes - kFrameHeaderBytes) {
        return std::nullopt;
    }
    WireResponse response;
    response.request_id = get_u64(payload);
    const uint8_t verdict = payload[8];
    const uint8_t reason = payload[9];
    if (verdict > static_cast<uint8_t>(core::Verdict::kRejected) ||
        reason >= obs::kAbortReasonCount) {
        return std::nullopt;
    }
    response.result.verdict = static_cast<core::Verdict>(verdict);
    response.result.reason = static_cast<obs::AbortReason>(reason);
    response.result.cid = get_u64(payload + 10);
    response.stages.server_queue_ns = get_u64(payload + 18);
    response.stages.batch_wait_ns = get_u64(payload + 26);
    response.stages.engine_ns = get_u64(payload + 34);
    response.stages.link_ns = get_u64(payload + 42);
    response.result.conflict_cid = get_u64(payload + 50);
    return response;
}

void
FrameReader::append(const uint8_t* data, size_t size)
{
    // Compact lazily: drop fully consumed bytes before growing, so the
    // buffer stays at one frame's working set under streaming load.
    if (consumed_ > 0) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() + static_cast<ptrdiff_t>(consumed_));
        consumed_ = 0;
    }
    buffer_.insert(buffer_.end(), data, data + size);
}

std::optional<FrameReader::Frame>
FrameReader::next(bool* malformed)
{
    if (malformed != nullptr) *malformed = false;
    if (buffered() < kFrameHeaderBytes) return std::nullopt;
    const uint8_t* head = buffer_.data() + consumed_;
    const uint32_t len = uint32_t(head[0]) | uint32_t(head[1]) << 8 |
                         uint32_t(head[2]) << 16 | uint32_t(head[3]) << 24;
    const uint8_t type = head[4];
    const bool known =
        (type >= static_cast<uint8_t>(MsgType::kRequestV2) &&
         type <= static_cast<uint8_t>(MsgType::kDumpReply)) ||
        type == static_cast<uint8_t>(MsgType::kAttach) ||
        type == static_cast<uint8_t>(MsgType::kAttachReply);
    if (len > kMaxPayloadBytes || !known) {
        if (malformed != nullptr) *malformed = true;
        return std::nullopt;
    }
    if (buffered() < kFrameHeaderBytes + len) return std::nullopt;
    Frame frame{static_cast<MsgType>(type), head + kFrameHeaderBytes, len};
    consumed_ += kFrameHeaderBytes + len;
    return frame;
}

} // namespace rococo::svc
