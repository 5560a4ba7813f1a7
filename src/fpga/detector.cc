#include "fpga/detector.h"

#include <bit>
#include <cstring>

#include "common/check.h"

namespace rococo::fpga {

ConflictDetector::ConflictDetector(
    size_t window, std::shared_ptr<const sig::SignatureConfig> config)
    : window_(window), config_(std::move(config)),
      read_plane_(window, config_), write_plane_(window, config_),
      cids_(window, 0),
      scratch_(2 * read_plane_.mask_words() + config_->k(), 0)
{
    ROCOCO_CHECK(window_ > 0);
}

core::ValidationRequest
ConflictDetector::classify(const OffloadRequest& request) const
{
    core::ValidationRequest out;
    classify_into(request, &out);
    return out;
}

void
ConflictDetector::classify_into(const OffloadRequest& request,
                                core::ValidationRequest* out) const
{
    // Worst case emits every slot into one vector, so a window-sized
    // reserve (no-op once satisfied) makes the steady state exactly
    // allocation-free — not just amortized: a late bloom coincidence
    // can otherwise push the emission count past any observed
    // high-water and grow capacity mid-flight.
    out->forward.reserve(window_);
    out->backward.reserve(window_);
    out->forward.clear();
    out->backward.clear();
    if (size_ == 0) return;

    // One pass over the address sets builds the full W-bit dependency
    // vectors — k column loads + ANDs per address (Fig. 5's comparator
    // array), instead of re-querying every history signature:
    //   rd: slots whose committed write set may intersect our reads
    //       (W_c ∩ R — the forward-or-RAW edge, split by snapshot)
    //   wr: slots whose committed write or read set may intersect our
    //       writes (WAW | WAR — always backward)
    // Each address is hashed once, before its column words are walked,
    // and both planes share one hash family, so a write's k offsets
    // serve both. All k loads of an address are issued: ANDing more columns
    // into a zero word keeps it zero, and a branch on each load would
    // mispredict whenever matches are sparse.
    const sig::SignatureConfig& config = *config_;
    const unsigned k = config.k();
    const size_t words = read_plane_.mask_words();
    const uint64_t* read_columns = read_plane_.columns();
    const uint64_t* write_columns = write_plane_.columns();
    uint64_t* rd = scratch_.data();
    uint64_t* wr = scratch_.data() + words;
    uint64_t* at = scratch_.data() + 2 * words; // a key's k column offsets
    std::memset(rd, 0, 2 * words * sizeof(uint64_t));
    auto hash = [&](uint64_t key) {
        for (unsigned i = 0; i < k; ++i) {
            at[i] = config.bit_index(key, i) * words;
        }
    };
    for (uint64_t key : request.reads) {
        hash(key);
        for (size_t w = 0; w < words; ++w) {
            uint64_t m = ~uint64_t{0};
            for (unsigned i = 0; i < k; ++i) {
                m &= write_columns[at[i] + w];
            }
            rd[w] |= m;
        }
    }
    for (uint64_t key : request.writes) {
        hash(key);
        for (size_t w = 0; w < words; ++w) {
            uint64_t waw = ~uint64_t{0};
            uint64_t war = ~uint64_t{0};
            for (unsigned i = 0; i < k; ++i) {
                waw &= write_columns[at[i] + w];
                war &= read_columns[at[i] + w];
            }
            wr[w] |= waw | war;
        }
    }

    // Emit cids oldest-first (the order the row-major walk produced):
    // the ring is two ascending slot ranges, and within each the set
    // bits of rd|wr are scanned directly — O(hits) emission instead of
    // a branch per window slot, which matters because the match vector
    // is nearly always sparse.
    auto emit = [&](size_t lo, size_t hi) { // slots [lo, hi), ascending
        for (size_t w = lo >> 6; w < (hi + 63) >> 6; ++w) {
            uint64_t combined = rd[w] | wr[w];
            if (w == lo >> 6 && (lo & 63) != 0) {
                combined &= ~uint64_t{0} << (lo & 63);
            }
            if (w == (hi - 1) >> 6 && (hi & 63) != 0) {
                combined &= (uint64_t{1} << (hi & 63)) - 1;
            }
            while (combined != 0) {
                const unsigned b =
                    static_cast<unsigned>(std::countr_zero(combined));
                combined &= combined - 1;
                const uint64_t slot_mask = uint64_t{1} << b;
                const bool read_overlap = (rd[w] & slot_mask) != 0;
                const bool write_overlap = (wr[w] & slot_mask) != 0;
                const uint64_t cid = cids_[w * 64 + b];
                if (read_overlap && cid >= request.snapshot_cid) {
                    out->forward.push_back(cid);
                }
                if (write_overlap ||
                    (read_overlap && cid < request.snapshot_cid)) {
                    out->backward.push_back(cid);
                }
            }
        }
    };
    if (head_ + size_ > window_) {
        emit(head_, window_);
        emit(0, head_ + size_ - window_);
    } else {
        emit(head_, head_ + size_);
    }
}

core::ValidationRequest
ConflictDetector::classify_scalar(const OffloadRequest& request) const
{
    // The seed implementation's loop, verbatim against the row-major
    // shadow: for every history entry (oldest first), query each
    // address with early exit.
    auto any_query = [](const sig::SlicedSignatureHistory& plane,
                        size_t slot, std::span<const uint64_t> addrs) {
        for (uint64_t addr : addrs) {
            if (plane.query(slot, addr)) return true;
        }
        return false;
    };

    core::ValidationRequest out;
    size_t slot = head_;
    for (size_t i = 0; i < size_; ++i) {
        const uint64_t cid = cids_[slot];
        const bool read_overlap = any_query(write_plane_, slot, request.reads);
        const bool waw = any_query(write_plane_, slot, request.writes);
        const bool war = any_query(read_plane_, slot, request.writes);
        if (cid >= request.snapshot_cid && read_overlap) {
            out.forward.push_back(cid);
        }
        if (waw || war || (cid < request.snapshot_cid && read_overlap)) {
            out.backward.push_back(cid);
        }
        if (++slot == window_) slot = 0;
    }
    return out;
}

void
ConflictDetector::record_commit(uint64_t cid, const OffloadRequest& request)
{
    ROCOCO_DCHECK(size_ == 0 ||
                  cids_[(head_ + size_ - 1) % window_] < cid);
    size_t slot;
    if (size_ == window_) {
        // Full: evict the oldest — clear only the bits its signatures
        // set (the row image remembers them) and reuse its slot.
        slot = head_;
        read_plane_.clear_slot(slot);
        write_plane_.clear_slot(slot);
        if (++head_ == window_) head_ = 0;
    } else {
        slot = head_ + size_;
        if (slot >= window_) slot -= window_;
        ++size_;
    }
    cids_[slot] = cid;
    for (uint64_t addr : request.reads) read_plane_.insert(slot, addr);
    for (uint64_t addr : request.writes) write_plane_.insert(slot, addr);
}

size_t
ConflictDetector::conflicting_addresses(const OffloadRequest& request,
                                        uint64_t cid, uint64_t* out,
                                        size_t capacity) const
{
    // cid c always lands in slot c % W (the ring starts at slot 0 and
    // eviction reuses the evictee's slot, which is the same residue).
    const size_t slot = static_cast<size_t>(cid % window_);
    if (size_ == 0 || cids_[slot] != cid) return 0;
    size_t n = 0;
    for (uint64_t addr : request.reads) {
        if (n == capacity) return n;
        if (write_plane_.query(slot, addr)) out[n++] = addr;
    }
    for (uint64_t addr : request.writes) {
        if (n == capacity) return n;
        if (write_plane_.query(slot, addr) ||
            read_plane_.query(slot, addr)) {
            out[n++] = addr;
        }
    }
    return n;
}

uint64_t
ConflictDetector::history_start() const
{
    return size_ == 0 ? 0 : cids_[head_];
}

} // namespace rococo::fpga
