#include "sig/sliced_history.h"

#include <bit>

#include "common/check.h"

namespace rococo::sig {

SlicedSignatureHistory::SlicedSignatureHistory(
    size_t slots, std::shared_ptr<const SignatureConfig> config)
    : config_(std::move(config)), slots_(slots),
      mask_words_((slots + 63) / 64),
      columns_(static_cast<size_t>(config_->m()) * mask_words_, 0),
      rows_(slots * config_->words(), 0)
{
    ROCOCO_CHECK(slots_ > 0);
}

void
SlicedSignatureHistory::insert(size_t slot, uint64_t key)
{
    ROCOCO_DCHECK(slot < slots_);
    uint64_t* row = rows_.data() + slot * config_->words();
    const uint64_t slot_mask = uint64_t{1} << (slot & 63);
    const size_t slot_word = slot >> 6;
    for (unsigned i = 0; i < config_->k(); ++i) {
        const uint64_t bit = config_->bit_index(key, i);
        row[bit >> 6] |= uint64_t{1} << (bit & 63);
        columns_[bit * mask_words_ + slot_word] |= slot_mask;
    }
}

void
SlicedSignatureHistory::clear_slot(size_t slot)
{
    ROCOCO_DCHECK(slot < slots_);
    uint64_t* row = rows_.data() + slot * config_->words();
    const uint64_t slot_mask = ~(uint64_t{1} << (slot & 63));
    const size_t slot_word = slot >> 6;
    for (unsigned w = 0; w < config_->words(); ++w) {
        uint64_t bits = row[w];
        while (bits != 0) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            const uint64_t bit = uint64_t{w} * 64 + b;
            columns_[bit * mask_words_ + slot_word] &= slot_mask;
        }
        row[w] = 0;
    }
}

bool
SlicedSignatureHistory::query(size_t slot, uint64_t key) const
{
    ROCOCO_DCHECK(slot < slots_);
    const uint64_t* row = rows_.data() + slot * config_->words();
    for (unsigned i = 0; i < config_->k(); ++i) {
        const uint64_t bit = config_->bit_index(key, i);
        if (!((row[bit >> 6] >> (bit & 63)) & 1)) return false;
    }
    return true;
}

} // namespace rococo::sig
