#ifndef FLEET_MEMCTL_BITFIFO_H
#define FLEET_MEMCTL_BITFIFO_H

/**
 * @file
 * Fixed-capacity bit FIFO modelling a processing unit's BRAM-based input
 * or output buffer (Section 5 of the paper: each PU has buffers with
 * capacity equal to the memory-controller burst size and a data port of
 * width w, 32 bits on the F1). The cycle-level controllers push/pop whole
 * w-bit or token-width chunks; this class only models contents and
 * occupancy — timing is enforced by the callers.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bits.h"
#include "util/logging.h"

namespace fleet {
namespace memctl {

class BitFifo
{
  public:
    explicit BitFifo(uint64_t capacity_bits)
        : capacity_(capacity_bits),
          words_(std::max<uint64_t>(1, ceilDiv(capacity_bits, 64)), 0),
          ringBits_(words_.size() * 64)
    {
    }

    uint64_t capacityBits() const { return capacity_; }
    uint64_t sizeBits() const { return size_; }
    uint64_t freeBits() const { return capacity_ - size_; }
    bool empty() const { return size_ == 0; }

    /** Append `width` bits (width <= 64). Caller checks space. */
    void
    push(uint64_t value, int width)
    {
        if (width < 0 || width > 64)
            panic("BitFifo: bad push width ", width);
        if (uint64_t(width) > freeBits())
            panic("BitFifo: overflow (pushing ", width, " bits into ",
                  freeBits(), " free)");
        if (width == 0)
            return;
        // Free ring bits are always zero (pop clears what it takes), so
        // the token ORs into at most two words: the ring is a whole
        // number of 64-bit words, and only a token straddling a word
        // boundary spills into the next one (word 0 past the ring end).
        value = truncTo(value, width);
        const uint64_t word = tail_ / 64;
        const int shift = static_cast<int>(tail_ % 64);
        words_[word] |= value << shift;
        if (shift + width > 64)
            words_[nextWord(word)] |= value >> (64 - shift);
        tail_ = advance(tail_, width);
        size_ += width;
    }

    /** Remove and return `width` bits (width <= 64). Caller checks size. */
    uint64_t
    pop(int width)
    {
        uint64_t value = peek(width);
        clearRange(head_, width);
        head_ = advance(head_, width);
        size_ -= width;
        return value;
    }

    /** Read the next `width` bits without removing them. */
    uint64_t
    peek(int width) const
    {
        if (width < 0 || width > 64)
            panic("BitFifo: bad pop width ", width);
        if (uint64_t(width) > size_)
            panic("BitFifo: underflow (popping ", width, " bits of ",
                  size_, ")");
        const uint64_t word = head_ / 64;
        const int shift = static_cast<int>(head_ % 64);
        uint64_t value = words_[word] >> shift;
        if (shift + width > 64)
            value |= words_[nextWord(word)] << (64 - shift);
        return truncTo(value, width);
    }

    void
    clear()
    {
        head_ = tail_ = size_ = 0;
        std::fill(words_.begin(), words_.end(), 0);
    }

  private:
    uint64_t
    nextWord(uint64_t word) const
    {
        return word + 1 == words_.size() ? 0 : word + 1;
    }

    uint64_t
    advance(uint64_t pos, int bits) const
    {
        pos += bits;
        if (pos >= ringBits_)
            pos -= ringBits_;
        return pos;
    }

    /** Zero `width` bits from ring position `pos` (wrapping). */
    void
    clearRange(uint64_t pos, int width)
    {
        if (width == 0)
            return;
        const uint64_t word = pos / 64;
        const int shift = static_cast<int>(pos % 64);
        words_[word] &= ~(mask64(width) << shift);
        if (shift + width > 64)
            words_[nextWord(word)] &= ~mask64(shift + width - 64);
    }

    uint64_t capacity_;
    /** The ring: a whole number of words, at least one. */
    std::vector<uint64_t> words_;
    uint64_t ringBits_;
    uint64_t head_ = 0;
    uint64_t tail_ = 0;
    uint64_t size_ = 0;
};

} // namespace memctl
} // namespace fleet

#endif // FLEET_MEMCTL_BITFIFO_H
