#ifndef FLEET_MEMCTL_LANE_MASK_H
#define FLEET_MEMCTL_LANE_MASK_H

/**
 * @file
 * Fixed-size bit set with a round-robin find, for the controllers'
 * per-cycle scans. Instead of walking every processing unit (or burst
 * register) from the round-robin pointer each cycle, a controller
 * keeps one bit per entry that could act, updates it where that entry's
 * state changes, and jumps straight to the next set bit. The visiting
 * order is the walk's order, so results are unchanged.
 */

#include <bit>
#include <cstdint>
#include <vector>

namespace fleet {
namespace memctl {

class LaneMask
{
  public:
    explicit LaneMask(int size = 0)
        : size_(size), words_((size + 63) / 64, 0)
    {
    }

    int size() const { return size_; }

    bool test(int i) const { return (words_[i >> 6] >> (i & 63)) & 1; }

    void
    set(int i, bool on)
    {
        const uint64_t bit = uint64_t(1) << (i & 63);
        if (on)
            words_[i >> 6] |= bit;
        else
            words_[i >> 6] &= ~bit;
    }

    /** Smallest set index in [lo, hi), or -1. */
    int
    findIn(int lo, int hi) const
    {
        if (lo >= hi)
            return -1;
        int w = lo >> 6;
        uint64_t bits = words_[w] & (~uint64_t(0) << (lo & 63));
        while (bits == 0) {
            if (++w * 64 >= hi)
                return -1;
            bits = words_[w];
        }
        int i = w * 64 + std::countr_zero(bits);
        return i < hi ? i : -1;
    }

    /**
     * Round-robin search from `from`: the smallest offset k in
     * [skip, size()) whose entry (from + k) % size() is set, or -1.
     */
    int
    cyclicOffset(int from, int skip = 0) const
    {
        int start = from + skip;
        if (start < size_) {
            int i = findIn(start, size_);
            if (i >= 0)
                return i - from;
            start = size_;
        }
        int i = findIn(start - size_, from);
        return i >= 0 ? i + size_ - from : -1;
    }

  private:
    int size_;
    std::vector<uint64_t> words_;
};

} // namespace memctl
} // namespace fleet

#endif // FLEET_MEMCTL_LANE_MASK_H
