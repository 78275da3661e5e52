/**
 * @file
 * Long global-history register and folded-history (CSR) companions
 * for tagged-geometric predictors.
 *
 * GlobalHistory tops out at 64 outcomes; TAGE-style predictors index
 * their longest table with 80+ bits. LongHistory extends the shift
 * register to 128 bits, and FoldedHistory maintains the circular
 * shift register (CSR) fold of a length-L window down to a table's
 * index or tag width in O(1) per branch instead of re-XORing L bits.
 */

#ifndef BPSIM_PREDICTOR_LONG_HISTORY_HH
#define BPSIM_PREDICTOR_LONG_HISTORY_HH

#include <array>
#include <cstdint>

#include "support/bits.hh"
#include "support/logging.hh"
#include "support/types.hh"

namespace bpsim
{

/**
 * Shift register of up to 128 recent branch outcomes, LSB (bit 0)
 * = most recent, matching GlobalHistory's convention.
 */
class LongHistory
{
  public:
    /** @param bits number of outcomes retained (1..128). */
    explicit LongHistory(BitCount bits) : numBits(bits)
    {
        bpsim_assert(bits >= 1 && bits <= 128, "bad history width");
    }

    /** Shift in one outcome. */
    void
    push(bool taken)
    {
        const std::uint64_t carry = words[0] >> 63;
        words[0] = (words[0] << 1) | (taken ? 1 : 0);
        words[1] = (words[1] << 1) | carry;
        if (numBits <= 64)
            words[0] &= mask(numBits);
        else
            words[1] &= mask(numBits - 64);
    }

    /** The outcome @p pos branches ago (0 = most recent). */
    bool
    bit(BitCount pos) const
    {
        bpsim_assert(pos < numBits, "history bit out of range");
        if (pos < 64)
            return ((words[0] >> pos) & 1) != 0;
        return ((words[1] >> (pos - 64)) & 1) != 0;
    }

    /** Register width in bits. */
    BitCount width() const { return numBits; }

    /** Clear to the power-on (all not-taken) state. */
    void clear() { words = {0, 0}; }

    /**
     * Read and restore the raw storage words (word 0 holds the 64
     * most recent outcomes). Used by the batch replay kernels, which
     * evolve the history in registers and sync it back at segment
     * boundaries.
     */
    ///@{
    std::uint64_t word(unsigned i) const { return words[i]; }

    void
    setWords(std::uint64_t low, std::uint64_t high)
    {
        words = {low, high};
    }
    ///@}

  private:
    std::array<std::uint64_t, 2> words{};
    BitCount numBits;
};

/**
 * Circular-shift-register fold of the most recent @p origLen history
 * bits down to @p compLen bits, maintained incrementally.
 *
 * Invariant (the property tests pin it): after any sequence of
 * updates, value() equals the from-scratch fold
 * XOR over j in [0, origLen) of h[j] << (j % compLen),
 * where h[j] is the outcome j branches ago. update() must be called
 * once per history push with the incoming bit and the bit that falls
 * out of the length-origLen window (h[origLen-1] *before* the push).
 */
class FoldedHistory
{
  public:
    FoldedHistory() = default;

    FoldedHistory(BitCount orig_len, BitCount comp_len)
        : origLen(orig_len), compLen(comp_len),
          outPoint(orig_len % comp_len)
    {
        bpsim_assert(comp_len >= 1 && comp_len < 64,
                     "bad folded width");
        bpsim_assert(orig_len >= comp_len,
                     "fold wider than its window");
    }

    /**
     * Advance by one branch: @p in_bit enters the window, @p out_bit
     * (the oldest bit of the window before this push) leaves it.
     */
    void
    update(bool in_bit, bool out_bit)
    {
        comp = (comp << 1) | (in_bit ? 1 : 0);
        comp ^= (out_bit ? std::uint64_t{1} : 0) << outPoint;
        comp ^= comp >> compLen;
        comp &= mask(compLen);
    }

    /** The folded value (compLen bits). */
    std::uint64_t value() const { return comp; }

    /** Window / folded widths. */
    BitCount windowBits() const { return origLen; }
    BitCount foldedBits() const { return compLen; }

    /** Reset to the all-not-taken state. */
    void clear() { comp = 0; }

    /** Restore an explicit folded value (the batch kernels' sync-back,
     * as for LongHistory::setWords). */
    void set(std::uint64_t value) { comp = value & mask(compLen); }

    /**
     * From-scratch fold of @p history's length-origLen window; the
     * value an incrementally maintained fold must equal (used by the
     * property tests and by reset-state sanity checks).
     */
    std::uint64_t
    recompute(const LongHistory &history) const
    {
        std::uint64_t folded = 0;
        for (BitCount j = 0; j < origLen; ++j) {
            if (history.bit(j))
                folded ^= std::uint64_t{1} << (j % compLen);
        }
        return folded;
    }

  private:
    std::uint64_t comp = 0;
    BitCount origLen = 0;
    BitCount compLen = 1;
    BitCount outPoint = 0;
};

} // namespace bpsim

#endif // BPSIM_PREDICTOR_LONG_HISTORY_HH
