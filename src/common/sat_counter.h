/**
 * @file
 * Saturating counter, the control element of the paper's adaptive
 * prefetching mechanism (Section 3): one counter per cache scales the
 * number of startup prefetches per stream and disables prefetching
 * entirely at zero.
 */

#ifndef CMPSIM_COMMON_SAT_COUNTER_H
#define CMPSIM_COMMON_SAT_COUNTER_H

#include "src/common/log.h"

namespace cmpsim {

/** Integer counter clamped to [0, max]; starts at max per the paper. */
class SatCounter
{
  public:
    explicit SatCounter(unsigned max_value)
        : value_(max_value), max_(max_value)
    {
        cmpsim_assert(max_value > 0);
    }

    unsigned value() const { return value_; }
    unsigned max() const { return max_; }

    bool atMax() const { return value_ == max_; }
    bool atZero() const { return value_ == 0; }

    /** Increment by one, saturating at max. */
    void
    increment()
    {
        if (value_ < max_)
            ++value_;
    }

    /** Decrement by one, saturating at zero. */
    void
    decrement()
    {
        if (value_ > 0)
            --value_;
    }

    /** Reset to the maximum (the paper's initial state). */
    void reset() { value_ = max_; }

  private:
    unsigned value_;
    unsigned max_;
};

} // namespace cmpsim

#endif // CMPSIM_COMMON_SAT_COUNTER_H
