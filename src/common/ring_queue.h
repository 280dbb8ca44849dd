/**
 * @file
 * RingQueue: a FIFO over one power-of-two ring buffer that doubles
 * when full and never shrinks, for timed-path queues (the link's class
 * queues, a core's chained-access queue, a prefetcher's recent-miss
 * window). A std::deque frees and reallocates a chunk each time its
 * contents drift across a chunk boundary; once a RingQueue has reached
 * its peak depth it never allocates again.
 *
 * Besides push_back/pop_front it supports erase() at any position, as
 * a priority arbiter that lets a ready message overtake older ones
 * needs; erase shifts the shorter side, like std::deque.
 */

#ifndef CMPSIM_COMMON_RING_QUEUE_H
#define CMPSIM_COMMON_RING_QUEUE_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "src/common/log.h"

namespace cmpsim {

/** FIFO ring of default-constructible @p T; see the file comment. */
template <typename T>
class RingQueue
{
  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** The @p i-th element from the front. */
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    T &front() { return (*this)[0]; }

    void
    push_back(const T &v)
    {
        if (size_ == buf_.size())
            grow();
        buf_[wrap(head_ + size_)] = v;
        ++size_;
    }

    void
    pop_front()
    {
        cmpsim_assert(size_ > 0);
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Remove the @p i-th element from the front, keeping order. */
    void
    erase(std::size_t i)
    {
        cmpsim_assert(i < size_);
        if (i < size_ / 2) {
            for (std::size_t j = i; j > 0; --j)
                (*this)[j] = (*this)[j - 1];
            pop_front();
        } else {
            for (std::size_t j = i; j + 1 < size_; ++j)
                (*this)[j] = (*this)[j + 1];
            --size_;
        }
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::size_t wrap(std::size_t i) const { return i & (buf_.size() - 1); }

    void
    grow()
    {
        std::vector<T> next(std::max<std::size_t>(8, 2 * buf_.size()));
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = (*this)[i];
        buf_.swap(next);
        head_ = 0;
    }

    std::vector<T> buf_; ///< power-of-two size (or empty)
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace cmpsim

#endif // CMPSIM_COMMON_RING_QUEUE_H
