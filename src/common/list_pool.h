/**
 * @file
 * ListPool: many FIFO lists whose elements share one node pool, for
 * MSHR waiter lists. A vector per MSHR allocates whenever a miss
 * gathers more waiters than that MSHR has seen before, which under
 * cross-core coalescing keeps happening long after warmup; a shared
 * pool only grows when the total of waiting requests reaches a new
 * peak, and recycles nodes through a free list.
 *
 * A list is a (head, tail) pair of node indices that its owner stores;
 * the pool holds the nodes. Indices, not pointers, so the pool may
 * grow while a list is being walked.
 */

#ifndef CMPSIM_COMMON_LIST_POOL_H
#define CMPSIM_COMMON_LIST_POOL_H

#include <cstdint>
#include <vector>

namespace cmpsim {

/** FIFO lists of @p T over one recycled node pool. */
template <typename T>
class ListPool
{
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  public:
    /** One list's handle, kept by its owner. */
    struct List
    {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;

        bool empty() const { return head == kNil; }
    };

    void
    push_back(List &list, const T &value)
    {
        std::uint32_t n = free_;
        if (n != kNil) {
            free_ = nodes_[n].next;
            nodes_[n] = Node{value, kNil};
        } else {
            n = static_cast<std::uint32_t>(nodes_.size());
            nodes_.push_back(Node{value, kNil});
        }
        if (list.empty())
            list.head = n;
        else
            nodes_[list.tail].next = n;
        list.tail = n;
    }

    /** Call @p fn on each element of @p list, front to back. */
    template <typename Fn>
    void
    forEach(const List &list, Fn &&fn) const
    {
        for (std::uint32_t n = list.head; n != kNil; n = nodes_[n].next)
            fn(nodes_[n].value);
    }

    /**
     * Empty @p list, front to back, calling @p fn on a copy of each
     * element after its node is recycled; @p fn may push onto any list.
     */
    template <typename Fn>
    void
    drain(List &list, Fn &&fn)
    {
        std::uint32_t n = list.head;
        list = List{};
        while (n != kNil) {
            const T value = nodes_[n].value;
            const std::uint32_t next = nodes_[n].next;
            nodes_[n].next = free_;
            free_ = n;
            n = next;
            fn(value);
        }
    }

  private:
    struct Node
    {
        T value;
        std::uint32_t next;
    };

    std::vector<Node> nodes_;
    std::uint32_t free_ = kNil; ///< recycled nodes, linked by next
};

} // namespace cmpsim

#endif // CMPSIM_COMMON_LIST_POOL_H
