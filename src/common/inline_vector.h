/**
 * @file
 * InlineVector: a vector of at most N trivially copyable elements
 * stored inline, for per-access results (a set's evicted victims, a
 * prefetcher's addresses to issue) that a heap vector would allocate
 * on every call. Pushing past N is a simulator bug and panics; the
 * producer asserts its bound where it is configured.
 */

#ifndef CMPSIM_COMMON_INLINE_VECTOR_H
#define CMPSIM_COMMON_INLINE_VECTOR_H

#include <cstddef>
#include <new>
#include <type_traits>

#include "src/common/log.h"

namespace cmpsim {

/** Up to @p N elements of @p T in place; see the file comment. */
template <typename T, std::size_t N>
class InlineVector
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "InlineVector holds trivially copyable elements");

  public:
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    push_back(const T &v)
    {
        cmpsim_assert(size_ < N, "InlineVector overflow (capacity %zu)",
                      N);
        ::new (static_cast<void *>(storage_ + size_ * sizeof(T))) T(v);
        ++size_;
    }

    const T *begin() const { return data(); }
    const T *end() const { return data() + size_; }
    const T &operator[](std::size_t i) const { return data()[i]; }
    const T &back() const { return data()[size_ - 1]; }

  private:
    const T *data() const { return reinterpret_cast<const T *>(storage_); }

    std::size_t size_ = 0;
    // Raw bytes, not T[N]: a T with default member initializers would
    // otherwise initialize all N slots on every construction.
    alignas(T) unsigned char storage_[N * sizeof(T)];
};

} // namespace cmpsim

#endif // CMPSIM_COMMON_INLINE_VECTOR_H
