/**
 * @file
 * Fixed-size arrays that start as zero pages.
 */

#ifndef HSCD_COMMON_ZEROED_HH
#define HSCD_COMMON_ZEROED_HH

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace hscd {

/**
 * A fixed-size array of @p T obtained already zeroed from calloc: no
 * constructor pass over the elements. A block the allocator maps fresh
 * is made of zero pages that the kernel faults in on first touch, so
 * memory that nothing touches is never committed; a reused heap block
 * is cleared by calloc in one memset.
 *
 * No constructor runs: the all-zero bit pattern must be T's reset state
 * (false, 0, the first enumerator, generation 0 = "never"). A trivially
 * copyable T is one whose value is its bytes, which is what makes that
 * sound; each T stored here documents its zero state, and
 * tests/test_cache.cc checks that a fresh element reads as T{}.
 */
template <typename T>
class ZeroedArray
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "ZeroedArray elements start as zero bytes, not as T{}");

  public:
    ZeroedArray() = default;
    ZeroedArray(ZeroedArray &&o) noexcept
        : _data(std::move(o._data)), _size(std::exchange(o._size, 0))
    {}
    ZeroedArray &
    operator=(ZeroedArray &&o) noexcept
    {
        _data = std::move(o._data);
        _size = std::exchange(o._size, 0);
        return *this;
    }

    explicit ZeroedArray(std::size_t n) : _size(n)
    {
        if (n == 0)
            return;
        _data.reset(static_cast<T *>(std::calloc(n, sizeof(T))));
        if (!_data)
            throw std::bad_alloc();
    }

    T &operator[](std::size_t i) { return _data.get()[i]; }
    const T &operator[](std::size_t i) const { return _data.get()[i]; }

    T *data() { return _data.get(); }
    const T *data() const { return _data.get(); }
    std::size_t size() const { return _size; }

  private:
    struct Free
    {
        void operator()(T *p) const { std::free(p); }
    };

    std::unique_ptr<T, Free> _data;
    std::size_t _size = 0;
};

} // namespace hscd

#endif // HSCD_COMMON_ZEROED_HH
