/**
 * @file
 * Tensor shapes (NHWC) used by the op cost model.
 */

#ifndef HPIM_NN_TENSOR_SHAPE_HH
#define HPIM_NN_TENSOR_SHAPE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>

#include "sim/logging.hh"

namespace hpim::nn {

/** Bytes per element: the paper's fixed-function PIMs are FP32. */
constexpr std::uint32_t elementBytes = 4;

/** A dense tensor shape, held inline (no heap allocation). */
class TensorShape
{
  public:
    /** Largest rank a shape can hold; a higher rank is fatal. */
    static constexpr std::size_t maxRank = 8;

    TensorShape() = default;

    TensorShape(std::initializer_list<std::int64_t> dims)
    {
        assign({dims.begin(), dims.size()});
    }

    explicit TensorShape(std::span<const std::int64_t> dims)
    {
        assign(dims);
    }

    /** @return number of dimensions. */
    std::size_t rank() const { return _rank; }

    std::int64_t
    dim(std::size_t i) const
    {
        panic_if(i >= _rank, "dim index ", i, " out of rank ", rank());
        return _dims[i];
    }

    /** @return total element count (1 for a scalar / empty shape). */
    std::int64_t
    elems() const
    {
        std::int64_t n = 1;
        for (std::size_t i = 0; i < _rank; ++i)
            n *= _dims[i];
        return n;
    }

    /** @return size in bytes at FP32. */
    std::int64_t bytes() const { return elems() * elementBytes; }

    /** @return "[32, 224, 224, 3]" style string. */
    std::string str() const;

    bool
    operator==(const TensorShape &o) const
    {
        return std::equal(_dims.begin(), _dims.begin() + _rank,
                          o._dims.begin(), o._dims.begin() + o._rank);
    }

  private:
    void
    assign(std::span<const std::int64_t> dims)
    {
        fatal_if(dims.size() > maxRank, "tensor rank ", dims.size(),
                 " exceeds the maximum of ", maxRank);
        for (auto d : dims)
            fatal_if(d <= 0, "tensor dims must be positive, got ", d);
        std::copy(dims.begin(), dims.end(), _dims.begin());
        _rank = static_cast<std::uint8_t>(dims.size());
    }

    std::array<std::int64_t, maxRank> _dims{};
    std::uint8_t _rank = 0;
};

} // namespace hpim::nn

#endif // HPIM_NN_TENSOR_SHAPE_HH
