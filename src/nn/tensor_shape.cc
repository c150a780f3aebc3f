#include "nn/tensor_shape.hh"

#include <sstream>

namespace hpim::nn {

std::string
TensorShape::str() const
{
    std::ostringstream os;
    os << '[';
    for (std::size_t i = 0; i < rank(); ++i) {
        if (i)
            os << ", ";
        os << _dims[i];
    }
    os << ']';
    return os.str();
}

} // namespace hpim::nn
