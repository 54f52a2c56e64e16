#include "util/serialize.h"

#include <cstring>

namespace cyclestream {

void StateWriter::Double(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

double StateReader::Double() {
  const std::uint64_t bits = U64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string_view StateReader::StrView() {
  const std::size_t n = Size();
  if (!ok_ || n > Remaining()) {
    Fail();
    return {};
  }
  const std::string_view s = data_.substr(pos_, n);
  pos_ += n;
  return s;
}

}  // namespace cyclestream
