#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace cyclestream {
namespace {

// Slice-by-16 reads the input as little-endian 32-bit words; on a
// big-endian host the word loads would need byte swaps to match.
static_assert(std::endian::native == std::endian::little,
              "the slice-by-16 CRC assumes a little-endian host");

using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

// tables[0] is the classic byte-at-a-time table; tables[k][b] is the CRC of
// byte b followed by k zero bytes, so sixteen lookups advance the CRC over
// sixteen input bytes at once.
constexpr CrcTables MakeCrcTables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t i = 0; i < 256; ++i) {
    for (std::size_t s = 1; s < 16; ++s) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr CrcTables kTables = MakeCrcTables();

std::uint32_t LoadWord(const unsigned char* p) {
  std::uint32_t w;
  std::memcpy(&w, p, sizeof(w));
  return w;
}

std::uint32_t Advance(std::uint32_t crc, const unsigned char* data,
                      std::size_t size) {
  const auto& t = kTables;
  while (size >= 16) {
    const std::uint32_t w0 = LoadWord(data) ^ crc;
    const std::uint32_t w1 = LoadWord(data + 4);
    const std::uint32_t w2 = LoadWord(data + 8);
    const std::uint32_t w3 = LoadWord(data + 12);
    crc = t[15][w0 & 0xff] ^ t[14][(w0 >> 8) & 0xff] ^
          t[13][(w0 >> 16) & 0xff] ^ t[12][w0 >> 24] ^ t[11][w1 & 0xff] ^
          t[10][(w1 >> 8) & 0xff] ^ t[9][(w1 >> 16) & 0xff] ^
          t[8][w1 >> 24] ^ t[7][w2 & 0xff] ^ t[6][(w2 >> 8) & 0xff] ^
          t[5][(w2 >> 16) & 0xff] ^ t[4][w2 >> 24] ^ t[3][w3 & 0xff] ^
          t[2][(w3 >> 8) & 0xff] ^ t[1][(w3 >> 16) & 0xff] ^ t[0][w3 >> 24];
    data += 16;
    size -= 16;
  }
  for (std::size_t i = 0; i < size; ++i) {
    crc = t[0][(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace

std::uint32_t Crc32(std::string_view data) {
  return Advance(0xffffffffu,
                 reinterpret_cast<const unsigned char*>(data.data()),
                 data.size()) ^
         0xffffffffu;
}

void Crc32Accumulator::Update(const void* data, std::size_t size) {
  state_ = Advance(state_, static_cast<const unsigned char*>(data), size);
}

}  // namespace cyclestream
