#ifndef CYCLESTREAM_UTIL_CRC32_H_
#define CYCLESTREAM_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cyclestream {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320 polynomial) over `data`.
/// Guards the checkpoint snapshots (stream/checkpoint), the shard state
/// frames (engine/shard) and the binary edge-stream files
/// (graph/binary_io) against torn writes and bit rot. Portable
/// slice-by-16 tables: sixteen bytes per step, same values as the
/// byte-at-a-time definition.
std::uint32_t Crc32(std::string_view data);

/// Incremental CRC-32 for writers that stream their payload (edge2bin
/// converts arbitrarily large edge lists without buffering them):
///
///   Crc32Accumulator crc;
///   crc.Update(block, n); ...
///   header.payload_crc = crc.Final();
///
/// Final() does not consume the accumulator; further Update calls continue
/// the same running checksum.
class Crc32Accumulator {
 public:
  void Update(const void* data, std::size_t size);
  std::uint32_t Final() const { return state_ ^ 0xffffffffu; }

 private:
  std::uint32_t state_ = 0xffffffffu;
};

}  // namespace cyclestream

#endif  // CYCLESTREAM_UTIL_CRC32_H_
