// Minimal binary serialization for trained models.
//
// The paper's deployment story ships a trained model from the vendor site to
// customer sites (Fig. 1); BinaryWriter/BinaryReader implement the on-disk
// format used by core::Predictor::Save/Load. The format is little-endian,
// versioned by the caller, and intentionally simple: fixed-width scalars,
// length-prefixed strings and vectors.
#pragma once

#include <cstdint>
#include <ostream>
#include <istream>
#include <string>
#include <vector>

namespace qpp {

/// Streams plain-old-data values to an ostream in little-endian order.
class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& os) : os_(os) {}

  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v);
  void WriteDouble(double v);
  void WriteString(const std::string& s);
  void WriteDoubles(const std::vector<double>& v);
  void WriteSizes(const std::vector<size_t>& v);

 private:
  void WriteRaw(const void* p, size_t n);
  std::ostream& os_;
};

/// Mirror image of BinaryWriter. Throws qpp::CheckFailure on truncated or
/// corrupt input. A length prefix is refused before anything is allocated
/// when the stream cannot hold that many elements, so a corrupt or hostile
/// file cannot make the reader allocate more than the file's own size (a
/// stream that cannot seek is read in bounded chunks instead).
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& is) : is_(is) {}

  uint32_t ReadU32();
  uint64_t ReadU64();
  int64_t ReadI64();
  double ReadDouble();
  std::string ReadString();
  std::vector<double> ReadDoubles();
  std::vector<size_t> ReadSizes();

 private:
  void ReadRaw(void* p, size_t n);
  /// Reads a length prefix for elements of `elem_bytes` bytes and checks it
  /// against the bytes left in the stream (when the stream can tell).
  uint64_t ReadLength(size_t elem_bytes);
  /// Bytes between the read position and the end of the stream, or
  /// UINT64_MAX when the stream cannot seek.
  uint64_t BytesLeft();
  std::istream& is_;
};

}  // namespace qpp
