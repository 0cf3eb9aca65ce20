#include "common/serde.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace qpp {

void BinaryWriter::WriteRaw(const void* p, size_t n) {
  os_.write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  QPP_CHECK_MSG(os_.good(), "write failed");
}

void BinaryWriter::WriteU32(uint32_t v) { WriteRaw(&v, sizeof v); }
void BinaryWriter::WriteU64(uint64_t v) { WriteRaw(&v, sizeof v); }
void BinaryWriter::WriteI64(int64_t v) { WriteRaw(&v, sizeof v); }
void BinaryWriter::WriteDouble(double v) { WriteRaw(&v, sizeof v); }

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  if (!s.empty()) WriteRaw(s.data(), s.size());
}

void BinaryWriter::WriteDoubles(const std::vector<double>& v) {
  WriteU64(v.size());
  if (!v.empty()) WriteRaw(v.data(), v.size() * sizeof(double));
}

void BinaryWriter::WriteSizes(const std::vector<size_t>& v) {
  WriteU64(v.size());
  for (size_t x : v) WriteU64(static_cast<uint64_t>(x));
}

void BinaryReader::ReadRaw(void* p, size_t n) {
  is_.read(static_cast<char*>(p), static_cast<std::streamsize>(n));
  QPP_CHECK_MSG(is_.gcount() == static_cast<std::streamsize>(n),
                "truncated model file");
}

uint32_t BinaryReader::ReadU32() {
  uint32_t v;
  ReadRaw(&v, sizeof v);
  return v;
}

uint64_t BinaryReader::ReadU64() {
  uint64_t v;
  ReadRaw(&v, sizeof v);
  return v;
}

int64_t BinaryReader::ReadI64() {
  int64_t v;
  ReadRaw(&v, sizeof v);
  return v;
}

double BinaryReader::ReadDouble() {
  double v;
  ReadRaw(&v, sizeof v);
  return v;
}

uint64_t BinaryReader::BytesLeft() {
  const std::streampos here = is_.tellg();
  if (here == std::streampos(-1)) return UINT64_MAX;
  is_.seekg(0, std::ios::end);
  const std::streampos end = is_.tellg();
  is_.seekg(here);
  if (end == std::streampos(-1) || !is_.good()) {
    is_.clear();
    is_.seekg(here);
    return UINT64_MAX;
  }
  return end > here ? static_cast<uint64_t>(end - here) : 0;
}

uint64_t BinaryReader::ReadLength(size_t elem_bytes) {
  const uint64_t n = ReadU64();
  QPP_CHECK_MSG(n < (1ull << 32), "implausible length " << n);
  const uint64_t left = BytesLeft();
  QPP_CHECK_MSG(left == UINT64_MAX || n <= left / elem_bytes,
                "length " << n << " exceeds the " << left
                          << " bytes left in the model file");
  return n;
}

namespace {

/// Elements read per step from a stream that cannot report its size, so a
/// bogus length fails on truncation after at most one chunk's allocation.
constexpr uint64_t kChunkBytes = uint64_t{1} << 20;

}  // namespace

std::string BinaryReader::ReadString() {
  const uint64_t n = ReadLength(1);
  std::string s;
  while (s.size() < n) {
    const size_t old = s.size();
    s.resize(old + std::min(n - old, kChunkBytes));
    ReadRaw(s.data() + old, s.size() - old);
  }
  return s;
}

std::vector<double> BinaryReader::ReadDoubles() {
  const uint64_t n = ReadLength(sizeof(double));
  std::vector<double> v;
  while (v.size() < n) {
    const size_t old = v.size();
    v.resize(old + std::min(n - old, kChunkBytes / sizeof(double)));
    ReadRaw(v.data() + old, (v.size() - old) * sizeof(double));
  }
  return v;
}

std::vector<size_t> BinaryReader::ReadSizes() {
  const uint64_t n = ReadLength(sizeof(uint64_t));
  std::vector<size_t> v;
  for (uint64_t i = 0; i < n; ++i) v.push_back(static_cast<size_t>(ReadU64()));
  return v;
}

}  // namespace qpp
