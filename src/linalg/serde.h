// Binary (de)serialization for linalg types, shared by all model formats.
#pragma once

#include "common/check.h"
#include "common/serde.h"
#include "linalg/matrix.h"

namespace qpp::linalg {

inline void WriteMatrix(BinaryWriter* w, const Matrix& m) {
  w->WriteU64(m.rows());
  w->WriteU64(m.cols());
  w->WriteDoubles(m.data());
}

/// The payload is read (and bounded by the stream) before the shape is
/// trusted: the shape must account for exactly the doubles read.
inline Matrix ReadMatrix(BinaryReader* r) {
  const uint64_t rows = r->ReadU64();
  const uint64_t cols = r->ReadU64();
  std::vector<double> data = r->ReadDoubles();
  QPP_CHECK_MSG(
      cols == 0 ? data.empty()
                : data.size() % cols == 0 && data.size() / cols == rows,
      "corrupt matrix payload");
  Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  m.data() = std::move(data);
  return m;
}

}  // namespace qpp::linalg
