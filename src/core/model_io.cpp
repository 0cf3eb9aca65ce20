#include "core/model_io.h"

#include <fstream>
#include <new>

namespace qpp::core {

Status SaveModelFile(const Predictor& predictor, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) return Status::Error("cannot open for write: " + path);
  try {
    predictor.Save(&os);
  } catch (const CheckFailure& e) {
    return Status::Error(std::string("model write failed: ") + e.what());
  }
  os.flush();
  if (!os.good()) return Status::Error("write failed: " + path);
  return Status::Ok();
}

Result<Predictor> LoadModelFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return Status::Error("cannot open for read: " + path);
  try {
    return Predictor::Load(&is);
  } catch (const CheckFailure& e) {
    return Status::Error(std::string("model read failed: ") + e.what());
  } catch (const std::bad_alloc&) {
    // Backstop: BinaryReader bounds every length prefix by the file size,
    // so a model file should never get here.
    return Status::Error("model read failed: out of memory: " + path);
  }
}

}  // namespace qpp::core
