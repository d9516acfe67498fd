// libFuzzer harness for checkpoint decoding, at both layers:
//   1. the on-disk frame (magic/version/seq/length/CRC) via
//      CheckpointManager::LoadLatest on a staged file, and
//   2. the payload decoders (StreamingSignatureBuilder and each sketch)
//      fed the raw input directly, bypassing the CRC that would otherwise
//      reject most mutations before the decoders ever see them.
// The property under test is "no crash / no sanitizer report".

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "robust/checkpoint.h"
#include "sketch/count_min.h"
#include "sketch/fm_sketch.h"
#include "sketch/space_saving.h"
#include "sketch/streaming_signatures.h"

namespace {

// Stages the input as `<dir>/ckpt.<seq>.ckpt` so LoadLatest picks it up.
std::string StageDir(const uint8_t* data, size_t size) {
  static std::string dir =
      "/tmp/commsig_fuzz_ckpt_" + std::to_string(::getpid());
  static std::string path = dir + "/ckpt.00000000000000000001.ckpt";
  static bool made = [] {
    return std::system(("mkdir -p " + dir).c_str()) == 0;
  }();
  if (!made) return {};
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return {};
  if (size > 0) std::fwrite(data, 1, size, f);
  std::fclose(f);
  return dir;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const std::string dir = StageDir(data, size);
  if (!dir.empty()) {
    commsig::CheckpointManager manager(dir);
    (void)manager.LoadLatest();
  }

  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  {
    commsig::ByteReader in(bytes);
    (void)commsig::StreamingSignatureBuilder::FromBytes(in);
  }
  {
    commsig::ByteReader in(bytes);
    (void)commsig::CountMinSketch::FromBytes(in);
  }
  {
    commsig::ByteReader in(bytes);
    (void)commsig::FmSketch::FromBytes(in);
  }
  {
    commsig::ByteReader in(bytes);
    (void)commsig::SpaceSaving::FromBytes(in);
  }
  return 0;
}
