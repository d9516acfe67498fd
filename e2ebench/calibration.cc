#include "calibration.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace commsig::e2e {
namespace {

volatile uint64_t calibration_sink = 0;

void RunLoop(std::vector<uint32_t>& data) {
  uint64_t x = 1;
  for (uint32_t& v : data) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    v = static_cast<uint32_t>(x >> 40);
  }
  std::sort(data.begin(), data.end());
  uint64_t sum = 0;
  for (size_t i = 0; i < data.size(); i += 3) {
    sum += data[(i * 2654435761u) % data.size()];
  }
  calibration_sink = sum;
}

}  // namespace

double CalibrationMs() {
  static std::vector<uint32_t> data = [] {
    std::vector<uint32_t> warm(1u << 19);
    RunLoop(warm);
    return warm;
  }();
  const auto start = std::chrono::steady_clock::now();
  RunLoop(data);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace commsig::e2e
