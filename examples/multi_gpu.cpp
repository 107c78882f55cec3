// multi_gpu: `device(n)` offloading across a heterogeneous node.
//
// A DeviceManager hosts one NVIDIA-like and one AMD-like simulated
// device. A batch of independent SpMV-style tiles is split across them
// with `target nowait`-style deferred launches; each device gets its
// own data environment, and the AMD device transparently runs the same
// three-level source with its degraded generic-SIMD (section 5.4.1).
#include <cstdio>
#include <vector>

#include "dsl/dsl.h"
#include "hostrt/device_manager.h"

using namespace simtomp;

namespace {

constexpr uint64_t kTiles = 8;
constexpr uint64_t kRowsPerTile = 512;
constexpr uint64_t kInner = 24;

double expectedRowValue(uint64_t tile, uint64_t row) {
  double sum = 0.0;
  for (uint64_t k = 0; k < kInner; ++k) {
    sum += static_cast<double>((tile + row + k) % 11);
  }
  return sum;
}

}  // namespace

int main() {
  hostrt::DeviceManager mgr(
      {gpusim::ArchSpec::nvidiaA100(), gpusim::ArchSpec::amdMI100()});
  std::printf("multi_gpu: %zu devices\n", mgr.numDevices());

  std::vector<std::vector<double>> outputs(
      kTiles, std::vector<double>(kRowsPerTile, 0.0));
  std::vector<std::future<Result<gpusim::KernelStats>>> futures;

  for (uint64_t tile = 0; tile < kTiles; ++tile) {
    const size_t device_id = tile % mgr.numDevices();
    omprt::TargetConfig config;
    config.teamsMode = omprt::ExecMode::kSPMD;
    config.numTeams = 8;
    config.threadsPerTeam = 128;  // multiple of both warp widths
    auto* out = &outputs[tile];
    futures.push_back(mgr.launchOnAsync(
        device_id, config, [out, tile](dsl::OmpContext& ctx) {
          const omprt::rt::Range range =
              omprt::rt::distributeStatic(ctx, kRowsPerTile);
          auto rows = [out, tile](dsl::OmpContext& inner, uint64_t row) {
            const double sum = dsl::simdReduceAdd(
                inner, kInner,
                dsl::convergent([tile, row](dsl::OmpContext& c, uint64_t k) {
                  c.gpu().fma();
                  return static_cast<double>((tile + row + k) % 11);
                }));
            if (inner.simdGroupId() == 0) (*out)[row] = sum;
          };
          auto shifted = [&rows, base = range.begin](dsl::OmpContext& inner,
                                                     uint64_t logical) {
            rows(inner, base + logical);
          };
          dsl::parallelFor(ctx, range.size(), shifted,
                           omprt::ParallelConfig{omprt::ExecMode::kSPMD, 8});
        }));
  }

  uint64_t cycles_per_device[2] = {0, 0};
  for (uint64_t tile = 0; tile < kTiles; ++tile) {
    auto result = futures[tile].get();
    if (!result.isOk()) {
      std::fprintf(stderr, "tile %llu failed: %s\n",
                   static_cast<unsigned long long>(tile),
                   result.status().toString().c_str());
      return 1;
    }
    cycles_per_device[tile % 2] += result.value().cycles;
  }

  // Verify everything.
  for (uint64_t tile = 0; tile < kTiles; ++tile) {
    for (uint64_t row = 0; row < kRowsPerTile; ++row) {
      if (outputs[tile][row] != expectedRowValue(tile, row)) {
        std::fprintf(stderr, "mismatch tile %llu row %llu\n",
                     static_cast<unsigned long long>(tile),
                     static_cast<unsigned long long>(row));
        return 1;
      }
    }
  }

  std::printf("multi_gpu OK: %llu rows verified\n",
              static_cast<unsigned long long>(kTiles * kRowsPerTile));
  std::printf("  device 0 (%s): %llu cycles across its tiles\n",
              mgr.device(0).arch().name.c_str(),
              static_cast<unsigned long long>(cycles_per_device[0]));
  std::printf("  device 1 (%s): %llu cycles across its tiles\n",
              mgr.device(1).arch().name.c_str(),
              static_cast<unsigned long long>(cycles_per_device[1]));
  return 0;
}
