// stencil_pipeline: resident device data + asynchronous target tasks.
//
// A multi-sweep Jacobi solver in the style the paper's laplace3d kernel
// comes from: the grid stays mapped on the device across sweeps
// (`target data`), each sweep is an offloaded kernel with three levels
// of parallelism, and independent diagnostics kernels run as deferred
// `target nowait` tasks on the hidden helper queue.
#include <cstdio>
#include <vector>

#include "dsl/dsl.h"
#include "hostrt/async.h"
#include "hostrt/data_env.h"

using namespace simtomp;

namespace {

constexpr uint32_t kN = 34;  // grid points per dimension
constexpr uint32_t kSweeps = 4;

uint64_t idx3(uint64_t i, uint64_t j, uint64_t k) {
  return (i * kN + j) * kN + k;
}

}  // namespace

int main() {
  std::vector<double> grid(static_cast<size_t>(kN) * kN * kN, 0.0);
  // Hot plate boundary at i == 0.
  for (uint64_t j = 0; j < kN; ++j) {
    for (uint64_t k = 0; k < kN; ++k) grid[idx3(0, j, k)] = 100.0;
  }

  gpusim::Device device;
  hostrt::DataEnvironment env(device);
  std::vector<double> scratch = grid;

  // #pragma omp target data map(tofrom: grid) map(alloc: scratch)
  hostrt::MappedSpan<double> grid_map(env, std::span<double>(grid),
                                      hostrt::MapType::kToFrom);
  hostrt::MappedSpan<double> scratch_map(env, std::span<double>(scratch),
                                         hostrt::MapType::kTo);
  auto dev_grid = grid_map.device();
  auto dev_scratch = scratch_map.device();

  dsl::LaunchSpec spec;
  spec.numTeams = 32;
  spec.threadsPerTeam = 128;
  spec.teamsMode = omprt::ExecMode::kSPMD;
  spec.parallelMode = omprt::ExecMode::kSPMD;  // tightly nested => SPMD
  spec.simdlen = 32;

  const uint64_t interior = kN - 2;
  uint64_t total_cycles = 0;

  for (uint32_t sweep = 0; sweep < kSweeps; ++sweep) {
    auto& src = (sweep % 2 == 0) ? dev_grid : dev_scratch;
    auto& dst = (sweep % 2 == 0) ? dev_scratch : dev_grid;
    auto stats = dsl::targetTeamsDistributeParallelFor(
        device, spec, interior * interior,
        [&](dsl::OmpContext& ctx, uint64_t plane) {
          const uint64_t i = plane / interior + 1;
          const uint64_t j = plane % interior + 1;
          // Six loads, fmas and one store per lane: declared convergent.
          dsl::simd(ctx, interior, dsl::convergent([&, i, j](
                                       dsl::OmpContext& c, uint64_t kk) {
            const uint64_t k = kk + 1;
            gpusim::ThreadCtx& t = c.gpu();
            const double sum =
                src.get(t, idx3(i - 1, j, k)) + src.get(t, idx3(i + 1, j, k)) +
                src.get(t, idx3(i, j - 1, k)) + src.get(t, idx3(i, j + 1, k)) +
                src.get(t, idx3(i, j, k - 1)) + src.get(t, idx3(i, j, k + 1));
            t.fma(3);
            dst.set(t, idx3(i, j, k), sum / 6.0);
          }));
        });
    if (!stats.isOk()) {
      std::fprintf(stderr, "sweep %u failed: %s\n", sweep,
                   stats.status().toString().c_str());
      return 1;
    }
    total_cycles += stats.value().cycles;
  }

  // Deferred diagnostics: `target nowait` tasks computing per-slab
  // absolute sums while the host does other work.
  hostrt::TargetTaskQueue queue(device);
  std::vector<double> slab_sums(4, 0.0);
  auto& final_grid = (kSweeps % 2 == 0) ? dev_grid : dev_scratch;
  std::vector<std::future<Result<gpusim::KernelStats>>> futures;
  for (int slab = 0; slab < 4; ++slab) {
    omprt::TargetConfig config;
    config.teamsMode = omprt::ExecMode::kSPMD;
    config.numTeams = 1;
    config.threadsPerTeam = 64;
    futures.push_back(queue.enqueue(config, [&, slab](dsl::OmpContext& ctx) {
      // One team sums a quarter of the i-range with a simd reduction.
      const uint64_t i0 = 1 + slab * (interior / 4);
      const uint64_t i1 = i0 + interior / 4;
      dsl::parallel(
          ctx,
          [&, i0, i1](dsl::OmpContext& inner) {
            double local = 0.0;
            for (uint64_t i = i0; i < i1; ++i) {
              for (uint64_t j = 1; j <= interior; j += inner.numThreads()) {
                const uint64_t jj = j + inner.threadNum();
                if (jj > interior) continue;
                local += dsl::simdReduceAdd(
                    inner, interior,
                    dsl::convergent([&, i, jj](dsl::OmpContext& c,
                                               uint64_t kk) {
                      const double v =
                          final_grid.get(c.gpu(), idx3(i, jj, kk + 1));
                      return v < 0 ? -v : v;
                    }));
              }
            }
            if (inner.simdGroupId() == 0) {
              // One leader per group accumulates atomically.
              gpusim::GlobalSpan<double> sums(&slab_sums[slab], 1);
              sums.atomicAdd(inner.gpu(), 0, local);
            }
          },
          omprt::ParallelConfig{omprt::ExecMode::kSPMD, 16});
    }));
  }
  for (auto& f : futures) {
    auto r = f.get();
    if (!r.isOk()) {
      std::fprintf(stderr, "diagnostic task failed\n");
      return 1;
    }
  }

  std::printf("stencil_pipeline OK\n");
  std::printf("  sweeps                 : %u\n", kSweeps);
  std::printf("  total simulated cycles : %llu\n",
              static_cast<unsigned long long>(total_cycles));
  for (int slab = 0; slab < 4; ++slab) {
    std::printf("  |slab %d| heat         : %.2f\n", slab, slab_sums[slab]);
  }
  return 0;
}
