// directive_frontend: drive an offloaded kernel from directive text.
//
// The paper's lowering path is front-end independent (section 4.2);
// here the "front-end" is a string. The program parses an OpenMP-style
// directive, honours its map clauses against a name->array table,
// lowers the constructs to a launch spec (with the tightly-nested =>
// SPMD inference), and runs a SAXPY-with-inner-stencil kernel.
//
// Try editing the directive below: drop `simd` and the parallel region
// turns generic; add `parallel_mode(generic) simdlen(4)` and watch the
// cycle count move.
#include <cstdio>
#include <map>
#include <vector>

#include "front/directive.h"

using namespace simtomp;

int main() {
  const char* directive_text =
      "#pragma omp target teams distribute parallel for simd "
      "num_teams(32) thread_limit(128) simdlen(8) "
      "map(to: x) map(tofrom: y)";

  auto parsed = front::parseDirective(directive_text);
  if (!parsed.isOk()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().toString().c_str());
    return 1;
  }
  const front::DirectiveSpec& spec = parsed.value();
  std::printf("directive: %s\n", directive_text);
  std::printf("  constructs: %s%s%s%s%s%s\n", spec.hasTarget ? "target " : "",
              spec.hasTeams ? "teams " : "",
              spec.hasDistribute ? "distribute " : "",
              spec.hasParallel ? "parallel " : "", spec.hasFor ? "for " : "",
              spec.hasSimd ? "simd" : "");

  constexpr uint64_t kRows = 2048;
  constexpr uint64_t kInner = 16;
  std::vector<double> x(kRows * kInner);
  std::vector<double> y(kRows * kInner, 1.0);
  for (size_t i = 0; i < x.size(); ++i) x[i] = 0.001 * double(i % 1000);

  // Name -> host array table the map clauses resolve against.
  std::map<std::string, std::span<double>> symbols{
      {"x", std::span<double>(x)},
      {"y", std::span<double>(y)},
  };

  gpusim::Device device;
  hostrt::DataEnvironment env(device);
  for (const front::MapClause& map : spec.maps) {
    auto it = symbols.find(map.name);
    if (it == symbols.end()) {
      std::fprintf(stderr, "map names unknown symbol '%s'\n",
                   map.name.c_str());
      return 1;
    }
    const Status mapped = env.mapEnter(it->second, map.type);
    if (!mapped.isOk()) {
      std::fprintf(stderr, "map failed: %s\n", mapped.toString().c_str());
      return 1;
    }
    std::printf("  mapped %-2s (%zu bytes)\n", map.name.c_str(),
                it->second.size_bytes());
  }
  auto dev_x = env.deviceSpan(x.data()).value();
  auto dev_y = env.deviceSpan(y.data()).value();

  const dsl::LaunchSpec launch = spec.toLaunchSpec(device.arch());
  std::printf("  lowered: teams=%u x %u threads, teams %s, parallel %s, "
              "simdlen %u\n",
              launch.numTeams, launch.threadsPerTeam,
              omprt::execModeName(launch.teamsMode).data(),
              omprt::execModeName(launch.parallelMode).data(),
              launch.simdlen);

  auto stats = dsl::targetTeamsDistributeParallelFor(
      device, launch, kRows, [&](dsl::OmpContext& ctx, uint64_t row) {
        // Loads, one fma and a store per lane: no barrier, cross-lane
        // op or atomic, so the body is declared convergent.
        dsl::simd(ctx, kInner,
                  dsl::convergent([&, row](dsl::OmpContext& c, uint64_t k) {
                    const uint64_t i = row * kInner + k;
                    gpusim::ThreadCtx& t = c.gpu();
                    const double v = 2.0 * dev_x.get(t, i) + dev_y.get(t, i);
                    t.fma(1);
                    dev_y.set(t, i, v);
                  }));
      });
  if (!stats.isOk()) {
    std::fprintf(stderr, "launch failed: %s\n",
                 stats.status().toString().c_str());
    return 1;
  }

  // Exit the data region per the map clauses (from/tofrom copy back).
  for (const front::MapClause& map : spec.maps) {
    (void)env.mapExit(symbols.at(map.name).data(), map.type);
  }

  // Verify.
  for (size_t i = 0; i < y.size(); ++i) {
    const double expect = 2.0 * (0.001 * double(i % 1000)) + 1.0;
    if (y[i] != expect) {
      std::fprintf(stderr, "mismatch at %zu\n", i);
      return 1;
    }
  }
  std::printf("directive_frontend OK: %llu elements verified, "
              "%llu simulated cycles\n",
              static_cast<unsigned long long>(y.size()),
              static_cast<unsigned long long>(stats.value().cycles));
  return 0;
}
