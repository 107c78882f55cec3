#include "simfuzz/harness.h"

#include <algorithm>
#include <array>
#include <iomanip>
#include <sstream>

#include "dsl/dsl.h"
#include "gpusim/device.h"
#include "simfuzz/generator.h"
#include "simfuzz/minimize.h"
#include "simprof/metrics.h"

namespace simtomp::simfuzz {

namespace {

using dsl::OmpContext;
using gpusim::GlobalSpan;

// ---------------------------------------------------------------------
// Kernel construction
// ---------------------------------------------------------------------

/// Ballast payload captured by the inner simd body. Globalization in
/// generic parallel mode copies the whole body into the sharing space,
/// so N scales the sharing-space pressure: N=44 (352 bytes) overflows
/// a 256-byte space into global memory — the specified fallback path.
template <size_t N>
struct Ballast {
  std::array<int64_t, N> words{};
};

constexpr size_t kBallastWords[3] = {1, 16, 44};

template <size_t N>
Ballast<N> makeBallast() {
  Ballast<N> ballast;
  for (size_t i = 0; i < N; ++i) {
    ballast.words[i] = static_cast<int64_t>(i % 3);
  }
  return ballast;
}

/// Host-side mirror of Ballast<N>::words[idx % N].
int64_t ballastAt(uint32_t pressure, uint64_t idx) {
  const size_t n = kBallastWords[pressure];
  return static_cast<int64_t>((idx % n) % 3);
}

// The injected mutations (kernel lambdas below, never the reference):
//   kOffByOne       +1 on out[row] when simdlen > 1 and row % 7 == 3.
//                   Gated on *program* simdlen, not the runtime's
//                   clamped value, so every cell of the matrix diverges
//                   identically and cross-arch comparison stays valid.
//   kDropIteration  skip the last inner iteration of row 1 (fires only
//                   when outerTrip >= 2 and innerTrip >= 1).

/// Launch the program's kernel. Every store is owned by exactly one
/// OpenMP thread's leader lane (or goes through atomicAdd), so the
/// program is race-free by construction on every schedule.
template <size_t N>
Result<gpusim::KernelStats> launchKernel(gpusim::Device& dev,
                                         const FuzzProgram& p,
                                         const dsl::LaunchSpec& spec,
                                         GlobalSpan<double> out,
                                         GlobalSpan<double> out2,
                                         GlobalSpan<double> acc) {
  const uint64_t inner = p.innerTrip;
  const int64_t a = p.a;
  const int64_t b = p.b;
  const uint64_t outer = p.outerTrip;
  const InjectKind inject = p.inject;
  const uint32_t progSimdlen = p.simdlen;
  const BodyKind bodyKind = p.body;
  const Ballast<N> ballast = makeBallast<N>();

  if (p.construct == Construct::kBarrierParallel) {
    // Two phases split by a team barrier: phase 1 publishes the row
    // value into the out2 scratch, phase 2 reads it back and doubles
    // it. Full-SPMD launch (normalize() guarantees it).
    return dsl::target(dev, spec, [&](OmpContext& ctx) {
      const omprt::rt::Range r = omprt::rt::distributeStatic(ctx, outer);
      auto region = [out, out2, r, a, b, inject, progSimdlen](
                        OmpContext& c) {
        const uint32_t tn = c.threadNum();
        const uint32_t nt = c.numThreads();
        for (uint64_t row = r.begin + tn; row < r.end; row += nt) {
          if (c.isSimdGroupLeader()) {
            out2.set(c.gpu(), row,
                     static_cast<double>(a * static_cast<int64_t>(row) + b));
          }
        }
        omprt::rt::teamBarrier(c);
        for (uint64_t row = r.begin + tn; row < r.end; row += nt) {
          if (c.isSimdGroupLeader()) {
            const int64_t bias = (inject == InjectKind::kOffByOne &&
                                  progSimdlen > 1 && row % 7 == 3)
                                     ? 1
                                     : 0;
            out.set(c.gpu(), row,
                    out2.get(c.gpu(), row) * 2.0 + static_cast<double>(bias));
          }
        }
      };
      dsl::parallel(ctx, region, spec.parallelConfig());
    });
  }

  // Per-row body shared by the dpf and sched constructs. In SPMD
  // parallel mode every lane of the owning group runs it (hence the
  // leader guards); in generic mode only the leader does.
  auto rowBody = [out, out2, acc, inner, a, b, inject, progSimdlen, bodyKind,
                  ballast](OmpContext& ctx, uint64_t row) {
    const int64_t bias =
        (inject == InjectKind::kOffByOne && progSimdlen > 1 && row % 7 == 3)
            ? 1
            : 0;
    switch (bodyKind) {
      case BodyKind::kAffineMap: {
        if (ctx.isSimdGroupLeader()) {
          out.set(ctx.gpu(), row,
                  static_cast<double>(a * static_cast<int64_t>(row) + b +
                                      bias));
        }
        break;
      }
      case BodyKind::kSimdNest: {
        if (ctx.isSimdGroupLeader()) {
          out.set(ctx.gpu(), row,
                  static_cast<double>(a * static_cast<int64_t>(row) + b +
                                      bias));
        }
        auto body = [out2, ballast, row, inner, a, b, inject](OmpContext& c,
                                                              uint64_t k) {
          if (inject == InjectKind::kDropIteration && row == 1 &&
              k + 1 == inner) {
            return;
          }
          const int64_t v = a * static_cast<int64_t>(row + k) + b +
                            ballast.words[(row + k) % N];
          out2.set(c.gpu(), row * inner + k, static_cast<double>(v));
        };
        dsl::simd(ctx, inner, body);
        break;
      }
      case BodyKind::kConvergentMap: {
        if (ctx.isSimdGroupLeader()) {
          out.set(ctx.gpu(), row,
                  static_cast<double>(a * static_cast<int64_t>(row) + b +
                                      bias));
        }
        // Hazard-free by construction (no branches, atomics or
        // barriers), so the convergent declaration is truthful and the
        // fast path may batch it. The injected mutations deliberately
        // stay out of this body.
        auto body = dsl::convergent(
            [out2, ballast, row, inner, a, b](OmpContext& c, uint64_t k) {
              const int64_t v = a * static_cast<int64_t>(row + k) + b +
                                ballast.words[(row + k) % N];
              out2.set(c.gpu(), row * inner + k, static_cast<double>(v));
            });
        dsl::simd(ctx, inner, body);
        break;
      }
      case BodyKind::kSimdReduce: {
        // Hazard-free (pure arithmetic), so the fast-path cells batch it.
        auto body = dsl::convergent(
            [ballast, row, a, b](OmpContext&, uint64_t k) -> double {
              return static_cast<double>(a * static_cast<int64_t>(row + k) +
                                         b + ballast.words[(row + k) % N]);
            });
        const double total = dsl::simdReduceAdd(ctx, inner, body);
        if (ctx.isSimdGroupLeader()) {
          out.set(ctx.gpu(), row, total + static_cast<double>(bias));
        }
        break;
      }
      case BodyKind::kAtomicSum: {
        if (ctx.isSimdGroupLeader()) {
          out.set(ctx.gpu(), row,
                  static_cast<double>(a * static_cast<int64_t>(row) + b +
                                      bias));
        }
        auto body = [acc, row, inner, inject](OmpContext& c, uint64_t k) {
          if (inject == InjectKind::kDropIteration && row == 1 &&
              k + 1 == inner) {
            return;
          }
          acc.atomicAdd(c.gpu(), 0, static_cast<double>((row + k) % 5));
        };
        dsl::simd(ctx, inner, body);
        break;
      }
    }
  };

  if (p.construct == Construct::kScheduledFor) {
    return dsl::target(dev, spec, [&](OmpContext& ctx) {
      const omprt::rt::Range r = omprt::rt::distributeStatic(ctx, outer);
      auto shifted = [&rowBody, base = r.begin](OmpContext& c,
                                                uint64_t logical) {
        rowBody(c, base + logical);
      };
      dsl::parallelForSchedule(ctx, r.size(), shifted,
                               omprt::ScheduleClause{p.schedKind, p.schedChunk},
                               spec.parallelConfig());
    });
  }
  return dsl::targetTeamsDistributeParallelFor(dev, spec, outer, rowBody);
}

Result<gpusim::KernelStats> launchDispatch(gpusim::Device& dev,
                                           const FuzzProgram& p,
                                           const dsl::LaunchSpec& spec,
                                           GlobalSpan<double> out,
                                           GlobalSpan<double> out2,
                                           GlobalSpan<double> acc) {
  switch (p.pressure) {
    case 1:
      return launchKernel<16>(dev, p, spec, out, out2, acc);
    case 2:
      return launchKernel<44>(dev, p, spec, out, out2, acc);
    default:
      return launchKernel<1>(dev, p, spec, out, out2, acc);
  }
}

// ---------------------------------------------------------------------
// Differential cells
// ---------------------------------------------------------------------

gpusim::ArchSpec archById(int id) {
  switch (id) {
    case 1:
      return gpusim::ArchSpec::nvidiaA100();
    case 2:
      return gpusim::ArchSpec::amdMI100();
    default:
      return gpusim::ArchSpec::testTiny();
  }
}

struct CellSpec {
  const char* name;
  int archId;               // 0 testTiny, 1 a100, 2 mi100
  uint32_t hostWorkers;
  omprt::FastPathMode fastPath;
  bool compareStats;        // same-arch determinism oracle vs cell 0
  bool crossArchOnly;
};

/// The differential matrix. Cell 0 is the stats anchor; the other
/// testTiny cells must reproduce its modeled stats bit-for-bit
/// (worker-count and fast-path determinism). Outputs and check
/// cleanliness are compared on every cell.
constexpr CellSpec kCells[] = {
    {"tiny/w1/fp-off", 0, 1, omprt::FastPathMode::kOff, false, false},
    {"tiny/w8/fp-off", 0, 8, omprt::FastPathMode::kOff, true, false},
    {"tiny/w1/fp-on", 0, 1, omprt::FastPathMode::kOn, true, false},
    {"tiny/w8/fp-auto", 0, 8, omprt::FastPathMode::kAuto, true, false},
    {"a100/w8/fp-on", 1, 8, omprt::FastPathMode::kOn, false, true},
    {"mi100/w8/fp-on", 2, 8, omprt::FastPathMode::kOn, false, true},
};

std::string formatValue(double v) {
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

/// Name a flat data index by segment: out[...], out2[...] or acc.
std::string indexName(const FuzzProgram& p, size_t i) {
  if (i < p.outerTrip) return "out[" + std::to_string(i) + "]";
  const size_t j = i - p.outerTrip;
  if (j < p.outerTrip * p.innerTrip) return "out2[" + std::to_string(j) + "]";
  return "acc";
}

std::string firstLine(const std::string& text) {
  const size_t eol = text.find('\n');
  return eol == std::string::npos ? text : text.substr(0, eol);
}

class NoteSink {
 public:
  NoteSink(DiffResult& result, uint32_t maxNotes)
      : result_(result), max_notes_(maxNotes) {}

  void add(std::string note) {
    if (result_.notes.size() < max_notes_) {
      result_.notes.push_back(std::move(note));
    } else {
      ++result_.droppedNotes;
    }
  }

 private:
  DiffResult& result_;
  uint32_t max_notes_;
};

}  // namespace

std::vector<double> referenceRun(const FuzzProgram& p) {
  std::vector<double> data(p.dataSize(), 0.0);
  double* out = data.data();
  double* out2 = data.data() + p.outerTrip;
  double& acc = data[p.dataSize() - 1];
  const uint64_t inner = p.innerTrip;

  if (p.construct == Construct::kBarrierParallel) {
    for (uint64_t row = 0; row < p.outerTrip; ++row) {
      const int64_t v = p.a * static_cast<int64_t>(row) + p.b;
      out2[row] = static_cast<double>(v);
      out[row] = static_cast<double>(v) * 2.0;
    }
    return data;
  }

  for (uint64_t row = 0; row < p.outerTrip; ++row) {
    const int64_t rowValue = p.a * static_cast<int64_t>(row) + p.b;
    switch (p.body) {
      case BodyKind::kAffineMap:
        out[row] = static_cast<double>(rowValue);
        break;
      case BodyKind::kSimdNest:
      case BodyKind::kConvergentMap:
        out[row] = static_cast<double>(rowValue);
        for (uint64_t k = 0; k < inner; ++k) {
          out2[row * inner + k] = static_cast<double>(
              p.a * static_cast<int64_t>(row + k) + p.b +
              ballastAt(p.pressure, row + k));
        }
        break;
      case BodyKind::kSimdReduce: {
        double total = 0.0;
        for (uint64_t k = 0; k < inner; ++k) {
          total += static_cast<double>(p.a * static_cast<int64_t>(row + k) +
                                       p.b + ballastAt(p.pressure, row + k));
        }
        out[row] = total;
        break;
      }
      case BodyKind::kAtomicSum:
        out[row] = static_cast<double>(rowValue);
        for (uint64_t k = 0; k < inner; ++k) {
          acc += static_cast<double>((row + k) % 5);
        }
        break;
    }
  }
  return data;
}

SimRun runOnSim(const FuzzProgram& p, const RunOptions& opt) {
  SimRun run;
  gpusim::Device dev(opt.arch);
  const size_t n = p.dataSize();
  auto alloc = dev.allocateArray<double>(n);
  if (!alloc.isOk()) {
    run.status = alloc.status();
    return run;
  }
  GlobalSpan<double> all = alloc.value();
  std::fill(all.hostSpan().begin(), all.hostSpan().end(), 0.0);
  const GlobalSpan<double> out = all.subspan(0, p.outerTrip);
  const GlobalSpan<double> out2 =
      all.subspan(p.outerTrip, p.outerTrip * p.innerTrip);
  const GlobalSpan<double> acc = all.subspan(n - 1, 1);

  dsl::LaunchSpec spec = p.launchSpec();
  static_cast<gpusim::LaunchOptions&>(spec) = opt;

  auto stats = launchDispatch(dev, p, spec, out, out2, acc);
  simprof::MetricsRegistry::global().add(simprof::metric::kFuzzRunsTotal);

  const simcheck::CheckReport& report = dev.lastCheckReport();
  run.checkClean = report.clean();
  if (!run.checkClean) run.checkSummary = report.summary();

  if (!stats.isOk()) {
    run.status = stats.status();
    return run;
  }
  run.statsKey =
      std::to_string(stats.value().cycles) + "|" + stats.value().csvRow();
  run.data.assign(all.hostSpan().begin(), all.hostSpan().end());
  return run;
}

DiffResult diffProgram(const FuzzProgram& p, const DiffOptions& opt) {
  DiffResult result;
  NoteSink notes(result, opt.maxNotes);
  const std::vector<double> want = referenceRun(p);

  std::string anchorStats;  // cell 0's stats key (same-arch oracle)
  for (const CellSpec& cell : kCells) {
    if (cell.crossArchOnly && !opt.crossArch) continue;

    RunOptions ro;
    ro.arch = archById(cell.archId);
    ro.hostWorkers = cell.hostWorkers;
    ro.fastPath = cell.fastPath;
    if (!opt.faultSpec.empty()) ro.fault.spec = opt.faultSpec;
    const SimRun run = runOnSim(p, ro);
    ++result.runs;

    if (!run.checkClean) {
      notes.add(std::string(cell.name) +
                ": check report not clean: " + firstLine(run.checkSummary));
    }
    if (!run.status.isOk()) {
      notes.add(std::string(cell.name) +
                ": launch failed: " + firstLine(run.status.toString()));
      continue;
    }
    for (size_t i = 0; i < want.size(); ++i) {
      if (run.data[i] != want[i]) {
        notes.add(std::string(cell.name) + ": " + indexName(p, i) + " = " +
                  formatValue(run.data[i]) + " want " + formatValue(want[i]));
      }
    }
    if (cell.compareStats) {
      if (anchorStats.empty()) {
        // Anchor failed; nothing to compare against.
      } else if (run.statsKey != anchorStats) {
        notes.add(std::string(cell.name) +
                  ": modeled stats differ from tiny/w1/fp-off");
      }
    } else if (cell.archId == 0) {
      anchorStats = run.statsKey;
    }
    if (opt.failFast && result.diverged()) break;
  }
  return result;
}

CampaignResult runCampaign(const CampaignOptions& opt) {
  CampaignResult result;
  Generator gen(opt.generatorSalt);
  auto& metrics = simprof::MetricsRegistry::global();
  std::ostringstream log;

  log << "simfuzz findings v1\n";
  log << "seeds=[" << opt.seedBegin << "," << opt.seedEnd << ")"
      << " archs=" << (opt.diff.crossArch ? "tiny+a100+mi100" : "tiny")
      << " inject=" << injectKindName(opt.inject) << " fault="
      << (opt.diff.faultSpec.empty() ? "off" : opt.diff.faultSpec.c_str())
      << "\n";

  for (uint64_t seed = opt.seedBegin; seed < opt.seedEnd; ++seed) {
    FuzzProgram p = gen.generate(seed);
    p.inject = opt.inject;
    ++result.programs;
    metrics.add(simprof::metric::kFuzzProgramsTotal);

    const DiffResult diff = diffProgram(p, opt.diff);
    result.runs += diff.runs;
    if (!diff.diverged()) {
      log << "seed=" << seed << " ok\n";
      continue;
    }

    metrics.add(simprof::metric::kFuzzDivergencesTotal);
    Finding finding;
    finding.seed = seed;
    finding.program = p;
    finding.notes = diff.notes;
    finding.minimized = p;

    log << "seed=" << seed << " DIVERGE notes=" << diff.notes.size();
    if (diff.droppedNotes != 0) log << " (+" << diff.droppedNotes << " more)";
    log << "\n";
    for (const std::string& note : diff.notes) {
      log << "  note " << note << "\n";
    }
    log << "  program: " << p.serialize() << "\n";

    if (opt.minimize) {
      DiffOptions minimizeDiff = opt.diff;
      minimizeDiff.failFast = true;
      auto pred = [&](const FuzzProgram& candidate) {
        const DiffResult d = diffProgram(candidate, minimizeDiff);
        result.runs += d.runs;
        return d.diverged();
      };
      const MinimizeResult mini = minimizeProgram(p, pred);
      finding.minimized = mini.program;
      finding.minimizeSteps = mini.steps;
      result.minimizeSteps += mini.steps;
      metrics.add(simprof::metric::kFuzzMinimizeStepsTotal, mini.steps);
      log << "  minimized (" << mini.steps << " steps, " << mini.tested
          << " candidates): " << mini.program.serialize() << "\n";
    }
    result.findings.push_back(std::move(finding));
  }

  log << "summary programs=" << result.programs << " runs=" << result.runs
      << " divergences=" << result.findings.size()
      << " minimize-steps=" << result.minimizeSteps << "\n";
  result.log = log.str();
  return result;
}

}  // namespace simtomp::simfuzz
