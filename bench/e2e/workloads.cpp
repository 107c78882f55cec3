// The four closed-loop workloads. Each constructor is the set-up phase
// (devices, inputs, one warm-up op of each kind); runRound is one pass
// over a slice of the op list. Each workload's kRounds fixes its timed
// phase at 13-17 s on a quiet 4-vCPU Xeon virtual machine.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "apps/common.h"
#include "apps/csr.h"
#include "apps/ideal_kernel.h"
#include "apps/laplace3d.h"
#include "apps/sparse_matvec.h"
#include "apps/su3.h"
#include "dsl/dsl.h"
#include "e2e.h"
#include "gpusim/device.h"
#include "simfuzz/generator.h"
#include "simfuzz/harness.h"
#include "support/rng.h"

namespace simtomp::e2e {

namespace {

using gpusim::GlobalSpan;
using omprt::OmpContext;

/// Set-up failures end the run without a result (main catches this).
template <typename T>
T must(Result<T> result, const char* what) {
  if (!result.isOk()) {
    throw StatusException(Status::internal(std::string(what) + ": " +
                                           result.status().toString()));
  }
  return std::move(result).value();
}

// ---------------------------------------------------------------------
// spmd-convergent: bench/host_throughput's map and butterfly-reduce
// kernels, alternating. Inputs are small integers, so the reduce's sums
// are exact in any order and both kernels have closed forms.
// ---------------------------------------------------------------------

class SpmdConvergent final : public Workload {
 public:
  static constexpr uint64_t kRows = 1024;
  static constexpr uint64_t kInner = 32;  // = simdlen: one iteration per lane
  static constexpr uint64_t kRounds = 600;

  SpmdConvergent(uint64_t seed, uint32_t workers,
                 omprt::FastPathMode fastPath)
      : Workload(kRounds) {
    Rng rng(seed);
    host_in_.resize(kRows * kInner);
    for (double& v : host_in_) v = static_cast<double>(rng.nextBelow(64));
    in_ = must(apps::toDevice<double>(device_, host_in_), "spmd input");
    map_out_ = must(apps::zeroDevice<double>(device_, kRows * kInner),
                    "spmd map output");
    reduce_out_ =
        must(apps::zeroDevice<double>(device_, kRows), "spmd reduce output");

    spec_.numTeams = 32;
    spec_.threadsPerTeam = 256;
    spec_.teamsMode = omprt::ExecMode::kSPMD;
    spec_.parallelMode = omprt::ExecMode::kSPMD;
    spec_.simdlen = 32;
    spec_.hostWorkers = workers;
    spec_.fastPath = fastPath;

    for (int kernel = 0; kernel < 2; ++kernel) {
      const Result<gpusim::KernelStats> stats = launch(kernel);
      if (!stats.isOk() || !verify(kernel)) {
        throw StatusException(Status::internal("spmd-convergent warm-up"));
      }
      first_[kernel] = stats.value().csvRow();
      warmup_.add(stats.value());
    }
  }

  void runRound(uint64_t round, Tracer& tracer,
                std::vector<OpSample>& out) override {
    for (int kernel = 0; kernel < 2; ++kernel) {
      const uint64_t op = round * 2 + static_cast<uint64_t>(kernel);
      auto root = tracer.span("op", op);
      clearOutput(kernel);
      OpSample sample;
      const Clock::time_point start = Clock::now();
      Result<gpusim::KernelStats> stats = Status::internal("not launched");
      {
        auto span = tracer.span(
            "dsl.targetTeamsDistributeParallelFor", op);
        stats = launch(kernel);
      }
      sample.ms = msBetween(start, Clock::now());
      sample.kind = static_cast<uint32_t>(kernel);
      auto check = tracer.span("client.verify", op);
      if (stats.isOk()) {
        sample.cycles = stats.value().cycles;
        sample.ok = stats.value().csvRow() == first_[kernel] && verify(kernel);
      }
      out.push_back(sample);
    }
  }

 private:
  Result<gpusim::KernelStats> launch(int kernel) {
    const GlobalSpan<double> in = in_;
    if (kernel == 0) {
      const GlobalSpan<double> out = map_out_;
      return dsl::targetTeamsDistributeParallelFor(
          device_, spec_, kRows, [in, out](OmpContext& ctx, uint64_t row) {
            dsl::simd(ctx, kInner,
                      dsl::convergent([in, out, row](OmpContext& inner,
                                                     uint64_t k) {
                        gpusim::ThreadCtx& it = inner.gpu();
                        const double v = in.get(it, row * kInner + k);
                        it.fma();
                        out.set(it, row * kInner + k, v * 2.0 + 1.0);
                      }));
          });
    }
    const GlobalSpan<double> out = reduce_out_;
    return dsl::targetTeamsDistributeParallelFor(
        device_, spec_, kRows, [in, out](OmpContext& ctx, uint64_t row) {
          const double sum = dsl::simdReduceAdd(
              ctx, kInner,
              dsl::convergent([in, row](OmpContext& inner,
                                        uint64_t k) -> double {
                gpusim::ThreadCtx& it = inner.gpu();
                const double v = in.get(it, row * kInner + k);
                it.fma();
                return v + 1.0;
              }));
          if (ctx.simdGroupId() == 0) out.set(ctx.gpu(), row, sum);
        });
  }

  void clearOutput(int kernel) {
    const GlobalSpan<double>& out = kernel == 0 ? map_out_ : reduce_out_;
    std::memset(out.data(), 0, out.size() * sizeof(double));
  }

  bool verify(int kernel) const {
    if (kernel == 0) {
      for (size_t i = 0; i < host_in_.size(); ++i) {
        if (map_out_.raw(i) != host_in_[i] * 2.0 + 1.0) return false;
      }
      return true;
    }
    for (uint64_t row = 0; row < kRows; ++row) {
      double want = 0.0;
      for (uint64_t k = 0; k < kInner; ++k) {
        want += host_in_[row * kInner + k] + 1.0;
      }
      if (reduce_out_.raw(row) != want) return false;
    }
    return true;
  }

  gpusim::Device device_{gpusim::ArchSpec::nvidiaA100()};
  std::vector<double> host_in_;
  GlobalSpan<double> in_;
  GlobalSpan<double> map_out_;
  GlobalSpan<double> reduce_out_;
  dsl::LaunchSpec spec_;
  std::string first_[2];
};

// ---------------------------------------------------------------------
// paper-apps: the Fig. 9/10 anchor pairs, one reused A100-like device.
// Host workers come from SIMTOMP_HOST_WORKERS (set by main).
// ---------------------------------------------------------------------

enum AppOp : int {
  kSpmv2Level = 0,
  kSpmv3LevelS8,
  kSu3S1,
  kSu3S4,
  kIdealS1,
  kIdealS32,
  kLaplaceNoSimd,
  kLaplaceGeneric,
  kNumAppOps
};

constexpr const char* kAppSpanName[kNumAppOps] = {
    "apps.runSpmv", "apps.runSpmv",  "apps.runSu3",      "apps.runSu3",
    "apps.runIdeal", "apps.runIdeal", "apps.runLaplace3d", "apps.runLaplace3d"};

class PaperApps final : public Workload {
 public:
  static constexpr uint64_t kRounds = 54;

  explicit PaperApps(uint64_t seed)
      : Workload(kRounds),
        csr_(makeCsr(seed)),
        su3_(apps::generateSu3(5120, seed)),
        ideal_(apps::generateIdeal(3456, 32, seed)),
        laplace_(apps::generateLaplace3d(34, seed)) {
    for (int op = 0; op < kNumAppOps; ++op) {
      const Result<apps::AppRunResult> result = run(op);
      if (!result.isOk() || !result.value().verified) {
        throw StatusException(Status::internal("paper-apps warm-up"));
      }
      warmup_cycles_[op] = result.value().stats.cycles;
      warmup_.add(result.value().stats);
    }
  }

  void runRound(uint64_t round, Tracer& tracer,
                std::vector<OpSample>& out) override {
    for (int op = 0; op < kNumAppOps; ++op) {
      const uint64_t id = round * kNumAppOps + static_cast<uint64_t>(op);
      auto root = tracer.span("op", id);
      OpSample sample;
      const Clock::time_point start = Clock::now();
      Result<apps::AppRunResult> result = Status::internal("not run");
      {
        auto span = tracer.span(kAppSpanName[op], id);
        result = run(op);
      }
      sample.ms = msBetween(start, Clock::now());
      sample.kind = static_cast<uint32_t>(op);
      if (result.isOk()) {
        sample.cycles = result.value().stats.cycles;
        sample.ok = result.value().verified &&
                    sample.cycles == warmup_cycles_[op];
      }
      out.push_back(sample);
    }
  }

  /// Mean |modeled/paper - 1| over the four anchors (EXPERIMENTS.md).
  [[nodiscard]] double speedupError() const {
    const auto ratio = [this](int base, int variant) {
      return static_cast<double>(warmup_cycles_[base]) /
             static_cast<double>(warmup_cycles_[variant]);
    };
    const double err[] = {
        ratio(kSpmv2Level, kSpmv3LevelS8) / 3.5 - 1.0,
        ratio(kSu3S1, kSu3S4) / 1.3 - 1.0,
        ratio(kIdealS1, kIdealS32) / 2.15 - 1.0,
        ratio(kLaplaceNoSimd, kLaplaceGeneric) / 0.85 - 1.0,
    };
    double sum = 0.0;
    for (const double e : err) sum += e < 0 ? -e : e;
    return sum / 4.0;
  }

 private:
  static apps::CsrMatrix makeCsr(uint64_t seed) {
    apps::CsrGenConfig config;
    config.numRows = 4096;
    config.numCols = 4096;
    config.meanRowLength = 8;
    config.maxRowLength = 64;
    config.seed = seed;
    return apps::generateCsr(config);
  }

  Result<apps::AppRunResult> run(int op) {
    switch (op) {
      case kSpmv2Level:
      case kSpmv3LevelS8: {
        apps::SpmvOptions options;
        if (op == kSpmv2Level) {
          options.variant = apps::SpmvVariant::kTwoLevel;
          options.numTeams = 108;
          options.threadsPerTeam = 128;
        } else {
          options.variant = apps::SpmvVariant::kThreeLevelAtomic;
          options.numTeams = 64;
          options.threadsPerTeam = 256;
          options.simdlen = 8;
        }
        return apps::runSpmv(device_, csr_, options);
      }
      case kSu3S1:
      case kSu3S4: {
        apps::Su3Options options;
        options.numTeams = 32;
        options.threadsPerTeam = 128;
        options.simdlen = op == kSu3S1 ? 1 : 4;
        return apps::runSu3(device_, su3_, options);
      }
      case kIdealS1:
      case kIdealS32: {
        apps::IdealOptions options;
        options.numTeams = 108;
        options.threadsPerTeam = 128;
        options.simdlen = op == kIdealS1 ? 1 : 32;
        options.flopsPerElement = 2;
        return apps::runIdeal(device_, ideal_, options);
      }
      default: {
        apps::Laplace3dOptions options;
        options.mode = op == kLaplaceNoSimd ? apps::SimdMode::kNoSimd
                                            : apps::SimdMode::kGenericSimd;
        options.numTeams = 8;
        options.threadsPerTeam = 128;
        options.simdlen = 32;
        return apps::runLaplace3d(device_, laplace_, options);
      }
    }
  }

  gpusim::Device device_{gpusim::ArchSpec::nvidiaA100()};
  apps::CsrMatrix csr_;
  apps::Su3Workload su3_;
  apps::IdealWorkload ideal_;
  apps::Laplace3dWorkload laplace_;
  uint64_t warmup_cycles_[kNumAppOps] = {};
};

// ---------------------------------------------------------------------
// serve-waves: LaunchService over 4 tiny devices.
// ---------------------------------------------------------------------

/// A service keeps every request it ever admitted; a fresh one every
/// 16 waves keeps memory flat however long the run is.
constexpr uint64_t kWavesPerService = 16;

size_t kernelIndex(const std::string& name) {
  const std::vector<std::string>& names = simserve::mixKernelNames();
  return static_cast<size_t>(std::find(names.begin(), names.end(), name) -
                             names.begin());
}

/// The request config simserve's own mix replay builds. One host worker
/// per launch, as the replay does: the four device queues already run
/// four launches at once.
omprt::TargetConfig requestConfig(const simserve::MixOp& op) {
  omprt::TargetConfig config;
  config.teamsMode = omprt::ExecMode::kSPMD;
  config.numTeams = 2;
  config.threadsPerTeam = 64;
  config.parallelMode = omprt::ExecMode::kSPMD;
  config.simdlen = op.simdlen;
  config.hostWorkers = 1;
  config.check.mode = simcheck::CheckMode::kOff;
  config.tuneKey = op.kernel;
  config.tripCount = op.trip;
  config.fault.spec = "off";
  config.watchdogSteps = 2000000;
  return config;
}

class ServeWaves final : public Workload {
 public:
  /// The whole mix, once.
  static constexpr uint64_t kRounds = ServeLoop::kMixWaves;

  explicit ServeWaves(uint64_t seed)
      : Workload(kRounds),
        manager_(std::vector<gpusim::ArchSpec>(
            4, gpusim::ArchSpec::testTiny())),
        loop_(manager_, seed) {
    // The service reports only cycles per request. The counter and wave
    // sums therefore come from a fixed reference launch, one direct
    // launchTarget per mix kernel at trip 256 and simdlen 8, not from
    // the served traffic. modeled_cycles is the served traffic's: the
    // sum of RequestOutcome.cycles over the warm-up wave.
    for (size_t kernel = 0; kernel < simserve::mixKernelNames().size();
         ++kernel) {
      simserve::MixOp op;
      op.kernel = simserve::mixKernelNames()[kernel];
      op.trip = 256;
      op.simdlen = 8;
      auto out = std::make_shared<std::vector<uint64_t>>(op.trip, 0);
      const gpusim::KernelStats stats = must(
          omprt::launchTarget(manager_.device(0), requestConfig(op),
                              simserve::makeMixRegion(kernel, op.trip, out)),
          "serve-waves warm-up launch");
      warmup_.add(stats);
    }
    Tracer off;
    std::vector<OpSample> samples;
    loop_.runWave(0, off, samples);
    warmup_.cycles = 0;
    for (const OpSample& s : samples) {
      if (!s.ok) throw StatusException(Status::internal("serve-waves warm-up"));
      warmup_.cycles += s.cycles;
    }
  }

  void runRound(uint64_t round, Tracer& tracer,
                std::vector<OpSample>& out) override {
    loop_.runWave(round, tracer, out);
  }

 private:
  hostrt::DeviceManager manager_;
  ServeLoop loop_;
};

// ---------------------------------------------------------------------
// fuzz-matrix: kFuzzPrograms generated programs on the harness's six
// cells.
// ---------------------------------------------------------------------

/// statsKey is "cycles|KernelStats::csvRow()"; recover the summed fields.
gpusim::KernelStats parseStatsKey(const std::string& key) {
  gpusim::KernelStats stats;
  const size_t bar = key.find('|');
  std::vector<uint64_t> fields;
  std::istringstream csv(key.substr(bar == std::string::npos ? 0 : bar + 1));
  std::string field;
  while (std::getline(csv, field, ',')) {
    fields.push_back(std::strtoull(field.c_str(), nullptr, 10));
  }
  constexpr size_t kScalars = 8;  // cycles .. warp_occupancy
  if (fields.size() != kScalars + gpusim::kNumCounters) return stats;
  stats.cycles = fields[0];
  stats.waves = static_cast<uint32_t>(fields[5]);
  for (size_t i = 0; i < gpusim::kNumCounters; ++i) {
    stats.counters.values[i] = fields[kScalars + i];
  }
  return stats;
}

class FuzzMatrix final : public Workload {
 public:
  FuzzMatrix(uint64_t seed, uint32_t workers) : Workload(kFuzzPrograms) {
    // Program shapes are the generator's default stream; the seed draws
    // each program's closed-form coefficients. The coefficients set the
    // output values but no control flow, so every seed models the same
    // work and only the data changes, as in the other workloads.
    const simfuzz::Generator generator(0);
    const Rng coefficients(seed);
    for (uint64_t i = 0; i < kFuzzPrograms; ++i) {
      simfuzz::FuzzProgram program = generator.generate(i);
      Rng rng = coefficients.fork(i);
      program.a = rng.nextInRange(-3, 3);
      program.b = rng.nextInRange(-5, 5);
      programs_.push_back(program);
    }
    anchors_.resize(kFuzzPrograms);
    const auto cell = [workers](gpusim::ArchSpec arch, uint32_t w,
                                omprt::FastPathMode fastPath) {
      simfuzz::RunOptions options;
      options.arch = std::move(arch);
      options.hostWorkers = std::min(w, workers);
      options.fastPath = fastPath;
      return options;
    };
    using omprt::FastPathMode;
    const gpusim::ArchSpec tiny = gpusim::ArchSpec::testTiny();
    cells_ = {cell(tiny, 1, FastPathMode::kOff),
              cell(tiny, 4, FastPathMode::kOff),
              cell(tiny, 4, FastPathMode::kOn),
              cell(tiny, 4, FastPathMode::kAuto),
              cell(gpusim::ArchSpec::nvidiaA100(), 4, FastPathMode::kOn),
              cell(gpusim::ArchSpec::amdMI100(), 4, FastPathMode::kOn)};

    // One warm-up op per architecture.
    const std::vector<double> want = simfuzz::referenceRun(programs_[0]);
    for (const size_t c : {size_t{0}, size_t{4}, size_t{5}}) {
      const simfuzz::SimRun run = simfuzz::runOnSim(programs_[0], cells_[c]);
      if (!accept(0, c, run, want)) {
        throw StatusException(Status::internal("fuzz-matrix warm-up"));
      }
      warmup_.add(parseStatsKey(run.statsKey));
    }
  }

  void runRound(uint64_t round, Tracer& tracer,
                std::vector<OpSample>& out) override {
    const size_t p = round % kFuzzPrograms;
    std::vector<double> want;
    {
      auto span = tracer.span("simfuzz.referenceRun", round * cells_.size());
      want = simfuzz::referenceRun(programs_[p]);
    }
    for (size_t c = 0; c < cells_.size(); ++c) {
      const uint64_t id = round * cells_.size() + c;
      auto root = tracer.span("op", id);
      OpSample sample;
      const Clock::time_point start = Clock::now();
      simfuzz::SimRun run;
      {
        auto span = tracer.span("simfuzz.runOnSim", id);
        run = simfuzz::runOnSim(programs_[p], cells_[c]);
      }
      sample.ms = msBetween(start, Clock::now());
      sample.kind = static_cast<uint32_t>(c);
      auto check = tracer.span("client.verify", id);
      sample.ok = accept(p, c, run, want);
      if (run.status.isOk()) sample.cycles = parseStatsKey(run.statsKey).cycles;
      out.push_back(sample);
    }
  }

 private:
  /// The harness's oracles: clean launch, clean simcheck report, output
  /// bitwise equal to the host-serial reference, and on the tiny cells
  /// modeled stats equal to the first tiny run of the same program.
  bool accept(size_t p, size_t c, const simfuzz::SimRun& run,
              const std::vector<double>& want) {
    if (!run.status.isOk() || !run.checkClean || run.data != want) {
      return false;
    }
    if (cells_[c].arch.name != gpusim::ArchSpec::testTiny().name) return true;
    if (anchors_[p].empty()) anchors_[p] = run.statsKey;
    return run.statsKey == anchors_[p];
  }

  std::vector<simfuzz::FuzzProgram> programs_;
  std::vector<simfuzz::RunOptions> cells_;
  std::vector<std::string> anchors_;
};

}  // namespace

// ---------------------------------------------------------------------
// ServeLoop
// ---------------------------------------------------------------------

ServeLoop::ServeLoop(hostrt::DeviceManager& manager, uint64_t seed)
    : manager_(manager) {
  simserve::MixProfile profile;
  profile.seed = seed;
  profile.tenants = 4;
  profile.requests = static_cast<uint32_t>(kMixWaves * kWaveSize);
  profile.pumpEvery = kWaveSize;
  // Wide-open quotas: any shed request is a failure.
  profile.maxInFlight = 4096;
  profile.maxQueued = 4096;
  mix_ = simserve::generateMix(profile);
  for (size_t i = 0; i < mix_.ops.size(); ++i) {
    if (mix_.ops[i].kind == simserve::MixOp::Kind::kRequest) {
      requestOps_.push_back(i);
    } else if (mix_.ops[i].kind == simserve::MixOp::Kind::kTenant) {
      tenants_.push_back(mix_.ops[i].tenant);
    }
  }
  startService();
}

void ServeLoop::startService() {
  service_ = std::make_unique<simserve::LaunchService>(manager_);
  for (const simserve::TenantSpec& tenant : tenants_) {
    const Status registered = service_->registerTenant(tenant);
    if (!registered.isOk()) throw StatusException(registered);
  }
  service_waves_ = 0;
}

void ServeLoop::retireService() {
  amortized_ = amortized();
  peak_in_flight_ = peakInFlight();
  p99_cycles_ = latencyP99Cycles();
  service_.reset();
}

void ServeLoop::runWave(uint64_t wave, Tracer& tracer,
                        std::vector<OpSample>& out) {
  if (service_waves_ == kWavesPerService) {
    retireService();
    startService();
  }
  ++service_waves_;
  auto root = tracer.span("wave", wave);

  struct Pending {
    uint64_t id = 0;
    bool admitted = false;
    size_t kernel = 0;
    uint64_t trip = 0;
    std::shared_ptr<std::vector<uint64_t>> out;
    Clock::time_point submitted;
  };
  std::vector<Pending> pending(kWaveSize);
  const size_t base = (wave * kWaveSize) % requestOps_.size();
  for (uint32_t i = 0; i < kWaveSize; ++i) {
    const simserve::MixOp& op = mix_.ops[requestOps_[base + i]];
    const uint64_t request = wave * kWaveSize + i;
    Pending& p = pending[i];
    omprt::TargetConfig config;
    omprt::TargetRegionFn region;
    std::string fingerprint;
    {
      auto span = tracer.span("client.prepare", request);
      p.kernel = kernelIndex(op.kernel);
      p.trip = op.trip;
      p.out = std::make_shared<std::vector<uint64_t>>(op.trip, 0);
      config = requestConfig(op);
      region = simserve::makeMixRegion(p.kernel, op.trip, p.out);
      fingerprint = op.kernel + "/t" + std::to_string(op.trip) + "/s" +
                    std::to_string(op.simdlen);
    }
    auto span = tracer.span("simserve.submit", request);
    p.submitted = Clock::now();
    const Result<uint64_t> id =
        service_->submit(op.reqTenant, std::move(config), std::move(region),
                         std::move(fingerprint));
    submitUs.push_back(msBetween(p.submitted, Clock::now()) * 1000.0);
    p.admitted = id.isOk();
    if (p.admitted) p.id = id.value();
  }

  const Clock::time_point pumpStart = Clock::now();
  {
    auto span = tracer.span("simserve.pump", wave);
    service_->pump();
  }
  const Clock::time_point drainStart = Clock::now();
  Status drained;
  {
    auto span = tracer.span("simserve.drain", wave);
    drained = service_->drain();
  }
  const Clock::time_point drainEnd = Clock::now();
  pumpMs.push_back(msBetween(pumpStart, drainStart));
  drainMs.push_back(msBetween(drainStart, drainEnd));

  auto check = tracer.span("client.verify", wave);
  for (const Pending& p : pending) {
    OpSample sample;
    sample.ms = msBetween(p.submitted, drainEnd);
    queueWaitMs.push_back(msBetween(p.submitted, pumpStart));
    if (p.admitted && drained.isOk()) {
      ++admitted_;
      const simserve::RequestOutcome outcome = service_->outcome(p.id);
      sample.cycles = outcome.cycles;
      sample.ok = outcome.state == simserve::RequestState::kDone;
      for (uint64_t i = 0; sample.ok && i < p.trip; ++i) {
        sample.ok = (*p.out)[i] == simserve::mixKernelValue(p.kernel, i);
      }
    }
    out.push_back(sample);
  }
}

uint64_t ServeLoop::amortized() const {
  return amortized_ + service_->amortizedResolutions();
}

uint64_t ServeLoop::peakInFlight() const {
  return std::max(peak_in_flight_, service_->peakInFlight());
}

uint64_t ServeLoop::latencyP99Cycles() const {
  uint64_t p99 = p99_cycles_;
  for (const simserve::TenantSpec& tenant : tenants_) {
    p99 = std::max(
        p99,
        service_->tenantStats(tenant.name).latency.quantileUpperBound(0.99));
  }
  return p99;
}

// ---------------------------------------------------------------------
// Factories and probe hooks
// ---------------------------------------------------------------------

std::unique_ptr<Workload> makeWorkload(std::string_view name, uint64_t seed,
                                       uint32_t workers) {
  if (name == "spmd-convergent") {
    return makeSpmdConvergent(seed, workers, omprt::FastPathMode::kAuto);
  }
  if (name == "paper-apps") return std::make_unique<PaperApps>(seed);
  if (name == "serve-waves") return std::make_unique<ServeWaves>(seed);
  if (name == "fuzz-matrix") return std::make_unique<FuzzMatrix>(seed, workers);
  return nullptr;
}

std::unique_ptr<Workload> makeSpmdConvergent(uint64_t seed, uint32_t workers,
                                             omprt::FastPathMode fastPath) {
  return std::make_unique<SpmdConvergent>(seed, workers, fastPath);
}

double paperSpeedupError(const Workload& paperApps) {
  return dynamic_cast<const PaperApps&>(paperApps).speedupError();
}

}  // namespace simtomp::e2e
