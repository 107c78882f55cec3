// simtomp_serve: generate and replay launch-service request mixes.
//
//   simtomp_serve gen [--seed S] [--tenants T] [--requests R]
//                     [--pump-every P] [--fault-permille F] [--out FILE]
//   simtomp_serve replay FILE [--devices D] [--shards S] [--workers N]
//                             [--stats FILE]
//   simtomp_serve trace FILE [--devices D] [--shards S] [--workers N]
//                            [--req ID] [--physical] [--ring N]
//                            [--flight FILE] [--perfetto FILE]
//   simtomp_serve chaos [--seeds A..B] [--devices D] [--shards S]
//                       [--workers N] [--epochs E] [--requests R]
//                       [--out FILE] [--trace] [--flight FILE]
//                       [--plant-violation]
//
// `gen` writes a deterministic mix (same flags, same bytes) in the
// format of src/simserve/mix.h. `replay` drives it through a
// LaunchService over D fresh tiny devices and prints the service's
// stats dump — deterministic by contract, so CI replays one mix twice
// and at 1 vs 8 workers and byte-compares the dumps (see docs/
// SERVING.md). `trace` replays the same way with request tracing on
// and prints the observability surfaces of src/simserve/trace.h —
// per-request span timelines (--req narrows to one id), the per-tenant
// SLO burn summary, queue-delay/batch-size histograms and the
// canonical flight-recorder dump — all byte-identical across reruns,
// --workers and --shards; --physical adds device/shard detail and the
// physical ring (not a byte-compare surface), --flight saves the
// flight dump and --perfetto exports per-tenant Chrome/Perfetto
// tracks. `chaos` runs the seeded fault campaign of src/simserve/
// chaos.h and prints its report; the report is byte-identical across
// reruns, --workers and --shards (with or without --trace), and the
// exit code is 0 only when every invariant held for every seed (see
// docs/FAULTS.md). With --trace --flight FILE, a violating seed's
// flight recorder is dumped to FILE; --plant-violation forces one
// synthetic violation on the first seed to drill that path. Exit
// codes: 0 ok, 1 service/verify/invariant failure, 2 usage or parse
// error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "gpusim/trace.h"
#include "hostrt/device_manager.h"
#include "simserve/chaos.h"
#include "simserve/mix.h"
#include "simserve/service.h"
#include "support/status.h"

namespace simtomp {
namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: simtomp_serve gen [--seed S] [--tenants T] [--requests R]\n"
      "                         [--pump-every P] [--fault-permille F]\n"
      "                         [--out FILE]\n"
      "       simtomp_serve replay FILE [--devices D] [--shards S]\n"
      "                                 [--workers N] [--stats FILE]\n"
      "       simtomp_serve trace FILE [--devices D] [--shards S]\n"
      "                                [--workers N] [--req ID] [--physical]\n"
      "                                [--ring N] [--flight FILE]\n"
      "                                [--perfetto FILE]\n"
      "       simtomp_serve chaos [--seeds A..B] [--devices D] [--shards S]\n"
      "                           [--workers N] [--epochs E] [--requests R]\n"
      "                           [--out FILE] [--trace] [--flight FILE]\n"
      "                           [--plant-violation]\n");
  return 2;
}

bool parseFlag(int argc, char** argv, int& i, const char* name,
               uint64_t& value) {
  if (std::strcmp(argv[i], name) != 0) return false;
  if (i + 1 >= argc) return false;
  value = static_cast<uint64_t>(std::strtoull(argv[++i], nullptr, 10));
  return true;
}

int runGen(int argc, char** argv) {
  simserve::MixProfile profile;
  std::string out_path;
  uint64_t v = 0;
  for (int i = 2; i < argc; ++i) {
    if (parseFlag(argc, argv, i, "--seed", v)) {
      profile.seed = v;
    } else if (parseFlag(argc, argv, i, "--tenants", v)) {
      profile.tenants = static_cast<uint32_t>(v);
    } else if (parseFlag(argc, argv, i, "--requests", v)) {
      profile.requests = static_cast<uint32_t>(v);
    } else if (parseFlag(argc, argv, i, "--pump-every", v)) {
      profile.pumpEvery = static_cast<uint32_t>(v);
    } else if (parseFlag(argc, argv, i, "--fault-permille", v)) {
      profile.faultPermille = static_cast<uint32_t>(v);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      return usage();
    }
  }
  const std::string text = simserve::generateMix(profile).toString();
  if (out_path.empty()) {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "simtomp_serve: cannot write %s\n",
                 out_path.c_str());
    return 1;
  }
  out << text;
  return 0;
}

int runReplay(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string mix_path = argv[2];
  uint64_t devices = 4, shards = 0, workers = 1;
  std::string stats_path;
  for (int i = 3; i < argc; ++i) {
    uint64_t v = 0;
    if (parseFlag(argc, argv, i, "--devices", v)) {
      devices = v;
    } else if (parseFlag(argc, argv, i, "--shards", v)) {
      shards = v;
    } else if (parseFlag(argc, argv, i, "--workers", v)) {
      workers = v;
    } else if (std::strcmp(argv[i], "--stats") == 0 && i + 1 < argc) {
      stats_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (devices == 0 || workers == 0) return usage();

  std::ifstream in(mix_path);
  if (!in) {
    std::fprintf(stderr, "simtomp_serve: cannot read %s\n", mix_path.c_str());
    return 2;
  }
  const Result<simserve::Mix> mix = simserve::parseMix(in);
  if (!mix.isOk()) {
    std::fprintf(stderr, "simtomp_serve: %s\n",
                 mix.status().toString().c_str());
    return 2;
  }

  std::vector<gpusim::ArchSpec> specs(devices, gpusim::ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  simserve::ServiceConfig config;
  config.shardCount = static_cast<uint32_t>(shards);
  simserve::LaunchService service(mgr, config);

  simserve::ReplayOptions options;
  options.hostWorkers = static_cast<uint32_t>(workers);
  const Result<simserve::ReplayReport> report =
      simserve::replayMix(service, mix.value(), options);
  if (!report.isOk()) {
    std::fprintf(stderr, "simtomp_serve: replay failed: %s\n",
                 report.status().toString().c_str());
    return 1;
  }
  std::printf("replay %s: %s\n", mix_path.c_str(),
              report.value().toString().c_str());
  std::ostringstream stats;
  service.dumpStats(stats);
  std::fputs(stats.str().c_str(), stdout);
  if (!stats_path.empty()) {
    std::ofstream stats_out(stats_path);
    if (!stats_out) {
      std::fprintf(stderr, "simtomp_serve: cannot write %s\n",
                   stats_path.c_str());
      return 1;
    }
    stats_out << stats.str();
  }
  return 0;
}

int runTrace(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string mix_path = argv[2];
  uint64_t devices = 4, shards = 0, workers = 1, ring = 8192, req_id = 0;
  bool have_req = false, physical = false;
  std::string flight_path, perfetto_path;
  for (int i = 3; i < argc; ++i) {
    uint64_t v = 0;
    if (parseFlag(argc, argv, i, "--devices", v)) {
      devices = v;
    } else if (parseFlag(argc, argv, i, "--shards", v)) {
      shards = v;
    } else if (parseFlag(argc, argv, i, "--workers", v)) {
      workers = v;
    } else if (parseFlag(argc, argv, i, "--ring", v)) {
      ring = v;
    } else if (parseFlag(argc, argv, i, "--req", v)) {
      req_id = v;
      have_req = true;
    } else if (std::strcmp(argv[i], "--physical") == 0) {
      physical = true;
    } else if (std::strcmp(argv[i], "--flight") == 0 && i + 1 < argc) {
      flight_path = argv[++i];
    } else if (std::strcmp(argv[i], "--perfetto") == 0 && i + 1 < argc) {
      perfetto_path = argv[++i];
    } else {
      return usage();
    }
  }
  if (devices == 0 || workers == 0 || ring == 0) return usage();

  std::ifstream in(mix_path);
  if (!in) {
    std::fprintf(stderr, "simtomp_serve: cannot read %s\n", mix_path.c_str());
    return 2;
  }
  const Result<simserve::Mix> mix = simserve::parseMix(in);
  if (!mix.isOk()) {
    std::fprintf(stderr, "simtomp_serve: %s\n",
                 mix.status().toString().c_str());
    return 2;
  }

  std::vector<gpusim::ArchSpec> specs(devices, gpusim::ArchSpec::testTiny());
  hostrt::DeviceManager mgr(std::move(specs));
  simserve::ServiceConfig config;
  config.shardCount = static_cast<uint32_t>(shards);
  config.trace.enabled = true;
  config.trace.ringCapacity = ring;
  simserve::LaunchService service(mgr, config);

  simserve::ReplayOptions options;
  options.hostWorkers = static_cast<uint32_t>(workers);
  const Result<simserve::ReplayReport> report =
      simserve::replayMix(service, mix.value(), options);
  if (!report.isOk()) {
    std::fprintf(stderr, "simtomp_serve: replay failed: %s\n",
                 report.status().toString().c_str());
    return 1;
  }
  simserve::ServiceTracer* tracer = service.tracer();
  std::cout << "trace " << mix_path << ": " << report.value().toString()
            << "\n";
  if (have_req) {
    const Status st = tracer->dumpTimeline(std::cout, req_id, physical);
    if (!st.isOk()) {
      std::fprintf(stderr, "simtomp_serve: %s\n", st.toString().c_str());
      return 2;
    }
  } else {
    tracer->dumpTimelines(std::cout, physical);
  }
  tracer->dumpTenantSummary(std::cout);
  tracer->dumpHistograms(std::cout);
  tracer->dumpFlight(std::cout, physical);
  if (!flight_path.empty()) {
    const Status st =
        tracer->dumpFlightToFile(flight_path, physical, "on_demand");
    if (!st.isOk()) {
      std::fprintf(stderr, "simtomp_serve: %s\n", st.toString().c_str());
      return 1;
    }
  }
  if (!perfetto_path.empty()) {
    gpusim::TraceRecorder recorder;
    tracer->exportPerfetto(recorder);
    const Status st = recorder.writeChromeJson(perfetto_path);
    if (!st.isOk()) {
      std::fprintf(stderr, "simtomp_serve: %s\n", st.toString().c_str());
      return 1;
    }
  }
  return 0;
}

/// Parse "A..B" (inclusive) or a single "N" (meaning 0..N).
bool parseSeedRange(const char* text, uint64_t& lo, uint64_t& hi) {
  const char* dots = std::strstr(text, "..");
  char* end = nullptr;
  if (dots == nullptr) {
    lo = 0;
    hi = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
  }
  const std::string a(text, dots);
  lo = std::strtoull(a.c_str(), &end, 10);
  if (end == a.c_str() || *end != '\0') return false;
  hi = std::strtoull(dots + 2, &end, 10);
  return end != dots + 2 && *end == '\0';
}

int runChaos(int argc, char** argv) {
  simserve::ChaosConfig config;
  std::string out_path;
  uint64_t v = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
      if (!parseSeedRange(argv[++i], config.seedLo, config.seedHi)) {
        return usage();
      }
    } else if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      if (!parseSeedRange(argv[i] + 8, config.seedLo, config.seedHi)) {
        return usage();
      }
    } else if (parseFlag(argc, argv, i, "--devices", v)) {
      config.devices = static_cast<uint32_t>(v);
    } else if (parseFlag(argc, argv, i, "--shards", v)) {
      config.shards = static_cast<uint32_t>(v);
    } else if (parseFlag(argc, argv, i, "--workers", v)) {
      config.workers = static_cast<uint32_t>(v);
    } else if (parseFlag(argc, argv, i, "--epochs", v)) {
      config.epochs = static_cast<uint32_t>(v);
    } else if (parseFlag(argc, argv, i, "--requests", v)) {
      config.requests = static_cast<uint32_t>(v);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      config.trace = true;
    } else if (std::strcmp(argv[i], "--flight") == 0 && i + 1 < argc) {
      config.flightPath = argv[++i];
    } else if (std::strcmp(argv[i], "--plant-violation") == 0) {
      config.plantViolation = true;
    } else {
      return usage();
    }
  }
  const Result<simserve::ChaosReport> report =
      simserve::runChaosCampaign(config);
  if (!report.isOk()) {
    std::fprintf(stderr, "simtomp_serve: %s\n",
                 report.status().toString().c_str());
    return 2;
  }
  const std::string& text = report.value().text;
  std::fwrite(text.data(), 1, text.size(), stdout);
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "simtomp_serve: cannot write %s\n",
                   out_path.c_str());
      return 1;
    }
    out << text;
  }
  if (!report.value().violations.empty()) {
    std::fprintf(stderr,
                 "simtomp_serve: chaos campaign found %zu violations\n",
                 report.value().violations.size());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace simtomp

int main(int argc, char** argv) {
  if (argc < 2) return simtomp::usage();
  if (std::strcmp(argv[1], "gen") == 0) return simtomp::runGen(argc, argv);
  if (std::strcmp(argv[1], "replay") == 0) {
    return simtomp::runReplay(argc, argv);
  }
  if (std::strcmp(argv[1], "trace") == 0) {
    return simtomp::runTrace(argc, argv);
  }
  if (std::strcmp(argv[1], "chaos") == 0) {
    return simtomp::runChaos(argc, argv);
  }
  return simtomp::usage();
}
