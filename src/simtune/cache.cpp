#include "simtune/cache.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/json.h"
#include "support/parse.h"

namespace simtomp::simtune {
namespace {

/// FNV-1a, the repo's go-to for small deterministic hashes.
uint64_t fnv1a(uint64_t hash, uint64_t value) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffu;
    hash *= kPrime;
  }
  return hash;
}

std::string_view modeToken(omprt::ExecMode mode) {
  return omprt::execModeName(mode);
}

bool parseModeToken(std::string_view token, omprt::ExecMode& mode) {
  if (token == "generic") {
    mode = omprt::ExecMode::kGeneric;
    return true;
  }
  if (token == "spmd") {
    mode = omprt::ExecMode::kSPMD;
    return true;
  }
  return false;
}

/// Minimal scanner for the cache's own JSON dialect. Not a general JSON
/// parser: it accepts exactly what save() emits (plus flexible
/// whitespace), which keeps the loader dependency-free and honest about
/// what it can read.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void skipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool peek(char c) {
    skipWs();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool atEnd() {
    skipWs();
    return pos_ >= text_.size();
  }

  bool readString(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            const std::string hex(text_.substr(pos_, 4));
            pos_ += 4;
            out += static_cast<char>(std::strtoul(hex.c_str(), nullptr, 16));
            break;
          }
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  /// A decimal number that fits `out`; false for none or one wider
  /// than `out`.
  template <typename T>
  bool readUint(T& out) {
    skipWs();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return parseUnsignedInto(text_.substr(start, pos_ - start), out).isOk();
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

bool parseEntryObject(Scanner& s, std::string& key, TunedShape& entry) {
  TuneCandidate& shape = entry.candidate;
  if (!s.consume('{')) return false;
  bool have_key = false;
  while (!s.peek('}')) {
    std::string field;
    if (!s.readString(field) || !s.consume(':')) return false;
    if (field == "key") {
      if (!s.readString(key)) return false;
      have_key = true;
    } else if (field == "teamsMode" || field == "parallelMode") {
      std::string token;
      if (!s.readString(token)) return false;
      omprt::ExecMode mode{};
      if (!parseModeToken(token, mode)) return false;
      (field == "teamsMode" ? shape.teamsMode : shape.parallelMode) = mode;
    } else {
      bool ok = false;
      if (field == "numTeams") {
        ok = s.readUint(shape.numTeams);
      } else if (field == "threadsPerTeam") {
        ok = s.readUint(shape.threadsPerTeam);
      } else if (field == "simdlen") {
        ok = s.readUint(shape.simdlen);
      } else if (field == "scheduleChunk") {
        ok = s.readUint(shape.scheduleChunk);
      } else if (field == "cycles") {
        ok = s.readUint(entry.cycles);
      } else if (field == "trials") {
        ok = s.readUint(entry.trials);
      }
      // An unknown field or an out-of-range number: refuse rather than
      // misread.
      if (!ok) return false;
    }
    if (!s.consume(',')) break;
  }
  return s.consume('}') && have_key;
}

}  // namespace

std::string archFingerprint(const gpusim::ArchSpec& arch) {
  std::ostringstream os;
  os << (arch.vendor == gpusim::Vendor::kNvidia ? "nv" : "amd") << ':'
     << arch.name << ":w" << arch.warpSize << ":sm" << arch.numSMs << ":sch"
     << arch.warpSchedulersPerSM << ":tb" << arch.maxThreadsPerBlock << ":ts"
     << arch.maxThreadsPerSM << ":shb" << arch.sharedMemPerBlock << ":shs"
     << arch.sharedMemPerSM << ":wb" << (arch.hasWarpLevelBarrier ? 1 : 0);
  return os.str();
}

std::string costFingerprint(const gpusim::CostModel& cost) {
  uint64_t hash = 0xcbf29ce484222325ull;  // FNV offset basis
  hash = fnv1a(hash, cost.aluOp);
  hash = fnv1a(hash, cost.fmaOp);
  hash = fnv1a(hash, cost.divergeBranch);
  hash = fnv1a(hash, cost.globalAccess);
  hash = fnv1a(hash, cost.sharedAccess);
  hash = fnv1a(hash, cost.localAccess);
  hash = fnv1a(hash, cost.atomicRmw);
  hash = fnv1a(hash, cost.warpSync);
  hash = fnv1a(hash, cost.blockSync);
  hash = fnv1a(hash, cost.statePoll);
  hash = fnv1a(hash, cost.payloadArgCopy);
  hash = fnv1a(hash, cost.dispatchCascade);
  hash = fnv1a(hash, cost.dispatchIndirect);
  hash = fnv1a(hash, cost.kernelLaunch);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "v%u:%016llx", gpusim::kCostModelVersion,
                static_cast<unsigned long long>(hash));
  return buf;
}

uint32_t tripBucket(uint64_t tripCount) {
  if (tripCount == 0) return 0;
  uint32_t bucket = 1;  // bucket b1 covers trip count 1
  while (tripCount > 1) {
    tripCount >>= 1;
    ++bucket;
  }
  return bucket;
}

std::string TuneKey::composite() const {
  std::ostringstream os;
  os << kernel << '|' << arch << '|' << cost << "|b" << bucket;
  return os.str();
}

TuneKey makeTuneKey(std::string kernel, const gpusim::ArchSpec& arch,
                    const gpusim::CostModel& cost, uint64_t tripCount) {
  TuneKey key;
  key.kernel = std::move(kernel);
  key.arch = archFingerprint(arch);
  key.cost = costFingerprint(cost);
  key.bucket = tripBucket(tripCount);
  return key;
}

std::string TuneCandidate::toString() const {
  std::ostringstream os;
  os << "teams=" << modeToken(teamsMode) << " parallel="
     << modeToken(parallelMode) << " numTeams=" << numTeams
     << " threadsPerTeam=" << threadsPerTeam << " simdlen=" << simdlen
     << " chunk=" << scheduleChunk;
  return os.str();
}

std::string TunedShape::toString() const {
  return candidate.toString() + " cycles=" + std::to_string(cycles) +
         " trials=" + std::to_string(trials);
}

TuneCache::TuneCache(std::string path) : path_(std::move(path)) {}

std::optional<TunedShape> TuneCache::lookup(const TuneKey& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key.composite());
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

void TuneCache::insert(const TuneKey& key, const TunedShape& shape) {
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_[key.composite()] = shape;
}

size_t TuneCache::evict(std::string_view kernelPrefix) {
  const std::lock_guard<std::mutex> lock(mutex_);
  size_t removed = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (std::string_view(it->first).substr(0, kernelPrefix.size()) ==
        kernelPrefix) {
      it = entries_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

size_t TuneCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::vector<std::pair<std::string, TunedShape>> TuneCache::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {entries_.begin(), entries_.end()};
}

Status TuneCache::load() {
  if (path_.empty()) return Status::ok();
  std::ifstream in(path_);
  if (!in) {
    // A missing cache file is the normal cold-start case.
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    return Status::ok();
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::map<std::string, TunedShape> parsed;
  Scanner s(text);
  std::string field;
  uint64_t version = 0;
  if (!s.consume('{') || !s.readString(field) || field != "simtune_cache" ||
      !s.consume(':') || !s.readUint(version) || version != 1 ||
      !s.consume(',') || !s.readString(field) || field != "entries" ||
      !s.consume(':') || !s.consume('[')) {
    return Status::invalidArgument("malformed tuning cache: " + path_);
  }
  while (!s.peek(']')) {
    std::string key;
    TunedShape shape;
    if (!parseEntryObject(s, key, shape)) {
      return Status::invalidArgument("malformed tuning cache entry in " +
                                     path_);
    }
    parsed[std::move(key)] = shape;
    if (!s.consume(',')) break;
  }
  if (!s.consume(']') || !s.consume('}') || !s.atEnd()) {
    return Status::invalidArgument("trailing garbage in tuning cache: " +
                                   path_);
  }

  const std::lock_guard<std::mutex> lock(mutex_);
  entries_ = std::move(parsed);
  return Status::ok();
}

Status TuneCache::save() const {
  if (path_.empty()) return Status::ok();
  return saveTo(path_);
}

Status TuneCache::saveTo(const std::string& path) const {
  std::vector<std::pair<std::string, TunedShape>> snapshot = entries();
  // std::map iteration is already key-sorted, which is the whole
  // determinism story: same entries in, byte-identical file out.
  std::string out;
  out += "{\n  \"simtune_cache\": 1,\n  \"entries\": [";
  bool first = true;
  for (const auto& [key, entry] : snapshot) {
    const TuneCandidate& shape = entry.candidate;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"key\": \"";
    out += jsonEscaped(key);
    out += "\", \"teamsMode\": \"";
    out += modeToken(shape.teamsMode);
    out += "\", \"parallelMode\": \"";
    out += modeToken(shape.parallelMode);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\", \"numTeams\": %u, \"threadsPerTeam\": %u, "
                  "\"simdlen\": %u, \"scheduleChunk\": %llu, "
                  "\"cycles\": %llu, \"trials\": %u}",
                  shape.numTeams, shape.threadsPerTeam, shape.simdlen,
                  static_cast<unsigned long long>(shape.scheduleChunk),
                  static_cast<unsigned long long>(entry.cycles),
                  entry.trials);
    out += buf;
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";

  std::ofstream file(path, std::ios::trunc);
  if (!file) {
    return Status::internal("cannot open tuning cache for writing: " + path);
  }
  file << out;
  file.flush();
  if (!file) {
    return Status::internal("failed writing tuning cache: " + path);
  }
  return Status::ok();
}

std::string resolveCachePath(const std::string& requested) {
  if (!requested.empty()) return requested;
  const char* env = std::getenv("SIMTOMP_TUNE_CACHE");
  return env == nullptr ? std::string() : std::string(env);
}

}  // namespace simtomp::simtune
