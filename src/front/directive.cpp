#include "front/directive.h"

#include <cctype>

#include "simfault/fault.h"
#include "support/parse.h"

namespace simtomp::front {

namespace {

/// Minimal tokenizer: identifiers, integers, and the punctuation the
/// clause grammar needs.
class Lexer {
 public:
  enum class Kind { kIdent, kNumber, kLParen, kRParen, kComma, kColon, kPlus, kEnd };

  struct Token {
    Kind kind = Kind::kEnd;
    std::string text;
  };

  explicit Lexer(std::string_view text) : text_(text) { advance(); }

  [[nodiscard]] const Token& peek() const { return current_; }

  Token take() {
    Token t = current_;
    advance();
    return t;
  }

  [[nodiscard]] bool atEnd() const { return current_.kind == Kind::kEnd; }

 private:
  void advance() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    current_ = Token{};
    if (pos_ >= text_.size()) return;
    const char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '#') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_' || text_[pos_] == '#')) {
        ++pos_;
      }
      current_ = {Kind::kIdent, std::string(text_.substr(start, pos_ - start))};
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
      current_ = {Kind::kNumber,
                  std::string(text_.substr(start, pos_ - start))};
      return;
    }
    ++pos_;
    switch (c) {
      case '(': current_ = {Kind::kLParen, "("}; return;
      case ')': current_ = {Kind::kRParen, ")"}; return;
      case ',': current_ = {Kind::kComma, ","}; return;
      case ':': current_ = {Kind::kColon, ":"}; return;
      case '+': current_ = {Kind::kPlus, "+"}; return;
      default:
        current_ = {Kind::kIdent, std::string(1, c)};
        return;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  Token current_;
};

using Kind = Lexer::Kind;

Status expect(Lexer& lex, Kind kind, const char* what) {
  if (lex.peek().kind != kind) {
    return Status::invalidArgument(std::string("expected ") + what +
                                   " near '" + lex.peek().text + "'");
  }
  lex.take();
  return Status::ok();
}

/// Take the current kNumber token as a value no greater than `max`.
Result<uint64_t> takeNumber(Lexer& lex, uint64_t max, const char* clause) {
  const Result<uint64_t> value = parseUnsigned(lex.take().text, max);
  if (!value.isOk()) {
    return Status(value.status().code(),
                  std::string(clause) + ": " + value.status().message());
  }
  return value;
}

Result<uint64_t> parseUintArg(Lexer& lex, const char* clause) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  if (lex.peek().kind != Kind::kNumber) {
    return Status::invalidArgument(std::string(clause) +
                                   " expects an integer argument");
  }
  const Result<uint64_t> value = takeNumber(lex, UINT32_MAX, clause);
  if (!value.isOk()) return value;
  s = expect(lex, Kind::kRParen, "')'");
  if (!s.isOk()) return s;
  return value;
}

/// Integer clause argument that also accepts the `auto` keyword.
struct UintOrAuto {
  uint64_t value = 0;
  bool isAuto = false;
};

Result<UintOrAuto> parseUintOrAutoArg(Lexer& lex, const char* clause) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  UintOrAuto out;
  if (lex.peek().kind == Kind::kIdent && lex.peek().text == "auto") {
    lex.take();
    out.isAuto = true;
  } else if (lex.peek().kind == Kind::kNumber) {
    const Result<uint64_t> value = takeNumber(lex, UINT32_MAX, clause);
    if (!value.isOk()) return value.status();
    out.value = value.value();
  } else {
    return Status::invalidArgument(std::string(clause) +
                                   " expects an integer or 'auto'");
  }
  s = expect(lex, Kind::kRParen, "')'");
  if (!s.isOk()) return s;
  return out;
}

struct ModeOrAuto {
  omprt::ExecMode mode = omprt::ExecMode::kSPMD;
  bool isAuto = false;
};

Result<ModeOrAuto> parseModeArg(Lexer& lex, const char* clause) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  if (lex.peek().kind != Kind::kIdent) {
    return Status::invalidArgument(std::string(clause) +
                                   " expects spmd|generic|auto");
  }
  const std::string word = lex.take().text;
  s = expect(lex, Kind::kRParen, "')'");
  if (!s.isOk()) return s;
  ModeOrAuto out;
  if (word == "spmd") {
    out.mode = omprt::ExecMode::kSPMD;
  } else if (word == "generic") {
    out.mode = omprt::ExecMode::kGeneric;
  } else if (word == "auto") {
    out.isAuto = true;
  } else {
    return Status::invalidArgument("unknown execution mode '" + word + "'");
  }
  return out;
}

Status parseTune(Lexer& lex, DirectiveSpec& spec) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  if (lex.peek().kind != Kind::kIdent) {
    return Status::invalidArgument("tune expects a kernel key");
  }
  spec.tuneKey = lex.take().text;
  return expect(lex, Kind::kRParen, "')'");
}

Status parseFault(Lexer& lex, DirectiveSpec& spec) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  // The plan grammar (kind:key=value;...) is simfault's, not ours:
  // concatenate raw token text up to the matching ')' and let
  // FaultPlan::parse validate it, so the two grammars cannot drift.
  std::string plan;
  int depth = 1;
  for (;;) {
    if (lex.atEnd()) {
      return Status::invalidArgument("fault(...) is missing ')'");
    }
    const Lexer::Token token = lex.take();
    if (token.kind == Kind::kLParen) ++depth;
    if (token.kind == Kind::kRParen && --depth == 0) break;
    plan += token.text;
  }
  if (plan.empty()) {
    return Status::invalidArgument("fault expects a plan (or 'off')");
  }
  const Result<simfault::FaultPlan> parsed = simfault::FaultPlan::parse(plan);
  if (!parsed.isOk()) return parsed.status();
  spec.options.fault.spec = plan;
  return Status::ok();
}

Status parseWatchdog(Lexer& lex, DirectiveSpec& spec) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  if (lex.peek().kind == Kind::kIdent && lex.peek().text == "off") {
    lex.take();
    spec.options.watchdogSteps = simfault::kWatchdogOff;
  } else if (lex.peek().kind == Kind::kNumber) {
    const Result<uint64_t> steps = takeNumber(lex, UINT64_MAX, "watchdog");
    if (!steps.isOk()) return steps.status();
    spec.options.watchdogSteps =
        steps.value() == 0 ? simfault::kWatchdogOff : steps.value();
  } else {
    return Status::invalidArgument("watchdog expects a step budget or 'off'");
  }
  return expect(lex, Kind::kRParen, "')'");
}

Status parseProfile(Lexer& lex, DirectiveSpec& spec) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  if (lex.peek().kind != Kind::kIdent) {
    return Status::invalidArgument("profile expects on|off|auto");
  }
  const std::string& word = lex.peek().text;
  if (word == "on") {
    spec.options.profile.mode = simprof::ProfileMode::kOn;
  } else if (word == "off") {
    spec.options.profile.mode = simprof::ProfileMode::kOff;
  } else if (word == "auto") {
    spec.options.profile.mode = simprof::ProfileMode::kAuto;
  } else {
    return Status::invalidArgument("unknown profile mode '" + word + "'");
  }
  lex.take();
  return expect(lex, Kind::kRParen, "')'");
}

Status parseSchedule(Lexer& lex, DirectiveSpec& spec) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  if (lex.peek().kind != Kind::kIdent) {
    return Status::invalidArgument("schedule expects static|dynamic|cyclic");
  }
  const std::string kind = lex.take().text;
  if (kind == "static") {
    spec.schedule.kind = omprt::ForSchedule::kStaticChunked;
  } else if (kind == "cyclic") {
    spec.schedule.kind = omprt::ForSchedule::kStaticCyclic;
  } else if (kind == "dynamic") {
    spec.schedule.kind = omprt::ForSchedule::kDynamic;
  } else {
    return Status::invalidArgument("unknown schedule kind '" + kind + "'");
  }
  if (lex.peek().kind == Kind::kComma) {
    lex.take();
    if (lex.peek().kind != Kind::kNumber) {
      return Status::invalidArgument("schedule chunk must be an integer");
    }
    const Result<uint64_t> chunk = takeNumber(lex, UINT64_MAX, "schedule");
    if (!chunk.isOk()) return chunk.status();
    spec.schedule.chunk = chunk.value();
  }
  spec.hasSchedule = true;
  return expect(lex, Kind::kRParen, "')'");
}

Status parseMap(Lexer& lex, DirectiveSpec& spec) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  if (lex.peek().kind != Kind::kIdent) {
    return Status::invalidArgument("map expects to|from|tofrom|alloc");
  }
  const std::string type = lex.take().text;
  MapClause clause;
  if (type == "to") {
    clause.type = hostrt::MapType::kTo;
  } else if (type == "from") {
    clause.type = hostrt::MapType::kFrom;
  } else if (type == "tofrom") {
    clause.type = hostrt::MapType::kToFrom;
  } else if (type == "alloc") {
    clause.type = hostrt::MapType::kAlloc;
  } else {
    return Status::invalidArgument("unknown map type '" + type + "'");
  }
  s = expect(lex, Kind::kColon, "':'");
  if (!s.isOk()) return s;
  // One or more comma-separated names.
  for (;;) {
    if (lex.peek().kind != Kind::kIdent) {
      return Status::invalidArgument("map expects variable names");
    }
    clause.name = lex.take().text;
    spec.maps.push_back(clause);
    if (lex.peek().kind != Kind::kComma) break;
    lex.take();
  }
  return expect(lex, Kind::kRParen, "')'");
}

Status parseReduction(Lexer& lex, DirectiveSpec& spec) {
  Status s = expect(lex, Kind::kLParen, "'('");
  if (!s.isOk()) return s;
  if (lex.peek().kind != Kind::kPlus) {
    return Status::invalidArgument(
        "only reduction(+:...) is supported by the runtime");
  }
  lex.take();
  s = expect(lex, Kind::kColon, "':'");
  if (!s.isOk()) return s;
  for (;;) {
    if (lex.peek().kind != Kind::kIdent) {
      return Status::invalidArgument("reduction expects variable names");
    }
    spec.reductions.push_back({'+', lex.take().text});
    if (lex.peek().kind != Kind::kComma) break;
    lex.take();
  }
  return expect(lex, Kind::kRParen, "')'");
}

}  // namespace

Result<DirectiveSpec> parseDirective(std::string_view text) {
  Lexer lex(text);
  DirectiveSpec spec;

  // Tolerate a "#pragma omp" prefix.
  if (lex.peek().kind == Kind::kIdent && lex.peek().text == "#pragma") {
    lex.take();
    if (lex.peek().kind == Kind::kIdent && lex.peek().text == "omp") {
      lex.take();
    }
  }

  bool constructs_done = false;
  while (!lex.atEnd()) {
    if (lex.peek().kind != Kind::kIdent) {
      return Status::invalidArgument("unexpected token '" + lex.peek().text +
                                     "'");
    }
    const std::string word = lex.take().text;

    // Constructs (must come before clauses).
    if (word == "target" || word == "teams" || word == "distribute" ||
        word == "parallel" || word == "for" || word == "simd") {
      if (constructs_done) {
        return Status::invalidArgument("construct '" + word +
                                       "' after clauses");
      }
      if (word == "target") spec.hasTarget = true;
      if (word == "teams") spec.hasTeams = true;
      if (word == "distribute") spec.hasDistribute = true;
      if (word == "parallel") spec.hasParallel = true;
      if (word == "for") spec.hasFor = true;
      if (word == "simd") spec.hasSimd = true;
      continue;
    }
    constructs_done = true;

    // Clauses.
    if (word == "num_teams") {
      auto v = parseUintOrAutoArg(lex, "num_teams");
      if (!v.isOk()) return v.status();
      spec.numTeams = static_cast<uint32_t>(v.value().value);
      spec.numTeamsAuto = v.value().isAuto;
    } else if (word == "thread_limit" || word == "num_threads") {
      auto v = parseUintOrAutoArg(lex, word.c_str());
      if (!v.isOk()) return v.status();
      spec.threadLimit = static_cast<uint32_t>(v.value().value);
      spec.threadLimitAuto = v.value().isAuto;
    } else if (word == "simdlen") {
      auto v = parseUintOrAutoArg(lex, "simdlen");
      if (!v.isOk()) return v.status();
      spec.simdlen = static_cast<uint32_t>(v.value().value);
      spec.simdlenAuto = v.value().isAuto;
    } else if (word == "device") {
      auto v = parseUintArg(lex, "device");
      if (!v.isOk()) return v.status();
      spec.deviceNum = static_cast<uint32_t>(v.value());
    } else if (word == "collapse") {
      auto v = parseUintArg(lex, "collapse");
      if (!v.isOk()) return v.status();
      if (v.value() < 1 || v.value() > 2) {
        return Status::unimplemented("collapse depth must be 1 or 2");
      }
      spec.collapse = static_cast<uint32_t>(v.value());
    } else if (word == "schedule") {
      const Status s = parseSchedule(lex, spec);
      if (!s.isOk()) return s;
    } else if (word == "map") {
      const Status s = parseMap(lex, spec);
      if (!s.isOk()) return s;
    } else if (word == "reduction") {
      const Status s = parseReduction(lex, spec);
      if (!s.isOk()) return s;
    } else if (word == "mode" || word == "teams_mode") {
      auto v = parseModeArg(lex, word.c_str());
      if (!v.isOk()) return v.status();
      if (v.value().isAuto) {
        spec.teamsModeAuto = true;
      } else {
        spec.teamsMode = v.value().mode;
        spec.teamsModeExplicit = true;
      }
    } else if (word == "parallel_mode") {
      auto v = parseModeArg(lex, "parallel_mode");
      if (!v.isOk()) return v.status();
      if (v.value().isAuto) {
        spec.parallelModeAuto = true;
      } else {
        spec.parallelMode = v.value().mode;
        spec.parallelModeExplicit = true;
      }
    } else if (word == "tune") {
      const Status s = parseTune(lex, spec);
      if (!s.isOk()) return s;
    } else if (word == "fault") {
      const Status s = parseFault(lex, spec);
      if (!s.isOk()) return s;
    } else if (word == "watchdog") {
      const Status s = parseWatchdog(lex, spec);
      if (!s.isOk()) return s;
    } else if (word == "profile") {
      const Status s = parseProfile(lex, spec);
      if (!s.isOk()) return s;
    } else if (word == "nowait") {
      // Accepted; deferral is the caller's choice of launch API.
    } else {
      return Status::invalidArgument("unknown clause '" + word + "'");
    }
  }

  if (!spec.hasTarget && !spec.hasTeams && !spec.hasParallel &&
      !spec.hasSimd) {
    return Status::invalidArgument("directive names no construct");
  }
  return spec;
}

dsl::LaunchSpec DirectiveSpec::toLaunchSpec(
    const gpusim::ArchSpec& arch) const {
  dsl::LaunchSpec spec;
  // A tune key makes every launch-shape clause that was not given
  // explicitly auto (0 / auto flag), deferring to the simtune cache at
  // launch; without one, only clauses spelled `auto` defer.
  const bool tuned = !tuneKey.empty();
  spec.tuneKey = tuneKey;
  const uint32_t warp = arch.warpSize;

  if (numTeams != 0) {
    spec.numTeams = numTeams;
  } else {
    spec.numTeams = tuned || numTeamsAuto ? 0 : arch.numSMs;
  }
  if (threadLimit != 0) {
    // Round to a warp multiple (the launch layer requires it).
    spec.threadsPerTeam = ((threadLimit + warp - 1) / warp) * warp;
  } else {
    spec.threadsPerTeam = tuned || threadLimitAuto ? 0 : 128;
  }
  if (simdlen != 0) {
    spec.simdlen = simdlen;
  } else if (tuned || simdlenAuto) {
    spec.simdlen = 0;
  } else {
    spec.simdlen = hasSimd ? warp : 1;
  }

  // The tightly-nested => SPMD rule (paper 3.2 / 6.5): a combined
  // "teams distribute parallel ..." directive is tightly nested, so
  // teams run SPMD; `parallel ... simd` combined likewise makes the
  // parallel region SPMD. Split constructs default to generic. Under
  // auto the inferred mode stays in place as the placeholder/fallback
  // the tuner may replace.
  const bool teams_tightly_nested = hasTeams && hasParallel;
  const bool parallel_tightly_nested = hasParallel && hasSimd;
  spec.teamsMode = teamsModeExplicit
                       ? teamsMode
                       : dsl::inferSpmd(teams_tightly_nested);
  spec.teamsModeAuto = !teamsModeExplicit && (tuned || teamsModeAuto);
  spec.parallelMode = parallelModeExplicit
                          ? parallelMode
                          : dsl::inferSpmd(parallel_tightly_nested);
  spec.parallelModeAuto =
      !parallelModeExplicit && (tuned || parallelModeAuto);
  if (hasSchedule) spec.scheduleChunk = schedule.chunk;
  static_cast<gpusim::LaunchOptions&>(spec) = options;
  return spec;
}

}  // namespace simtomp::front
