// Directive front-end: parse `#pragma omp ...` directive strings into a
// structured DirectiveSpec and lower them to launch configurations.
//
// The paper stresses that its code-generation path is front-end
// independent (section 4.2): any front-end able to produce a trip
// count and a loop body can lower onto the runtime. This module is the
// smallest possible such front-end — a parser for the directive
// *text*, e.g.
//
//   "target teams distribute parallel for simd simdlen(8) "
//   "num_teams(64) thread_limit(128) schedule(dynamic,4) "
//   "mode(spmd) parallel_mode(generic) map(tofrom: x)"
//
// and the mode-inference rule of paper sections 3.2/6.5: combined
// (tightly nested) constructs run SPMD, split ones run generic, unless
// an explicit mode clause overrides.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "dsl/dsl.h"
#include "hostrt/data_env.h"
#include "omprt/modes.h"
#include "omprt/schedule.h"
#include "support/status.h"

namespace simtomp::front {

struct MapClause {
  hostrt::MapType type = hostrt::MapType::kToFrom;
  std::string name;
};

struct ReductionClause {
  char op = '+';  ///< only '+' is supported by the runtime today
  std::string name;
};

struct DirectiveSpec {
  // Constructs present in the directive, in OpenMP nesting order.
  bool hasTarget = false;
  bool hasTeams = false;
  bool hasDistribute = false;
  bool hasParallel = false;
  bool hasFor = false;
  bool hasSimd = false;

  // Clauses.
  uint32_t numTeams = 0;     ///< num_teams(n); 0 = runtime default
  uint32_t threadLimit = 0;  ///< thread_limit(n); 0 = runtime default
  uint32_t simdlen = 0;      ///< simdlen(n); 0 = runtime default
  uint32_t deviceNum = 0;    ///< device(n)
  uint32_t collapse = 1;     ///< collapse(n); 1 or 2 supported
  omprt::ScheduleClause schedule;
  bool hasSchedule = false;
  std::vector<MapClause> maps;
  std::vector<ReductionClause> reductions;

  // Explicit execution-mode overrides (extension clauses; absent in
  // real OpenMP, where the compiler decides).
  bool teamsModeExplicit = false;
  omprt::ExecMode teamsMode = omprt::ExecMode::kSPMD;
  bool parallelModeExplicit = false;
  omprt::ExecMode parallelMode = omprt::ExecMode::kSPMD;

  // Autotuning (extension clauses; see src/simtune). `tune(key)` names
  // the kernel in the tuning cache and makes every launch-shape clause
  // that was not given explicitly auto; individual clauses can also opt
  // in with an `auto` argument, e.g. simdlen(auto) or num_teams(auto).
  std::string tuneKey;
  // Per-launch host knobs (extension clauses). `fault(plan)` sets
  // options.fault.spec to a SIMTOMP_FAULT-style plan ("off" pins
  // injection off); `watchdog(n|off)` sets options.watchdogSteps;
  // `profile(on|off|auto)` sets options.profile.mode. Knobs no clause
  // set stay auto and resolve from their environment variables.
  gpusim::LaunchOptions options;
  bool numTeamsAuto = false;      ///< num_teams(auto)
  bool threadLimitAuto = false;   ///< thread_limit(auto)
  bool simdlenAuto = false;       ///< simdlen(auto)
  bool teamsModeAuto = false;     ///< mode(auto)
  bool parallelModeAuto = false;  ///< parallel_mode(auto)

  /// Lower to a LaunchSpec: defaults + the tightly-nested => SPMD rule.
  [[nodiscard]] dsl::LaunchSpec toLaunchSpec(
      const gpusim::ArchSpec& arch) const;
};

/// Parse a directive string (without the "#pragma omp" prefix; a
/// leading prefix is tolerated and skipped).
Result<DirectiveSpec> parseDirective(std::string_view text);

}  // namespace simtomp::front
