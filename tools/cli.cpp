#include "cli.h"

#include <algorithm>

#include "support/parse.h"

namespace simtomp::cli {

namespace {

/// Store `text` into one destination (a bool flag never gets here).
class Assign {
 public:
  explicit Assign(std::string_view text, uint64_t max)
      : text_(text), max_(max) {}

  Status operator()(bool*) const {
    return Status::internal("bool flags take no value");
  }
  Status operator()(std::string* dest) const {
    *dest = std::string(text_);
    return Status::ok();
  }
  Status operator()(uint32_t* dest) const {
    const Result<uint64_t> n =
        parseUnsigned(text_, std::min<uint64_t>(max_, UINT32_MAX));
    if (!n.isOk()) return n.status();
    *dest = static_cast<uint32_t>(n.value());
    return Status::ok();
  }
  Status operator()(uint64_t* dest) const {
    const Result<uint64_t> n = parseUnsigned(text_, max_);
    if (!n.isOk()) return n.status();
    *dest = n.value();
    return Status::ok();
  }
  Status operator()(SeedRange* dest) const {
    const Result<SeedRange> range = parseSeedRange(text_);
    if (!range.isOk()) return range.status();
    *dest = range.value();
    return Status::ok();
  }
  template <typename T>
  Status operator()(const KnobFlag<T>& flag) const {
    const std::optional<T> value = gpusim::matchKnob(*flag.knob, text_);
    if (!value.has_value()) {
      return Status::invalidArgument(
          quoted(text_) + " is not one of " +
          gpusim::knobAcceptedValues(*flag.knob));
    }
    *flag.dest = *value;
    return Status::ok();
  }

 private:
  std::string_view text_;
  uint64_t max_;
};

}  // namespace

Result<SeedRange> parseSeedRange(std::string_view text) {
  const size_t dots = text.find("..");
  if (dots == std::string_view::npos) {
    // A bare N is [N, N+1), so N + 1 must not wrap.
    const Result<uint64_t> n = parseUnsigned(text, UINT64_MAX - 1);
    if (!n.isOk()) return n.status();
    return SeedRange{n.value(), n.value() + 1};
  }
  const Result<uint64_t> begin = parseUnsigned(text.substr(0, dots));
  if (!begin.isOk()) return begin.status();
  const Result<uint64_t> end = parseUnsigned(text.substr(dots + 2));
  if (!end.isOk()) return end.status();
  if (end.value() < begin.value()) {
    return Status::invalidArgument("seed range '" + std::string(text) +
                                   "' ends before it begins");
  }
  return SeedRange{begin.value(), end.value()};
}

Status parseFlags(std::span<const std::string_view> args,
                  std::span<const Flag> flags,
                  std::vector<std::string_view>& positional) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string_view arg = args[i];
    if (arg.substr(0, 2) != "--") {
      positional.push_back(arg);
      continue;
    }
    const size_t eq = arg.find('=');
    const std::string_view name = arg.substr(0, eq);
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [name](const Flag& f) { return name == f.name; });
    if (flag == flags.end()) {
      return Status::invalidArgument("unknown flag '" + std::string(name) +
                                     "'");
    }
    if (bool* const* on = std::get_if<bool*>(&flag->dest)) {
      if (eq != std::string_view::npos) {
        return Status::invalidArgument(std::string(name) +
                                       " takes no value");
      }
      **on = true;
      continue;
    }
    std::string_view value;
    if (eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < args.size()) {
      value = args[++i];
    } else {
      return Status::invalidArgument(std::string(name) + " needs a value");
    }
    const Status set = std::visit(Assign(value, flag->max), flag->dest);
    if (!set.isOk()) {
      return Status(set.code(), std::string(name) + ": " + set.message());
    }
  }
  return Status::ok();
}

}  // namespace simtomp::cli
