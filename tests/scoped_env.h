// Test helper: set (or, with nullptr, unset) one environment variable
// for a scope and restore its previous state on exit. Knobs read the
// environment at each launch, so a test can pin a SIMTOMP_* knob for
// its own launches without leaking it into later tests.
#pragma once

#include <cstdlib>
#include <string>

namespace simtomp::test {

class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

}  // namespace simtomp::test
