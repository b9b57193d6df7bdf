// Minimal leveled logger. Simulation components log through this so tests can
// silence output and examples can turn on tracing with one call.
//
// WOHA_LOG short-circuits: when the level is disabled, the statement
// evaluates no stream operands and constructs no LogLine (so the
// std::ostringstream setup cost is never paid on the fast path).
//
// The sink is pluggable: by default lines go to stderr with wall-clock-free
// "[LEVEL] component: message" formatting. A run's facts travel on the
// event bus (obs::EventBus), not here: log lines carry only what no event
// does.
#pragma once

#include <functional>
#include <sstream>
#include <string>

namespace woha {

enum class LogLevel { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global minimum level; messages below it are discarded (default kWarn so
/// tests and benches stay quiet).
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// True when a message at `level` would be emitted. WOHA_LOG's gate.
[[nodiscard]] inline bool log_enabled(LogLevel level) {
  return level >= log_level();
}

/// Receives every enabled log line in place of the stderr default.
using LogSink =
    std::function<void(LogLevel, const std::string& component,
                       const std::string& message)>;

/// Install a sink (nullptr restores the stderr default). Returns the
/// previously installed sink so a scoped caller can restore it.
LogSink set_log_sink(LogSink sink);

/// Core entry: level-checks, then hands the line to the sink (or stderr).
void log_message(LogLevel level, const std::string& component,
                 const std::string& message);

/// Stream-style helper: WOHA_LOG(LogLevel::kInfo, "engine") << "t=" << t;
/// Only ever constructed for enabled levels (the macro gates first).
class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogLine() { log_message(level_, component_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <class T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

/// Ternary-operand helper that swallows the LogLine expression; gives
/// WOHA_LOG a void type in both branches without a dangling-else hazard.
struct LogVoidify {
  void operator&(const LogLine&) {}
};

}  // namespace woha

#define WOHA_LOG(level, component)                 \
  !::woha::log_enabled(level)                      \
      ? (void)0                                    \
      : ::woha::LogVoidify() & ::woha::LogLine((level), (component))
