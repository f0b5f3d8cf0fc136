// Minimal leveled logging to stderr.

#pragma once

#include <sstream>
#include <string>

namespace corgipile {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global minimum level; messages below it are dropped. Default: kInfo.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal

#define CORGI_LOG(level)                                              \
  if (::corgipile::LogLevel::level < ::corgipile::GetLogLevel()) {    \
  } else                                                              \
    ::corgipile::internal::LogMessage(::corgipile::LogLevel::level,   \
                                      __FILE__, __LINE__)             \
        .stream()

}  // namespace corgipile
