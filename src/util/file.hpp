// Whole-file reads and writes for the result files (metrics, time series,
// run metadata, profiles, reports). A write is checked after the file is
// closed, so a failure the stream only sees when it flushes its buffer (a
// full disk) is reported, not lost.
#pragma once

#include <string>

namespace nwc::util {

/// Writes `text` to `path`, replacing it. Throws std::runtime_error naming
/// the path when the file cannot be opened, written or closed.
void writeFile(const std::string& path, const std::string& text);

/// The contents of `path`. Throws std::runtime_error naming the path when
/// it cannot be opened.
std::string readFile(const std::string& path);

}  // namespace nwc::util
