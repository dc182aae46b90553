// The one number format of every obs output (trace, metrics, report,
// dashboard): printf("%.12g").  Enough digits to round-trip the values we
// emit almost exactly, and equal doubles render to equal bytes (metric merge
// determinism and report byte-identity rely on this).  std::to_chars in
// general format at a given precision is specified as exactly that
// conversion; it skips printf's format parsing and locale lookup.
#pragma once

#include <charconv>
#include <string>

namespace ge::obs {

inline void append_g12(std::string& out, double v) {
  char buf[32];  // "-1.23456789012e-308" is the longest rendering
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 12);
  out.append(buf, res.ptr);
}

inline std::string fmt_g12(double v) {
  std::string out;
  append_g12(out, v);
  return out;
}

}  // namespace ge::obs
