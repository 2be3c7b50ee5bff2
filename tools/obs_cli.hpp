// Shared observability CLI surface for the iotls_* tools.
//
// Every tool accepts the same three flags:
//   --serve=PORT        start the embedded export plane on 127.0.0.1:PORT
//                       (0 = ephemeral; the chosen port is printed to stderr
//                       as "obs: serving on 127.0.0.1:PORT" so scripts can
//                       parse it)
//   --serve-linger[=MS] after the batch work finishes, keep serving for MS
//                       milliseconds so a scraper can collect the final
//                       totals; bare --serve-linger or =0 lingers until
//                       GET /quitquitquit
//   --trace-out=FILE    record nested spans into the flight recorder and
//                       write them as Chrome trace-event JSON to FILE at
//                       exit (load in Perfetto / chrome://tracing)
//
// Parsing is prefix-based so each tool keeps its own argv loop; the helper
// returns true when it consumed the argument. The export plane and the
// recorder are both off unless their flag appears, so tools pay nothing for
// carrying this surface.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "obs/export_plane.hpp"
#include "obs/trace.hpp"
#include "util/strings.hpp"

namespace iotls::tools {

struct ObsCli {
  bool serve = false;
  std::uint16_t port = 0;
  bool linger = false;
  std::uint64_t linger_ms = 0;  // 0 = until /quitquitquit
  std::string trace_out;

  std::unique_ptr<obs::ExportPlane> plane;

  /// Try to consume `arg`; returns true if it was one of ours. `*bad` is set
  /// (with a message on stderr) when the flag was ours but malformed.
  bool parse(const char* arg, bool* bad) {
    *bad = false;
    if (std::strncmp(arg, "--serve=", 8) == 0) {
      auto n = parse_u64(arg + 8, 65535);
      if (!n) {
        std::fprintf(stderr, "--serve= wants a port in [0,65535], got '%s'\n",
                     arg + 8);
        *bad = true;
        return true;
      }
      serve = true;
      port = static_cast<std::uint16_t>(*n);
      return true;
    }
    if (std::strcmp(arg, "--serve-linger") == 0) {
      linger = true;
      linger_ms = 0;
      return true;
    }
    if (std::strncmp(arg, "--serve-linger=", 15) == 0) {
      auto n = parse_u64(arg + 15, UINT64_MAX);
      if (!n) {
        std::fprintf(stderr,
                     "--serve-linger= wants milliseconds, got '%s'\n", arg + 15);
        *bad = true;
        return true;
      }
      linger = true;
      linger_ms = *n;
      return true;
    }
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
      if (trace_out.empty()) {
        std::fprintf(stderr, "--trace-out= wants a file path\n");
        *bad = true;
      }
      return true;
    }
    return false;
  }

  /// Start whatever the flags asked for. Call once, before the batch work.
  /// Returns false (with a message on stderr) when the server cannot bind.
  bool start() {
    if (!trace_out.empty()) obs::recorder().enable();
    if (serve) {
      plane = std::make_unique<obs::ExportPlane>();
      std::string error;
      if (!plane->start(port, &error)) {
        std::fprintf(stderr, "obs: cannot serve: %s\n", error.c_str());
        plane.reset();
        return false;
      }
      std::fprintf(stderr, "obs: serving on 127.0.0.1:%u\n",
                   static_cast<unsigned>(plane->port()));
    }
    return true;
  }

  /// Linger (if asked), stop the server, and write the trace file.
  /// Call once, after the batch work and after any --stats output so a
  /// lingering scrape sees the same final totals the stats report printed.
  void finish() {
    if (plane && linger) {
      std::fprintf(stderr, "obs: work done; lingering%s (GET /quitquitquit to exit)\n",
                   linger_ms ? "" : " until stopped");
      plane->wait_for_shutdown(linger_ms);
    }
    if (plane) {
      plane->stop();
      plane.reset();
    }
    if (!trace_out.empty()) {
      std::string error;
      if (!obs::recorder().write_chrome_trace(trace_out, &error)) {
        std::fprintf(stderr, "obs: cannot write trace: %s\n", error.c_str());
      } else if (obs::recorder().dropped() > 0) {
        std::fprintf(stderr,
                     "obs: trace written to %s (%llu events dropped at capacity)\n",
                     trace_out.c_str(),
                     static_cast<unsigned long long>(obs::recorder().dropped()));
      }
    }
  }
};

}  // namespace iotls::tools
