//===- obs/Reporter.h - Report emission backends ----------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The machine-readable reporting API. Every producer (a single session,
/// the corpus runner, the static/dynamic cross-check, a replay, a bench)
/// builds one obs::Json report tree under a shared versioned envelope and
/// hands it to one of two backends:
///
///  * JsonReporter - byte-stable JSON (schema version 1), for --json
///    files, build artifacts, and cross-PR diffs.
///  * TextReporter - a generic human rendering of the same tree, so no
///    front end hand-formats its own output.
///
/// Envelope:  {"schema": 1, "tool": "webracer", "kind": ..., "name": ...}
/// followed by producer-specific sections ("stats", "races", "sites",
/// "aggregate", "timing", ...). The "timing" section is the only place
/// wall-clock values live; everything else is deterministic for a fixed
/// seed, which is what makes reports diffable across job counts and PRs.
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_OBS_REPORTER_H
#define WEBRACER_OBS_REPORTER_H

#include "obs/Json.h"

#include <string>

namespace wr::obs {

/// The version of the report JSON schema this tree conforms to. Bump on
/// any incompatible change to section names or member meanings.
inline constexpr int ReportSchemaVersion = 1;

/// Starts a report tree: sets schema, tool, kind, and name members.
Json makeReportEnvelope(const std::string &Kind, const std::string &Name);

/// Renders the report as stable, pretty-printed JSON appended to \p Out.
class JsonReporter {
public:
  explicit JsonReporter(std::string &Out) : Out(Out) {}
  void emit(const Json &Report);

private:
  std::string &Out;
};

/// Renders the report as indented "key: value" text appended to \p Out.
/// Scalar arrays render inline; object arrays render as "- " blocks. The
/// envelope members (schema/tool) are skipped - they are for machines.
class TextReporter {
public:
  explicit TextReporter(std::string &Out) : Out(Out) {}
  void emit(const Json &Report);

private:
  std::string &Out;
};

} // namespace wr::obs

#endif // WEBRACER_OBS_REPORTER_H
