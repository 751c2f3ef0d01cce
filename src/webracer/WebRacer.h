//===- webracer/WebRacer.h - Umbrella header --------------------*- C++ -*-===//
//
// Part of the WebRacer reproduction. MIT licensed; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Umbrella header: everything a WebRacer user needs.
///
///  * webracer::Session / SessionOptions / SessionResult - run detection
///    over a page (webracer/Session.h).
///  * rt::Browser - the simulated engine, for fine-grained driving
///    (runtime/Browser.h).
///  * detect::RaceDetector, detect::Race, filters, reports
///    (detect/*.h).
///  * explore::Explorer - automatic user-interaction exploration
///    (explore/Explorer.h).
///  * TraceLog / detect::replayTrace - record an execution once, replay
///    detectors and filters offline (instr/TraceLog.h,
///    detect/TraceReplay.h).
///  * sites:: - the synthetic Fortune-100 corpus used by the benchmarks,
///    with serial and thread-pool corpus drivers (sites/*.h).
///  * analysis:: - the ahead-of-time static race analyzer and the
///    static-vs-dynamic cross-validation harness (analysis/*.h).
///  * triage:: - stable race signatures, suppression files, and the
///    deduplicating batch-ingest mode over trace directories
///    (triage/*.h).
///  * obs:: - the observability layer: phase timers, RunStats (the one
///    stats schema, also the --metrics listing), and the
///    schema-versioned report builders (obs/*.h, webracer/RunReport.h,
///    sites/CorpusReport.h).
///
//===----------------------------------------------------------------------===//

#ifndef WEBRACER_WEBRACER_WEBRACER_H
#define WEBRACER_WEBRACER_WEBRACER_H

#include "analysis/CrossCheck.h"
#include "analysis/Scenarios.h"
#include "analysis/StaticAnalyzer.h"
#include "detect/Filters.h"
#include "detect/RaceDetector.h"
#include "detect/Report.h"
#include "detect/TraceReplay.h"
#include "explore/Explorer.h"
#include "hb/HbGraph.h"
#include "instr/TraceLog.h"
#include "obs/Reporter.h"
#include "obs/RunStats.h"
#include "runtime/Browser.h"
#include "sites/Corpus.h"
#include "sites/CorpusReport.h"
#include "sites/CorpusRunner.h"
#include "triage/Batch.h"
#include "triage/Signature.h"
#include "triage/Suppression.h"
#include "webracer/Harm.h"
#include "webracer/RunReport.h"
#include "webracer/Session.h"

#endif // WEBRACER_WEBRACER_WEBRACER_H
